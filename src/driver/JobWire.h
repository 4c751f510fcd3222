//===- JobWire.h - JobResult wire serialization ------------------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One serialized form of JobResult, shared by its two consumers: the
/// persistent warm cache (ResultCache) and the process-isolation result
/// pipe (Isolation.cpp). Netstring-style length-prefixed fields — every
/// field is `<decimal length>:<bytes>,` — so the reader never scans for
/// separators inside values and truncation or corruption fails a read
/// instead of misparsing. Two fields are fixed-width binary, little
/// endian:
///
/// - the times: the eight pass times, PTA to Escape, then the parse,
///   cache and record stage times, as eleven IEEE-754 doubles;
/// - the RacerD records, after a count field and the job's string table
///   (JobResult::Text): RacerDRecordBytes per record, the kind byte (0
///   for a read/write pair, 1 for an unprotected write), then the
///   Location, First and Second table indices as uint32s.
///
/// Unlike the old cache-private serializer this carries *every* status
/// (a worker must be able to report a timeout or an OOM over the pipe)
/// plus the containment fields (signal, degraded, retries). Policy about
/// which statuses are acceptable lives in the consumers: the cache
/// refuses to store or replay anything but Clean/Races.
///
/// Internal to o2Driver — not installed under include/.
///
//===----------------------------------------------------------------------===//

#ifndef O2_DRIVER_JOBWIRE_H
#define O2_DRIVER_JOBWIRE_H

#include "o2/Driver/Driver.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace o2 {
namespace wire {

/// A sane upper bound on serialized list lengths (string table included):
/// a deliberately corrupt length field must not turn into a multi-gigabyte
/// allocation.
constexpr uint64_t MaxListLen = 1u << 24;

/// Bytes per packed RacerD record: one kind byte and three uint32
/// indices.
constexpr uint64_t RacerDRecordBytes = 1 + 3 * 4;

/// Serializes everything except Name, Analyses, and FixedRaces — those
/// are request-side and overlaid by the consumer. The cache outcome IS
/// carried (the worker pipe needs it for the fleet's hit/miss tallies);
/// ResultCache::lookup overwrites it with Hit on replay.
std::string serializeJobResult(const JobResult &R);

/// Strict inverse: false on any structural damage, unknown status name,
/// trailing bytes, an oversized list length, a packed RacerD field whose
/// length is not the record count times RacerDRecordBytes, a RacerD
/// record kind other than 0 or 1, or a string-table index past the
/// table. \p Out is
/// unspecified on failure.
bool deserializeJobResult(std::string_view Payload, JobResult &Out);

} // namespace wire
} // namespace o2

#endif // O2_DRIVER_JOBWIRE_H
