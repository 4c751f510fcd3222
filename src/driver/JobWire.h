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
/// instead of misparsing. The times are one field of little-endian
/// IEEE-754 doubles. After the job's string table (JobResult::Text), each
/// record kind is one packed section: a count, then one field of
/// fixed-width little-endian records whose string members are table
/// indices (layouts in JobWire.cpp).
///
/// The payload carries *every* status (a worker must be able to report a
/// timeout or an OOM over the pipe) plus the crash signal. Policy about
/// which statuses are acceptable lives in the consumers: the cache
/// refuses to store or replay anything but a completed result
/// (jobCompleted).
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

/// Serializes everything except Name, Analyses, and FixedRaces — those
/// are request-side and overlaid by the consumer. The cache outcome IS
/// carried (the worker pipe needs it for the fleet's hit/miss tallies);
/// ResultCache::lookup overwrites it with Hit on replay.
std::string serializeJobResult(const JobResult &R);

/// Strict inverse: false on any structural damage, unknown status name,
/// trailing bytes, an oversized list length, a packed field whose length
/// is not its record count times the record width, a flag or kind other
/// than 0 or 1, a string-table index past the table, or deadlock cycles
/// that do not take exactly the witnesses sent. \p Out is unspecified on
/// failure.
bool deserializeJobResult(std::string_view Payload, JobResult &Out);

} // namespace wire
} // namespace o2

#endif // O2_DRIVER_JOBWIRE_H
