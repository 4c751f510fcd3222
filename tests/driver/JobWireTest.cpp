//===- JobWireTest.cpp - JobResult wire format and cache entry tests ----------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Covers the serialized JobResult shared by the warm cache and the worker
// pipe: a round trip of a result carrying records of every kind and their
// string table, the byte layout of the binary fields, rejection of
// hostile payloads in every packed section (indices past the table,
// out-of-range kinds and flags, a packed field that is not a whole number
// of records, deadlock cycles that do not take the witnesses sent,
// oversized or truncated tables), a seeded mutation fuzz of the decoder,
// and the cache treating an entry in the previous format as a miss that
// the re-run overwrites.
//
//===----------------------------------------------------------------------===//

#include "DriverSupport.h"
#include "JobWire.h"

#include "o2/Driver/ResultCache.h"
#include "o2/Support/OutputStream.h"

#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <random>
#include <sstream>

using namespace o2;

namespace {

std::string field(std::string_view S) {
  return std::to_string(S.size()) + ":" + std::string(S) + ",";
}
std::string field(uint64_t V) { return field(std::to_string(V)); }

/// The low \p Bytes bytes of \p V, least significant first.
std::string le(uint64_t V, unsigned Bytes) {
  std::string Out;
  for (unsigned B = 0; B < Bytes; ++B)
    Out += char(V >> (8 * B));
  return Out;
}
std::string le64(uint64_t V) { return le(V, 8); }

/// One packed RacerD record: three little-endian uint32 indices
/// (location, first and second statement), then the kind byte.
std::string packed(uint8_t Kind, uint32_t Loc, uint32_t First,
                   uint32_t Second) {
  return le(Loc, 4) + le(First, 4) + le(Second, 4) + le(Kind, 1);
}

/// One packed race record: five uint32 indices (location, first
/// statement and function, second statement and function), the
/// fingerprint, then the two write flags.
std::string packedRace(uint64_t FP, uint32_t Loc, uint32_t StmtA,
                       uint32_t FuncA, uint32_t StmtB, uint32_t FuncB,
                       uint8_t WriteA, uint8_t WriteB) {
  return le(Loc, 4) + le(StmtA, 4) + le(FuncA, 4) + le(StmtB, 4) +
         le(FuncB, 4) + le64(FP) + le(WriteA, 1) + le(WriteB, 1);
}

/// One packed deadlock cycle: its lock-list index and witness count.
std::string packedCycle(uint32_t Locks, uint32_t NumWitnesses) {
  return le(Locks, 4) + le(NumWitnesses, 4);
}

/// One packed over-sync region: statement and function indices, thread,
/// accesses.
std::string packedRegion(uint32_t Stmt, uint32_t Func, uint32_t Thread,
                         uint32_t Accesses) {
  return le(Stmt, 4) + le(Func, 4) + le(Thread, 4) + le(Accesses, 4);
}

/// A result with records of every kind over one table.
JobResult racerdResult() {
  JobResult R;
  R.Status = JobStatus::Races;
  R.ms(O2Phase::PTA) = 1.25;
  R.ms(O2Phase::RacerD) = 0.1;
  R.ParseMs = 0.5;
  R.CacheMs = 0.25;
  R.RecordMs = 0.125;
  R.Stats.set("racerd.warnings", 3);
  R.Text = {"T.f",    "this.f = x", "x = this.f", "",
            "quote \" and \\ and \n",  "@g",         "@g = x",
            "T.run",  "x = @g",     "main",       "lock1,lock2",
            "thread 1 acquires lock2 while holding lock1 at 'acquire b'",
            "thread 2 acquires lock1 while holding lock2 at 'acquire a'"};
  RaceRecord Rc;
  Rc.Fingerprint = 0x0123456789abcdef;
  Rc.Location = 5;
  Rc.StmtA = 6;
  Rc.FuncA = 7;
  Rc.WriteA = true;
  Rc.StmtB = 8;
  Rc.FuncB = 9;
  R.Races = {Rc, Rc};
  R.Races[1].WriteB = true;
  R.Deadlocks = {{10, {11, 12}}, {10, {}}, {3, {12}}};
  R.OverSyncs = {{1, 7, 2, 5}, {3, 3, 0, 0}};
  R.RacerDWarnings = {{false, 0, 1, 2}, {true, 0, 1, 3}, {false, 4, 4, 4}};
  return R;
}

/// A well-formed payload up to (not including) the string table: the
/// serialization of a result with no table and no records, minus the
/// table's zero count and the five empty packed sections.
std::string prefixBeforeTable() {
  JobResult R = racerdResult();
  R.Text.clear();
  R.Races.clear();
  R.Deadlocks.clear();
  R.OverSyncs.clear();
  R.RacerDWarnings.clear();
  std::string P = wire::serializeJobResult(R);
  std::string Tail = field(0);
  for (unsigned I = 0; I < 5; ++I)
    Tail += field(0) + field("");
  EXPECT_EQ(P.substr(P.size() - Tail.size()), Tail);
  P.resize(P.size() - Tail.size());
  return P;
}

/// One packed section: a record count and the packed bytes.
struct Section {
  uint64_t Count = 0;
  std::string Bytes;
};

/// The packed sections in wire order.
enum SectionId { RaceSec, WitnessSec, CycleSec, RegionSec, RacerDSec };

/// The prefix, a table of three strings ("T.f", "a = b", ""), and the
/// given sections, every other one empty.
std::string payloadWith(std::initializer_list<std::pair<SectionId, Section>>
                            Given) {
  Section All[5];
  for (const auto &[Id, S] : Given)
    All[Id] = S;
  std::string P = prefixBeforeTable() + field(3) + field("T.f") +
                  field("a = b") + field("");
  for (const Section &S : All)
    P += field(S.Count) + field(S.Bytes);
  return P;
}

/// The prefix, the three-string table, and \p Records as the packed
/// RacerD field of a record count of \p Count.
std::string payloadWithRecords(uint64_t Count, const std::string &Records) {
  return payloadWith({{RacerDSec, {Count, Records}}});
}

/// The prefix, the three-string table, and one RacerD record.
std::string payloadWithRecord(uint8_t Kind, uint32_t Loc, uint32_t First,
                              uint32_t Second) {
  return payloadWithRecords(1, packed(Kind, Loc, First, Second));
}

bool decodes(const std::string &Payload) {
  JobResult Out;
  return wire::deserializeJobResult(Payload, Out);
}

TEST(JobWireTest, RoundTripsRacerDRecordsAndStringTable) {
  JobResult In = racerdResult();
  std::string Payload = wire::serializeJobResult(In);
  JobResult Out;
  ASSERT_TRUE(wire::deserializeJobResult(Payload, Out));

  EXPECT_EQ(Out.Status, JobStatus::Races);
  EXPECT_EQ(Out.ms(O2Phase::PTA), 1.25);
  EXPECT_EQ(Out.ms(O2Phase::RacerD), 0.1);
  EXPECT_EQ(Out.Stats.get("racerd.warnings"), 3u);
  EXPECT_EQ(Out.Text, In.Text);
  ASSERT_EQ(Out.Races.size(), In.Races.size());
  for (size_t I = 0; I < In.Races.size(); ++I) {
    const RaceRecord &A = In.Races[I], &B = Out.Races[I];
    EXPECT_EQ(A.Fingerprint, B.Fingerprint) << I;
    EXPECT_EQ(A.Location, B.Location) << I;
    EXPECT_EQ(A.StmtA, B.StmtA) << I;
    EXPECT_EQ(A.FuncA, B.FuncA) << I;
    EXPECT_EQ(A.WriteA, B.WriteA) << I;
    EXPECT_EQ(A.StmtB, B.StmtB) << I;
    EXPECT_EQ(A.FuncB, B.FuncB) << I;
    EXPECT_EQ(A.WriteB, B.WriteB) << I;
  }
  ASSERT_EQ(Out.Deadlocks.size(), In.Deadlocks.size());
  for (size_t I = 0; I < In.Deadlocks.size(); ++I) {
    EXPECT_EQ(Out.Deadlocks[I].Locks, In.Deadlocks[I].Locks) << I;
    EXPECT_EQ(Out.Deadlocks[I].Witnesses, In.Deadlocks[I].Witnesses) << I;
  }
  ASSERT_EQ(Out.OverSyncs.size(), In.OverSyncs.size());
  for (size_t I = 0; I < In.OverSyncs.size(); ++I) {
    const OverSyncRecord &A = In.OverSyncs[I], &B = Out.OverSyncs[I];
    EXPECT_EQ(A.Stmt, B.Stmt) << I;
    EXPECT_EQ(A.Function, B.Function) << I;
    EXPECT_EQ(A.Thread, B.Thread) << I;
    EXPECT_EQ(A.NumAccesses, B.NumAccesses) << I;
  }
  ASSERT_EQ(Out.RacerDWarnings.size(), In.RacerDWarnings.size());
  for (size_t I = 0; I < In.RacerDWarnings.size(); ++I) {
    const RacerDRecord &A = In.RacerDWarnings[I], &B = Out.RacerDWarnings[I];
    EXPECT_EQ(A.UnprotectedWrite, B.UnprotectedWrite) << I;
    EXPECT_EQ(A.Location, B.Location) << I;
    EXPECT_EQ(A.First, B.First) << I;
    EXPECT_EQ(A.Second, B.Second) << I;
  }
  EXPECT_EQ(wire::serializeJobResult(Out), Payload);
}

TEST(JobWireTest, PassTimesKeepTheirWireLayout) {
  // Eight distinct pass times, PTA to Escape, in O2Phase order, then the
  // parse, cache and record stage times: one field of eleven
  // little-endian IEEE-754 doubles. The payload is the one the format-7
  // writer produces: the status, three empty strings and the cache
  // outcome lead; no counters, an empty table and five empty packed
  // sections follow the times.
  JobResult R;
  R.Status = JobStatus::Races;
  const double Ms[] = {1.5, 2.25, 3.125, 4.0625, 5.5, 6.75, 7.875, 8.1};
  for (unsigned K = 1; K < NumO2Phases; ++K)
    R.ms(static_cast<O2Phase>(K)) = Ms[K - 1];
  R.ParseMs = 0.5;
  R.CacheMs = 0.25;
  R.RecordMs = 0.125;
  const std::string Golden =
      "5:races,0:,0:,0:,1:0,88:" + le64(0x3ff8000000000000) +
      le64(0x4002000000000000) + le64(0x4009000000000000) +
      le64(0x4010400000000000) + le64(0x4016000000000000) +
      le64(0x401b000000000000) + le64(0x401f800000000000) +
      le64(0x4020333333333333) + le64(0x3fe0000000000000) +
      le64(0x3fd0000000000000) + le64(0x3fc0000000000000) +
      ",1:0,1:0,1:0,0:,1:0,0:,1:0,0:,1:0,0:,1:0,0:,";
  EXPECT_EQ(wire::serializeJobResult(R), Golden);
  JobResult Out;
  ASSERT_TRUE(wire::deserializeJobResult(Golden, Out));
  EXPECT_EQ(Out.PassMs, R.PassMs);
  EXPECT_EQ(Out.ParseMs, 0.5);
  EXPECT_EQ(Out.CacheMs, 0.25);
  EXPECT_EQ(Out.RecordMs, 0.125);
}

/// Every section of a hand-built payload holding one or two well-formed
/// records; the hostile cases below each damage one section of it.
std::string handBuiltPayload() {
  return payloadWith(
      {{RaceSec, {1, packedRace(0xfedcba9876543210, 0, 1, 2, 1, 2, 1, 0)}},
       {WitnessSec, {2, le(1, 4) + le(2, 4)}},
       {CycleSec, {2, packedCycle(0, 2) + packedCycle(2, 0)}},
       {RegionSec, {1, packedRegion(1, 2, 7, 9)}},
       {RacerDSec, {1, packed(1, 0, 1, 2)}}});
}

TEST(JobWireTest, HandBuiltPayloadIsAccepted) {
  // The hostile cases below differ from these in a single field.
  JobResult Out;
  ASSERT_TRUE(wire::deserializeJobResult(payloadWithRecord(1, 0, 1, 2), Out));
  ASSERT_EQ(Out.RacerDWarnings.size(), 1u);
  EXPECT_TRUE(Out.RacerDWarnings[0].UnprotectedWrite);
  EXPECT_EQ(Out.Text[Out.RacerDWarnings[0].First], "a = b");
  EXPECT_EQ(Out.Text[Out.RacerDWarnings[0].Second], "");

  ASSERT_TRUE(wire::deserializeJobResult(handBuiltPayload(), Out));
  ASSERT_EQ(Out.Races.size(), 1u);
  EXPECT_EQ(Out.Races[0].Fingerprint, 0xfedcba9876543210u);
  EXPECT_EQ(Out.Text[Out.Races[0].StmtA], "a = b");
  EXPECT_TRUE(Out.Races[0].WriteA);
  EXPECT_FALSE(Out.Races[0].WriteB);
  ASSERT_EQ(Out.Deadlocks.size(), 2u);
  EXPECT_EQ(Out.Deadlocks[0].Witnesses, (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(Out.Text[Out.Deadlocks[1].Locks], "");
  EXPECT_TRUE(Out.Deadlocks[1].Witnesses.empty());
  ASSERT_EQ(Out.OverSyncs.size(), 1u);
  EXPECT_EQ(Out.OverSyncs[0].Thread, 7u);
  EXPECT_EQ(Out.OverSyncs[0].NumAccesses, 9u);
}

TEST(JobWireTest, PacksRecordsLittleEndian) {
  JobResult R = racerdResult();
  R.Text.resize(0x10203);
  R.RacerDWarnings = {{true, 0x10202, 0x102, 3}};
  std::string P = wire::serializeJobResult(R);
  std::string Tail = field(1) + field(packed(1, 0x10202, 0x102, 3));
  ASSERT_GE(P.size(), Tail.size());
  EXPECT_EQ(P.substr(P.size() - Tail.size()), Tail);
  EXPECT_EQ(packed(1, 0x10202, 0x102, 3),
            std::string("\x02\x02\x01\x00\x02\x01\x00\x00\x03\x00\x00\x00\x01",
                        13));
  // The race section leads the packed sections, right after the table.
  std::string Races =
      field(2) + field(packedRace(0x0123456789abcdef, 5, 6, 7, 8, 9, 1, 0) +
                       packedRace(0x0123456789abcdef, 5, 6, 7, 8, 9, 1, 1));
  EXPECT_NE(P.find(field(R.Text.back()) + Races), std::string::npos);
}

TEST(JobWireTest, RejectsIndicesPastTheTable) {
  // The table holds three strings: index 3 is the first one past it.
  JobResult Out;
  EXPECT_FALSE(wire::deserializeJobResult(payloadWithRecord(0, 3, 1, 2), Out));
  EXPECT_FALSE(wire::deserializeJobResult(payloadWithRecord(0, 0, 3, 2), Out));
  EXPECT_FALSE(wire::deserializeJobResult(payloadWithRecord(0, 0, 1, 3), Out));
  EXPECT_FALSE(
      wire::deserializeJobResult(payloadWithRecord(0, 0, 1, 0xffffffff), Out));
}

TEST(JobWireTest, RejectsUnknownRecordKind) {
  JobResult Out;
  EXPECT_FALSE(wire::deserializeJobResult(payloadWithRecord(2, 0, 1, 2), Out));
  EXPECT_FALSE(
      wire::deserializeJobResult(payloadWithRecord(0xff, 0, 1, 2), Out));
}

TEST(JobWireTest, RejectsPackedFieldOfTheWrongLength) {
  // The packed field must hold exactly count x 13 bytes.
  std::string One = packed(0, 0, 1, 2);
  JobResult Out;
  ASSERT_TRUE(wire::deserializeJobResult(payloadWithRecords(1, One), Out));
  EXPECT_FALSE(wire::deserializeJobResult(
      payloadWithRecords(1, One.substr(0, 12)), Out));
  EXPECT_FALSE(
      wire::deserializeJobResult(payloadWithRecords(1, One + "x"), Out));
  EXPECT_FALSE(wire::deserializeJobResult(payloadWithRecords(2, One), Out));
  EXPECT_FALSE(wire::deserializeJobResult(payloadWithRecords(0, One), Out));
  EXPECT_FALSE(
      wire::deserializeJobResult(payloadWithRecords(1, One + One), Out));
  // A count the rest of the payload cannot hold.
  EXPECT_FALSE(wire::deserializeJobResult(
      payloadWithRecords(wire::MaxListLen + 1, One), Out));
}

TEST(JobWireTest, RejectsDamagedRaceSection) {
  auto Race = [](uint64_t Count, const std::string &Bytes) {
    return payloadWith({{RaceSec, {Count, Bytes}}});
  };
  std::string One = packedRace(~uint64_t(0), 0, 1, 2, 1, 0, 0, 1);
  ASSERT_TRUE(decodes(Race(1, One)));
  // Each of the five indices past the three-string table.
  EXPECT_FALSE(decodes(Race(1, packedRace(1, 3, 1, 2, 1, 0, 0, 1))));
  EXPECT_FALSE(decodes(Race(1, packedRace(1, 0, 3, 2, 1, 0, 0, 1))));
  EXPECT_FALSE(decodes(Race(1, packedRace(1, 0, 1, 3, 1, 0, 0, 1))));
  EXPECT_FALSE(decodes(Race(1, packedRace(1, 0, 1, 2, 3, 0, 0, 1))));
  EXPECT_FALSE(decodes(Race(1, packedRace(1, 0, 1, 2, 1, 0xffffffff, 0, 1))));
  // A write flag other than 0 or 1.
  EXPECT_FALSE(decodes(Race(1, packedRace(1, 0, 1, 2, 1, 0, 2, 1))));
  EXPECT_FALSE(decodes(Race(1, packedRace(1, 0, 1, 2, 1, 0, 0, 0xff))));
  // Not a whole number of 30-byte records.
  EXPECT_FALSE(decodes(Race(1, One.substr(0, 29))));
  EXPECT_FALSE(decodes(Race(1, One + "x")));
  EXPECT_FALSE(decodes(Race(2, One)));
  EXPECT_FALSE(decodes(Race(0, One)));
}

TEST(JobWireTest, RejectsDamagedDeadlockSections) {
  auto Cycles = [](const std::string &Witnesses, uint64_t NumCycles,
                   const std::string &CycleBytes) {
    return payloadWith({{WitnessSec, {Witnesses.size() / 4, Witnesses}},
                        {CycleSec, {NumCycles, CycleBytes}}});
  };
  std::string TwoWitnesses = le(1, 4) + le(2, 4);
  ASSERT_TRUE(decodes(Cycles(TwoWitnesses, 1, packedCycle(0, 2))));
  ASSERT_TRUE(decodes(
      Cycles(TwoWitnesses, 2, packedCycle(0, 1) + packedCycle(1, 1))));
  // A lock list or a witness past the table.
  EXPECT_FALSE(decodes(Cycles(TwoWitnesses, 1, packedCycle(3, 2))));
  EXPECT_FALSE(decodes(Cycles(le(1, 4) + le(3, 4), 1, packedCycle(0, 2))));
  // Cycles that take more or fewer witnesses than were sent.
  EXPECT_FALSE(decodes(Cycles(TwoWitnesses, 1, packedCycle(0, 3))));
  EXPECT_FALSE(decodes(Cycles(TwoWitnesses, 1, packedCycle(0, 1))));
  EXPECT_FALSE(decodes(Cycles(TwoWitnesses, 1, packedCycle(0, 0xffffffff))));
  EXPECT_FALSE(decodes(Cycles(TwoWitnesses, 0, "")));
  // Not a whole number of records: 8-byte cycles, 4-byte witnesses.
  EXPECT_FALSE(decodes(Cycles(TwoWitnesses, 1, packedCycle(0, 2) + "x")));
  EXPECT_FALSE(decodes(Cycles(TwoWitnesses, 2, packedCycle(0, 2))));
  EXPECT_FALSE(decodes(payloadWith({{WitnessSec, {1, le(1, 3)}}})));
  EXPECT_FALSE(decodes(payloadWith({{WitnessSec, {2, le(1, 4)}}})));
  // This section has no flag or kind column to damage.
}

TEST(JobWireTest, RejectsDamagedOverSyncSection) {
  auto Regions = [](uint64_t Count, const std::string &Bytes) {
    return payloadWith({{RegionSec, {Count, Bytes}}});
  };
  // Thread and access counts take any value.
  ASSERT_TRUE(decodes(Regions(1, packedRegion(1, 2, 0xffffffff, 0))));
  EXPECT_FALSE(decodes(Regions(1, packedRegion(3, 2, 0, 0))));
  EXPECT_FALSE(decodes(Regions(1, packedRegion(1, 3, 0, 0))));
  // Not a whole number of 16-byte records.
  EXPECT_FALSE(decodes(Regions(1, packedRegion(1, 2, 0, 0).substr(0, 15))));
  EXPECT_FALSE(decodes(Regions(1, packedRegion(1, 2, 0, 0) + "x")));
  EXPECT_FALSE(decodes(Regions(2, packedRegion(1, 2, 0, 0))));
  // This section has no flag or kind column to damage.
}

TEST(JobWireTest, RejectsOversizedTable) {
  std::string EmptySections;
  for (unsigned I = 0; I < 5; ++I)
    EmptySections += field(0) + field("");
  JobResult Out;
  EXPECT_FALSE(wire::deserializeJobResult(prefixBeforeTable() +
                                              field(wire::MaxListLen + 1) +
                                              field("a") + EmptySections,
                                          Out));
  // So is a length within the limit that the remaining bytes cannot hold.
  EXPECT_FALSE(wire::deserializeJobResult(
      prefixBeforeTable() + field(1000) + field("a") + EmptySections, Out));
}

TEST(JobWireTest, RejectsTableCutOffMidString) {
  JobResult Out;
  std::string Full = handBuiltPayload();
  std::string Cut = prefixBeforeTable() + field(3) + field("T.f") + "5:a =";
  EXPECT_FALSE(wire::deserializeJobResult(Cut, Out));
  // Every proper prefix of a valid payload is rejected.
  for (size_t Len = 0; Len < Full.size(); ++Len)
    EXPECT_FALSE(wire::deserializeJobResult(Full.substr(0, Len), Out)) << Len;
}

const char *RacyProgram = R"(
  class T {
    field f: int;
    method run() { var x: int; x = this.f; this.f = x; @g = x; }
  }
  global g: int;
  func main() {
    var t: T;
    var x: int;
    t = new T;
    spawn t.run();
    spawn t.run();
    x = @g;
  }
)";

std::string renderJSONL(const BatchResult &R) {
  std::string Buf;
  StringOutputStream OS(Buf);
  printJSONL(R, OS);
  return Buf;
}

/// Where one field of a payload sits: its length prefix and its bytes.
struct FieldPos {
  size_t Begin, DataBegin, Size;
};

/// The fields of a well-formed payload, in order.
std::vector<FieldPos> fieldsOf(const std::string &Payload) {
  std::vector<FieldPos> Out;
  for (size_t Pos = 0; Pos < Payload.size();) {
    size_t Colon = Payload.find(':', Pos);
    size_t Size = std::stoul(Payload.substr(Pos, Colon - Pos));
    Out.push_back({Pos, Colon + 1, Size});
    Pos = Colon + 1 + Size + 1;
  }
  return Out;
}

/// \p R's payload laid out the way the format-6 writer wrote it: three
/// more decimal fields (a degraded flag, a fallback configuration
/// fingerprint and a retry count) between the crash signal and the cache
/// outcome, each zero for a result that was neither.
std::string asFormatSix(const JobResult &R) {
  std::string Current = wire::serializeJobResult(R);
  size_t CacheAt = fieldsOf(Current)[4].Begin;
  return Current.substr(0, CacheAt) + field(0) + field(0) + field(0) +
         Current.substr(CacheAt);
}

TEST(JobWireTest, PreviousFormatEntryIsAMissThatGetsOverwritten) {
  std::string Dir = testing::TempDir() + "o2-jobwiretest-format6";
  std::filesystem::remove_all(Dir);
  JobSpec Spec;
  Spec.Name = "racy";
  Spec.Source = RacyProgram;
  BatchOptions Opts;
  Opts.Analyses = AnalysisSet::all();
  Opts.CacheDir = Dir;
  BatchResult Cold = runBatch({Spec}, Opts);
  ASSERT_EQ(Cold.CacheMisses, 1u);
  ASSERT_FALSE(Cold.Jobs[0].Races.empty());
  ASSERT_FALSE(Cold.Jobs[0].RacerDWarnings.empty());
  std::string Golden = renderJSONL(Cold);

  // Rewrite the entry as a well-formed format-6 entry of the same result.
  std::string Payload = asFormatSix(Cold.Jobs[0]);
  std::string Entry;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    Entry = E.path().string();
  ASSERT_FALSE(Entry.empty());
  {
    std::ofstream Out(Entry, std::ios::trunc | std::ios::binary);
    Out << "o2cache 6 " << driver::toHex16(driver::hashBytes(Payload))
        << "\n"
        << Payload;
  }

  BatchResult Stale = runBatch({Spec}, Opts);
  EXPECT_EQ(Stale.CacheHits, 0u);
  EXPECT_EQ(Stale.CacheMisses, 1u);
  EXPECT_EQ(renderJSONL(Stale), Golden);

  std::ifstream In(Entry, std::ios::binary);
  std::stringstream Content;
  Content << In.rdbuf();
  EXPECT_EQ(Content.str().rfind("o2cache " +
                                    std::to_string(ResultCache::FormatVersion) +
                                    " ",
                                0),
            0u);

  BatchResult Warm = runBatch({Spec}, Opts);
  EXPECT_EQ(Warm.CacheHits, 1u);
  EXPECT_EQ(renderJSONL(Warm), Golden);
}

/// Damaged variants of a cache entry's header line "o2cache <version>
/// <checksum>", each applied to \p Entry (header, newline, payload):
/// version and checksum digit flips, the versions either side of the
/// current one, truncated lines, a
/// missing newline and extra fields. Seeded, so every run tries the same.
std::vector<std::string> headerMutants(const std::string &Entry) {
  size_t NL = Entry.find('\n');
  std::string Header = Entry.substr(0, NL), Payload = Entry.substr(NL + 1);
  size_t VersionAt = Header.find(' ') + 1;
  size_t SumAt = Header.find(' ', VersionAt) + 1;
  std::vector<std::string> Mutants;
  auto withHeader = [&](const std::string &H) {
    Mutants.push_back(H + "\n" + Payload);
  };
  std::mt19937_64 Rng(6);
  const std::string Digits = "0123456789";
  const std::string Hex = "0123456789abcdefABCDEF";
  for (unsigned I = 0; I < 6; ++I) {
    // A flipped version digit.
    std::string H = Header;
    char &D = H[VersionAt + Rng() % (SumAt - 1 - VersionAt)];
    D = Digits[(Digits.find(D) + 1 + Rng() % 9) % 10];
    withHeader(H);
    // A flipped checksum digit, to another hex digit or an upper-case
    // spelling of the same one.
    H = Header;
    char &X = H[SumAt + Rng() % (Header.size() - SumAt)];
    char Was = X;
    while (X == Was)
      X = Hex[Rng() % Hex.size()];
    withHeader(H);
    // The line cut short, with and without the rest of the entry.
    size_t Cut = Rng() % Header.size();
    withHeader(Header.substr(0, Cut));
    Mutants.push_back(Header.substr(0, Cut));
  }
  for (uint32_t Version :
       {ResultCache::FormatVersion - 1, ResultCache::FormatVersion + 1})
    withHeader(Header.substr(0, VersionAt) + std::to_string(Version) +
               Header.substr(SumAt - 1));
  Mutants.push_back(Header + Payload);          // no newline
  Mutants.push_back(Header);                    // no newline, no payload
  withHeader(Header + " 0");                    // an extra field
  withHeader(Header + " ");                     // an empty extra field
  withHeader(Header.substr(0, SumAt) + "0 " + Header.substr(SumAt));
  withHeader("o2cache  " + Header.substr(VersionAt)); // a doubled space
  return Mutants;
}

TEST(CacheHeaderFuzzTest, DamagedHeadersAreMissesThatGetOverwritten) {
  std::string Dir = testing::TempDir() + "o2-jobwiretest-header";
  std::filesystem::remove_all(Dir);
  JobSpec Spec;
  Spec.Name = "racy";
  Spec.Source = RacyProgram;
  BatchOptions Opts;
  Opts.Analyses = AnalysisSet::all();
  std::string Cacheless = renderJSONL(runBatch({Spec}, Opts));

  Opts.CacheDir = Dir;
  BatchResult Cold = runBatch({Spec}, Opts);
  ASSERT_EQ(Cold.CacheMisses, 1u);
  ASSERT_EQ(renderJSONL(Cold), Cacheless);
  std::string Path;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    Path = E.path().string();
  ASSERT_FALSE(Path.empty());
  auto readEntry = [&Path] {
    std::ifstream In(Path, std::ios::binary);
    std::stringstream Content;
    Content << In.rdbuf();
    return Content.str();
  };
  std::string Entry = readEntry();
  std::string Prefix =
      "o2cache " + std::to_string(ResultCache::FormatVersion) + " ";
  ASSERT_EQ(Entry.rfind(Prefix, 0), 0u);

  std::vector<std::string> Mutants = headerMutants(Entry);
  ASSERT_GE(Mutants.size(), 30u);
  for (size_t I = 0; I != Mutants.size(); ++I) {
    ASSERT_NE(Mutants[I], Entry) << "mutant " << I;
    {
      std::ofstream Out(Path, std::ios::trunc | std::ios::binary);
      Out << Mutants[I];
    }
    BatchResult Damaged = runBatch({Spec}, Opts);
    EXPECT_EQ(Damaged.CacheHits, 0u) << "mutant " << I;
    EXPECT_EQ(Damaged.CacheMisses, 1u) << "mutant " << I;
    EXPECT_EQ(renderJSONL(Damaged), Cacheless) << "mutant " << I;
    // The re-run stored a well-formed entry in the damaged one's place.
    std::string Rewritten = readEntry();
    EXPECT_EQ(Rewritten.rfind(Prefix, 0), 0u) << "mutant " << I;
    EXPECT_EQ(Rewritten.find('\n'), Prefix.size() + 16) << "mutant " << I;
    BatchResult Warm = runBatch({Spec}, Opts);
    EXPECT_EQ(Warm.CacheHits, 1u) << "mutant " << I;
    EXPECT_EQ(renderJSONL(Warm), Cacheless) << "mutant " << I;
  }
}

//===----------------------------------------------------------------------===//
// Decoder mutation fuzz
//===----------------------------------------------------------------------===//

/// A program with a race, a lock-order cycle and a lock region that
/// guards only origin-local data: its result fills every packed section.
const char *LockProgram = R"(
  class Lock { }
  class Obj { field v: int; }
  global ga: Lock;
  global gb: Lock;
  global g: int;
  class T1 {
    method run() {
      var la: Lock;
      var lb: Lock;
      var o: Obj;
      var x: int;
      la = @ga;
      lb = @gb;
      acquire la;
      acquire lb;
      release lb;
      release la;
      o = new Obj;
      acquire la;
      o.v = x;
      release la;
      @g = x;
    }
  }
  class T2 {
    method run() {
      var la: Lock;
      var lb: Lock;
      var x: int;
      la = @ga;
      lb = @gb;
      acquire lb;
      acquire la;
      release la;
      release lb;
      x = @g;
    }
  }
  func main() {
    var a: Lock;
    var b: Lock;
    var t1: T1;
    var t2: T2;
    a = new Lock;
    b = new Lock;
    @ga = a;
    @gb = b;
    t1 = new T1;
    t2 = new T2;
    spawn t1.run();
    spawn t2.run();
  }
)";

/// The payloads mutants start from: the golden and hand-built payloads
/// above (records of every kind included) and two real jobs' results.
std::vector<std::string> seedPayloads() {
  BatchOptions Opts;
  Opts.Analyses = AnalysisSet::all();
  std::vector<std::string> Seeds;
  for (const char *Source : {RacyProgram, LockProgram}) {
    JobSpec Spec;
    Spec.Name = "real";
    Spec.Source = Source;
    JobResult Real = runOneJob(Spec, Opts);
    EXPECT_FALSE(Real.Races.empty());
    EXPECT_FALSE(Real.RacerDWarnings.empty());
    if (Source == LockProgram) {
      EXPECT_FALSE(Real.Deadlocks.empty());
      EXPECT_FALSE(Real.OverSyncs.empty());
    }
    Seeds.push_back(wire::serializeJobResult(Real));
  }
  JobResult Times;
  Times.ms(O2Phase::PTA) = 1.5;
  Times.RecordMs = 0.125;
  Seeds.push_back(wire::serializeJobResult(racerdResult()));
  Seeds.push_back(wire::serializeJobResult(Times));
  Seeds.push_back(payloadWithRecord(1, 0, 1, 2));
  Seeds.push_back(handBuiltPayload());
  return Seeds;
}

/// One random edit of \p P: a byte flip, a truncation, a changed field
/// length, or a splice of bytes from \p Donor.
void mutate(std::string &P, const std::string &Donor, std::mt19937_64 &Rng) {
  auto Below = [&Rng](size_t N) { return N ? size_t(Rng() % N) : 0; };
  switch (Rng() % 4) {
  case 0:
    if (!P.empty())
      P[Below(P.size())] ^= char(1 + Below(255));
    break;
  case 1:
    P.resize(Below(P.size()));
    break;
  case 2: {
    // Rewrite one length prefix: off by a little, zero, or huge.
    std::vector<size_t> Colons;
    for (size_t I = 0; I < P.size(); ++I)
      if (P[I] == ':')
        Colons.push_back(I);
    if (Colons.empty())
      break;
    size_t Colon = Colons[Below(Colons.size())];
    size_t Begin = Colon;
    while (Begin > 0 && P[Begin - 1] >= '0' && P[Begin - 1] <= '9')
      --Begin;
    uint64_t Len = 0;
    for (size_t I = Begin; I < Colon && I < Begin + 18; ++I)
      Len = Len * 10 + uint64_t(P[I] - '0');
    const uint64_t Edits[] = {Len + 1, Len - 1, Len + 13, Len - 13, 0,
                              Rng() % 100000, ~uint64_t(0)};
    P.replace(Begin, Colon - Begin,
              std::to_string(Edits[Below(std::size(Edits))]));
    break;
  }
  case 3: {
    size_t From = Below(Donor.size()), Len = Below(Donor.size() - From + 1);
    size_t At = Below(P.size() + 1), Cut = Below(P.size() - At + 1);
    P.replace(At, Cut, Donor, From, Len);
    break;
  }
  }
}

TEST(JobWireFuzzTest, MutantsAreRejectedOrRoundTrip) {
  // Every mutant is either rejected, or decodes to a result whose
  // re-serialization decodes to the same result and which renders
  // without an out-of-range read (AddressSanitizer builds check that).
  std::vector<std::string> Seeds = seedPayloads();
  std::mt19937_64 Rng(17);
  unsigned Accepted = 0, Rejected = 0;
  for (unsigned I = 0; I < 6000; ++I) {
    std::string P = Seeds[I % Seeds.size()];
    for (unsigned K = 0, N = 1 + unsigned(Rng() % 3); K < N; ++K)
      mutate(P, Seeds[Rng() % Seeds.size()], Rng);
    JobResult R;
    if (!wire::deserializeJobResult(P, R)) {
      ++Rejected;
      continue;
    }
    ++Accepted;
    std::string Again = wire::serializeJobResult(R);
    JobResult R2;
    ASSERT_TRUE(wire::deserializeJobResult(Again, R2)) << "mutant " << I;
    EXPECT_EQ(wire::serializeJobResult(R2), Again) << "mutant " << I;
    R.Analyses = AnalysisSet::all();
    BatchResult B;
    B.Jobs.push_back(std::move(R));
    EXPECT_FALSE(renderJSONL(B).empty());
  }
  // Both outcomes occur: the fuzz reaches past the first field.
  EXPECT_GT(Accepted, 100u);
  EXPECT_GT(Rejected, 100u);
}

} // namespace
