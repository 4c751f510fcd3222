//===- JobWireTest.cpp - JobResult wire format and cache entry tests ----------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Covers the serialized JobResult shared by the warm cache and the worker
// pipe: a round trip of a result carrying RacerD records and their string
// table, rejection of hostile payloads (indices past the table, unknown
// record kinds, oversized or truncated tables), and the cache treating an
// entry in the previous format as a miss that the re-run overwrites.
//
//===----------------------------------------------------------------------===//

#include "DriverSupport.h"
#include "JobWire.h"

#include "o2/Driver/ResultCache.h"
#include "o2/Support/OutputStream.h"

#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

using namespace o2;

namespace {

std::string field(std::string_view S) {
  return std::to_string(S.size()) + ":" + std::string(S) + ",";
}
std::string field(uint64_t V) { return field(std::to_string(V)); }

JobResult racerdResult() {
  JobResult R;
  R.Status = JobStatus::Races;
  R.ms(O2Phase::PTA) = 1.25;
  R.ms(O2Phase::RacerD) = 0.1;
  R.Stats.set("racerd.warnings", 3);
  RaceRecord Rc;
  Rc.Fingerprint = "0123456789abcdef";
  Rc.Location = "@g";
  Rc.StmtA = "@g = x";
  Rc.FuncA = "T.run";
  Rc.WriteA = true;
  Rc.StmtB = "x = @g";
  Rc.FuncB = "main";
  R.Races.push_back(Rc);
  R.Text = {"T.f", "this.f = x", "x = this.f", "", "quote \" and \\ and \n"};
  R.RacerDWarnings = {{false, 0, 1, 2}, {true, 0, 1, 3}, {false, 4, 4, 4}};
  return R;
}

/// A well-formed payload up to (not including) the string table: the
/// serialization of a result with no table and no RacerD records, minus
/// their two zero counts.
std::string prefixBeforeTable() {
  JobResult R = racerdResult();
  R.Text.clear();
  R.RacerDWarnings.clear();
  std::string P = wire::serializeJobResult(R);
  std::string Tail = field(0) + field(0);
  EXPECT_EQ(P.substr(P.size() - Tail.size()), Tail);
  P.resize(P.size() - Tail.size());
  return P;
}

/// The prefix, a table of three strings, and one record.
std::string payloadWithRecord(uint64_t Kind, uint64_t Loc, uint64_t First,
                              uint64_t Second) {
  return prefixBeforeTable() + field(3) + field("T.f") + field("a = b") +
         field("") + field(1) + field(Kind) + field(Loc) + field(First) +
         field(Second);
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
  ASSERT_EQ(Out.Races.size(), 1u);
  EXPECT_EQ(Out.Races[0].StmtA, "@g = x");
  EXPECT_EQ(Out.Text, In.Text);
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
  // Eight distinct pass times, PTA to Escape, in O2Phase order; the
  // payload is the one the format-4 writer produces.
  JobResult R;
  R.Status = JobStatus::Races;
  const double Ms[] = {1.5, 2.25, 3.125, 4.0625, 5.5, 6.75, 7.875, 8.1};
  for (unsigned K = 1; K < NumO2Phases; ++K)
    R.ms(static_cast<O2Phase>(K)) = Ms[K - 1];
  const std::string Golden =
      "5:races,0:,0:,0:,1:0,1:0,1:0,1:0,3:1.5,4:2.25,5:3.125,6:4.0625,"
      "3:5.5,4:6.75,5:7.875,18:8.0999999999999996,"
      "1:0,1:0,1:0,1:0,1:0,1:0,";
  EXPECT_EQ(wire::serializeJobResult(R), Golden);
  JobResult Out;
  ASSERT_TRUE(wire::deserializeJobResult(Golden, Out));
  EXPECT_EQ(Out.PassMs, R.PassMs);
}

TEST(JobWireTest, HandBuiltPayloadIsAccepted) {
  // The hostile cases below differ from this one in a single field.
  JobResult Out;
  ASSERT_TRUE(wire::deserializeJobResult(payloadWithRecord(1, 0, 1, 2), Out));
  ASSERT_EQ(Out.RacerDWarnings.size(), 1u);
  EXPECT_TRUE(Out.RacerDWarnings[0].UnprotectedWrite);
  EXPECT_EQ(Out.Text[Out.RacerDWarnings[0].First], "a = b");
  EXPECT_EQ(Out.Text[Out.RacerDWarnings[0].Second], "");
}

TEST(JobWireTest, RejectsIndicesPastTheTable) {
  JobResult Out;
  EXPECT_FALSE(wire::deserializeJobResult(payloadWithRecord(0, 3, 1, 2), Out));
  EXPECT_FALSE(wire::deserializeJobResult(payloadWithRecord(0, 0, 3, 2), Out));
  EXPECT_FALSE(wire::deserializeJobResult(payloadWithRecord(0, 0, 1, 3), Out));
  EXPECT_FALSE(wire::deserializeJobResult(
      payloadWithRecord(0, 0, 1, uint64_t(1) << 32), Out));
}

TEST(JobWireTest, RejectsUnknownRecordKind) {
  JobResult Out;
  EXPECT_FALSE(wire::deserializeJobResult(payloadWithRecord(2, 0, 1, 2), Out));
}

TEST(JobWireTest, RejectsOversizedTable) {
  JobResult Out;
  EXPECT_FALSE(wire::deserializeJobResult(
      prefixBeforeTable() + field(wire::MaxListLen + 1) + field("a") +
          field(0),
      Out));
  // So is a length within the limit that the remaining bytes cannot hold.
  EXPECT_FALSE(wire::deserializeJobResult(
      prefixBeforeTable() + field(1000) + field("a") + field(0), Out));
}

TEST(JobWireTest, RejectsTableCutOffMidString) {
  JobResult Out;
  std::string Full = payloadWithRecord(0, 0, 1, 2);
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

/// Offset just past the first \p N fields of \p Payload.
size_t fieldsEnd(const std::string &Payload, unsigned N) {
  size_t Pos = 0;
  for (unsigned I = 0; I < N; ++I) {
    size_t Colon = Payload.find(':', Pos);
    Pos = Colon + 1 + std::stoul(Payload.substr(Pos, Colon - Pos)) + 1;
  }
  return Pos;
}

TEST(JobWireTest, PreviousFormatEntryIsAMissThatGetsOverwritten) {
  std::string Dir = testing::TempDir() + "o2-jobwiretest-format3";
  std::filesystem::remove_all(Dir);
  JobSpec Spec;
  Spec.Name = "racy";
  Spec.Source = RacyProgram;
  BatchOptions Opts;
  Opts.Analyses = AnalysisSet::all();
  Opts.CacheDir = Dir;
  BatchResult Cold = runBatch({Spec}, Opts);
  ASSERT_EQ(Cold.CacheMisses, 1u);
  ASSERT_FALSE(Cold.Jobs[0].RacerDWarnings.empty());
  std::string Golden = renderJSONL(Cold);

  // Rewrite the entry as a well-formed format-3 entry of the same result:
  // the same fields, except that nine pass times follow the eight header
  // fields, the fourth being the HB-index pass between SHB and race.
  std::string Payload = wire::serializeJobResult(Cold.Jobs[0]);
  Payload.insert(fieldsEnd(Payload, 8 + 3), field(0));
  std::string Entry;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    Entry = E.path().string();
  ASSERT_FALSE(Entry.empty());
  {
    std::ofstream Out(Entry, std::ios::trunc | std::ios::binary);
    Out << "o2cache 3 " << driver::toHex16(driver::fnv1a(Payload)) << "\n"
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

} // namespace
