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
// table, the byte layout of the binary fields, rejection of hostile
// payloads (indices past the table, unknown record kinds, a packed field
// of the wrong length, oversized or truncated tables), a seeded mutation
// fuzz of the decoder, and the cache treating an entry in the previous
// format as a miss that the re-run overwrites.
//
//===----------------------------------------------------------------------===//

#include "DriverSupport.h"
#include "JobWire.h"

#include "o2/Driver/ResultCache.h"
#include "o2/Support/OutputStream.h"

#include <bit>
#include <cstdio>
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

/// \p V as eight bytes, least significant first.
std::string le64(uint64_t V) {
  std::string Out;
  for (unsigned B = 0; B < 8; ++B)
    Out += char(V >> (8 * B));
  return Out;
}

/// One packed RacerD record: the kind byte, then three little-endian
/// uint32 indices.
std::string packed(uint8_t Kind, uint32_t Loc, uint32_t First,
                   uint32_t Second) {
  std::string Out(1, char(Kind));
  for (uint32_t V : {Loc, First, Second})
    Out += le64(V).substr(0, 4);
  return Out;
}

JobResult racerdResult() {
  JobResult R;
  R.Status = JobStatus::Races;
  R.ms(O2Phase::PTA) = 1.25;
  R.ms(O2Phase::RacerD) = 0.1;
  R.ParseMs = 0.5;
  R.CacheMs = 0.25;
  R.RecordMs = 0.125;
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
/// the table's zero count, the records' zero count and their empty
/// packed field.
std::string prefixBeforeTable() {
  JobResult R = racerdResult();
  R.Text.clear();
  R.RacerDWarnings.clear();
  std::string P = wire::serializeJobResult(R);
  std::string Tail = field(0) + field(0) + field("");
  EXPECT_EQ(P.substr(P.size() - Tail.size()), Tail);
  P.resize(P.size() - Tail.size());
  return P;
}

/// The prefix, a table of three strings, and \p Records as the packed
/// field of a record count of \p Count.
std::string payloadWithRecords(uint64_t Count, const std::string &Records) {
  return prefixBeforeTable() + field(3) + field("T.f") + field("a = b") +
         field("") + field(Count) + field(Records);
}

/// The prefix, a table of three strings, and one record.
std::string payloadWithRecord(uint8_t Kind, uint32_t Loc, uint32_t First,
                              uint32_t Second) {
  return payloadWithRecords(1, packed(Kind, Loc, First, Second));
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
  // Eight distinct pass times, PTA to Escape, in O2Phase order, then the
  // parse, cache and record stage times: one field of eleven
  // little-endian IEEE-754 doubles. The payload is the one the format-5
  // writer produces.
  JobResult R;
  R.Status = JobStatus::Races;
  const double Ms[] = {1.5, 2.25, 3.125, 4.0625, 5.5, 6.75, 7.875, 8.1};
  for (unsigned K = 1; K < NumO2Phases; ++K)
    R.ms(static_cast<O2Phase>(K)) = Ms[K - 1];
  R.ParseMs = 0.5;
  R.CacheMs = 0.25;
  R.RecordMs = 0.125;
  const std::string Golden =
      "5:races,0:,0:,0:,1:0,1:0,1:0,1:0,88:" + le64(0x3ff8000000000000) +
      le64(0x4002000000000000) + le64(0x4009000000000000) +
      le64(0x4010400000000000) + le64(0x4016000000000000) +
      le64(0x401b000000000000) + le64(0x401f800000000000) +
      le64(0x4020333333333333) + le64(0x3fe0000000000000) +
      le64(0x3fd0000000000000) + le64(0x3fc0000000000000) +
      ",1:0,1:0,1:0,1:0,1:0,1:0,0:,";
  EXPECT_EQ(wire::serializeJobResult(R), Golden);
  JobResult Out;
  ASSERT_TRUE(wire::deserializeJobResult(Golden, Out));
  EXPECT_EQ(Out.PassMs, R.PassMs);
  EXPECT_EQ(Out.ParseMs, 0.5);
  EXPECT_EQ(Out.CacheMs, 0.25);
  EXPECT_EQ(Out.RecordMs, 0.125);
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

TEST(JobWireTest, PacksRecordsLittleEndian) {
  JobResult R = racerdResult();
  R.Text.resize(0x10203);
  R.RacerDWarnings = {{true, 0x10202, 0x102, 3}};
  std::string P = wire::serializeJobResult(R);
  std::string Tail = field(1) + field(packed(1, 0x10202, 0x102, 3));
  ASSERT_GE(P.size(), Tail.size());
  EXPECT_EQ(P.substr(P.size() - Tail.size()), Tail);
  EXPECT_EQ(packed(1, 0x10202, 0x102, 3),
            std::string("\x01\x02\x02\x01\x00\x02\x01\x00\x00\x03\x00\x00\x00",
                        13));
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

TEST(JobWireTest, RejectsOversizedTable) {
  JobResult Out;
  EXPECT_FALSE(wire::deserializeJobResult(
      prefixBeforeTable() + field(wire::MaxListLen + 1) + field("a") +
          field(0) + field(""),
      Out));
  // So is a length within the limit that the remaining bytes cannot hold.
  EXPECT_FALSE(wire::deserializeJobResult(
      prefixBeforeTable() + field(1000) + field("a") + field(0) + field(""),
      Out));
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

/// Reads \p N bytes at \p P as a little-endian integer.
uint64_t readLE(const char *P, unsigned N) {
  uint64_t V = 0;
  for (unsigned B = 0; B < N; ++B)
    V |= uint64_t(static_cast<unsigned char>(P[B])) << (8 * B);
  return V;
}

/// \p Payload rewritten the way the format-4 writer laid it out: the
/// eight pass times as decimal fields and no stage times, and each RacerD
/// record as four decimal fields instead of the packed field.
std::string asFormatFour(const std::string &Payload) {
  std::vector<FieldPos> F = fieldsOf(Payload);
  const FieldPos &Times = F[8], &Packed = F.back();
  std::string Out = Payload.substr(0, Times.Begin);
  for (unsigned K = 0; K < 8; ++K) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g",
                  std::bit_cast<double>(
                      readLE(Payload.data() + Times.DataBegin + 8 * K, 8)));
    Out += field(Buf);
  }
  Out += Payload.substr(F[9].Begin, Packed.Begin - F[9].Begin);
  for (size_t I = 0; I < Packed.Size; I += 13) {
    const char *Rec = Payload.data() + Packed.DataBegin + I;
    Out += field(readLE(Rec, 1));
    for (unsigned K = 0; K < 3; ++K)
      Out += field(readLE(Rec + 1 + 4 * K, 4));
  }
  return Out;
}

TEST(JobWireTest, PreviousFormatEntryIsAMissThatGetsOverwritten) {
  std::string Dir = testing::TempDir() + "o2-jobwiretest-format4";
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

  // Rewrite the entry as a well-formed format-4 entry of the same result,
  // checksummed with FNV-1a as format 4 was.
  std::string Payload = asFormatFour(wire::serializeJobResult(Cold.Jobs[0]));
  std::string Entry;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    Entry = E.path().string();
  ASSERT_FALSE(Entry.empty());
  {
    std::ofstream Out(Entry, std::ios::trunc | std::ios::binary);
    Out << "o2cache 4 " << driver::toHex16(driver::fnv1a(Payload)) << "\n"
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

//===----------------------------------------------------------------------===//
// Decoder mutation fuzz
//===----------------------------------------------------------------------===//

/// The payloads mutants start from: the golden and hand-built payloads
/// above (packed RacerD records included) and a real job's result.
std::vector<std::string> seedPayloads() {
  JobSpec Spec;
  Spec.Name = "racy";
  Spec.Source = RacyProgram;
  BatchOptions Opts;
  Opts.Analyses = AnalysisSet::all();
  JobResult Real = runOneJob(Spec, Opts);
  EXPECT_FALSE(Real.RacerDWarnings.empty());
  JobResult Times;
  Times.ms(O2Phase::PTA) = 1.5;
  Times.RecordMs = 0.125;
  return {wire::serializeJobResult(racerdResult()),
          wire::serializeJobResult(Times), payloadWithRecord(1, 0, 1, 2),
          wire::serializeJobResult(Real)};
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
