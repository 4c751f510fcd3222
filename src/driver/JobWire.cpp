//===- JobWire.cpp - JobResult wire serialization -------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "JobWire.h"

#include <array>
#include <bit>
#include <charconv>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

using namespace o2;

namespace {

class FieldWriter {
public:
  void put(std::string_view S) {
    Out += std::to_string(S.size());
    Out += ':';
    Out += S;
    Out += ',';
  }
  void putU64(uint64_t V) { put(std::to_string(V)); }
  std::string take() { return std::move(Out); }

private:
  std::string Out;
};

class FieldReader {
public:
  explicit FieldReader(std::string_view Data) : Data(Data) {}

  /// The next field's bytes, as a view into the payload.
  bool getView(std::string_view &Out) {
    size_t Colon = Data.find(':', Pos);
    if (Colon == std::string_view::npos || Colon == Pos ||
        Colon - Pos > 19)
      return fail();
    uint64_t Len = 0;
    for (size_t I = Pos; I < Colon; ++I) {
      if (Data[I] < '0' || Data[I] > '9')
        return fail();
      Len = Len * 10 + uint64_t(Data[I] - '0');
    }
    size_t Start = Colon + 1;
    // Overflow-safe: Len may be a corrupt 19-digit value.
    if (Start >= Data.size() || Len >= Data.size() - Start ||
        Data[Start + Len] != ',')
      return fail();
    Out = Data.substr(Start, Len);
    Pos = Start + Len + 1;
    return true;
  }

  bool get(std::string &Out) {
    std::string_view V;
    if (!getView(V))
      return false;
    Out.assign(V);
    return true;
  }

  bool getU64(uint64_t &V) {
    std::string_view S;
    if (!getView(S))
      return false;
    auto [End, EC] = std::from_chars(S.data(), S.data() + S.size(), V);
    return (EC == std::errc() && End == S.data() + S.size()) || fail();
  }

  /// The next field, which must be exactly \p Size bytes long.
  bool getFixed(std::string_view &Out, uint64_t Size) {
    return (getView(Out) && Out.size() == Size) || fail();
  }

  /// A list length: at most MaxListLen, and no more elements than the
  /// rest of the payload could hold (each takes at least one field of
  /// three bytes), so a corrupt count cannot force a huge allocation.
  bool getCount(uint64_t &N) {
    return (getU64(N) && N <= wire::MaxListLen &&
            N <= (Data.size() - Pos) / 3) ||
           fail();
  }

  bool ok() const { return Ok; }
  bool atEnd() const { return Pos == Data.size(); }

private:
  bool fail() {
    Ok = false;
    return false;
  }

  std::string_view Data;
  size_t Pos = 0;
  bool Ok = true;
};

/// Appends the low \p Bytes bytes of \p V, least significant first.
void putLE(char *&Out, uint64_t V, unsigned Bytes) {
  for (unsigned B = 0; B < Bytes; ++B)
    *Out++ = char(V >> (8 * B));
}

/// Reads \p Bytes bytes as a little-endian integer.
uint64_t getLE(const char *&In, unsigned Bytes) {
  uint64_t V = 0;
  for (unsigned B = 0; B < Bytes; ++B)
    V |= uint64_t(static_cast<unsigned char>(*In++)) << (8 * B);
  return V;
}

/// The times a payload carries, in order: the eight passes PTA to Escape
/// (the None slot is not sent), then the three driver stages.
template <typename ResultT> auto timesOf(ResultT &R) {
  std::array<decltype(&R.ParseMs), NumO2Phases - 1 + 3> T;
  for (unsigned K = 1; K < NumO2Phases; ++K)
    T[K - 1] = &R.PassMs[K];
  T[NumO2Phases - 1] = &R.ParseMs;
  T[NumO2Phases] = &R.CacheMs;
  T[NumO2Phases + 1] = &R.RecordMs;
  return T;
}

/// One deadlock cycle as it is packed: its lock names and how many
/// witnesses it takes, in order, from the witness section before it.
struct CycleRow {
  uint32_t Locks, NumWitnesses;
};

// The packed record layouts: members() ties a record's members in wire
// order, each packed as sizeof(member) little-endian bytes. The first
// Indices members are JobResult::Text indices, which decode only when
// below the table's size; a bool decodes only from 0 or 1.
template <typename RecT> struct Layout;
template <> struct Layout<RaceRecord> {
  static constexpr size_t Indices = 5;
  static auto members(auto &R) {
    return std::tie(R.Location, R.StmtA, R.FuncA, R.StmtB, R.FuncB,
                    R.Fingerprint, R.WriteA, R.WriteB);
  }
};
/// A deadlock witness: the text of one edge.
template <> struct Layout<uint32_t> {
  static constexpr size_t Indices = 1;
  static auto members(auto &W) { return std::tie(W); }
};
template <> struct Layout<CycleRow> {
  static constexpr size_t Indices = 1;
  static auto members(auto &C) { return std::tie(C.Locks, C.NumWitnesses); }
};
template <> struct Layout<OverSyncRecord> {
  static constexpr size_t Indices = 2;
  static auto members(auto &O) {
    return std::tie(O.Stmt, O.Function, O.Thread, O.NumAccesses);
  }
};
template <> struct Layout<RacerDRecord> {
  static constexpr size_t Indices = 3;
  static auto members(auto &R) {
    return std::tie(R.Location, R.First, R.Second, R.UnprotectedWrite);
  }
};

template <typename RecT> constexpr uint64_t recordBytes() {
  RecT Probe{};
  return std::apply([](const auto &...M) { return (sizeof(M) + ...); },
                    Layout<RecT>::members(Probe));
}

/// Writes \p Recs as one packed section: a count field, then one field
/// of recordBytes<RecT>() bytes per record.
template <typename RecT>
void putSection(FieldWriter &W, const std::vector<RecT> &Recs) {
  W.putU64(Recs.size());
  std::string Packed(Recs.size() * recordBytes<RecT>(), '\0');
  char *Out = Packed.data();
  for (const RecT &Rec : Recs)
    std::apply(
        [&Out](const auto &...M) { (putLE(Out, uint64_t(M), sizeof(M)), ...); },
        Layout<RecT>::members(Rec));
  W.put(Packed);
}

/// Reads a section written by putSection into \p Recs. False when the
/// packed field is not exactly the count times recordBytes<RecT>() bytes,
/// when an index is not below \p TableSize, or when a bool is not 0 or 1.
template <typename RecT>
bool getSection(FieldReader &Rd, size_t TableSize, std::vector<RecT> &Recs) {
  uint64_t Count = 0;
  std::string_view Packed;
  if (!Rd.getCount(Count) || !Rd.getFixed(Packed, Count * recordBytes<RecT>()))
    return false;
  Recs.resize(Count);
  const char *In = Packed.data();
  auto Get = [&In, TableSize](auto &M, bool IsIndex) {
    using T = std::remove_reference_t<decltype(M)>;
    uint64_t V = getLE(In, sizeof(M));
    M = static_cast<T>(V);
    return IsIndex ? V < TableSize : !std::is_same_v<T, bool> || V <= 1;
  };
  auto GetAll = [&Get](auto &...M) {
    size_t I = 0;
    return (Get(M, I++ < Layout<RecT>::Indices) && ...);
  };
  for (RecT &Rec : Recs)
    if (!std::apply(GetAll, Layout<RecT>::members(Rec)))
      return false;
  return true;
}

const JobStatus AllStatuses[] = {
    JobStatus::Clean,         JobStatus::Races,      JobStatus::Done,
    JobStatus::Timeout,       JobStatus::ParseError, JobStatus::VerifyError,
    JobStatus::InternalError, JobStatus::Crashed,    JobStatus::OOM,
};

} // namespace

std::string wire::serializeJobResult(const JobResult &R) {
  FieldWriter W;
  W.put(jobStatusName(R.Status));
  W.put(R.Phase);
  W.put(R.Error);
  W.put(R.Signal);
  W.putU64(R.Degraded ? 1 : 0);
  W.putU64(R.DegradedConfigFP);
  W.putU64(R.Retries);
  W.putU64(uint64_t(R.Cache));
  // The times as one field of IEEE-754 doubles, bit for bit.
  auto Times = timesOf(R);
  std::string TimeBytes(Times.size() * 8, '\0');
  char *Out = TimeBytes.data();
  for (const double *T : Times)
    putLE(Out, std::bit_cast<uint64_t>(*T), 8);
  W.put(TimeBytes);

  const auto &Counters = R.Stats.counters();
  W.putU64(Counters.size());
  for (const auto &[Name, Value] : Counters) {
    W.put(Name);
    W.putU64(Value);
  }

  W.putU64(R.Text.size());
  for (const std::string &S : R.Text)
    W.put(S);

  putSection(W, R.Races);
  std::vector<uint32_t> Witnesses;
  std::vector<CycleRow> Cycles;
  for (const DeadlockRecord &D : R.Deadlocks) {
    Witnesses.insert(Witnesses.end(), D.Witnesses.begin(), D.Witnesses.end());
    Cycles.push_back({D.Locks, uint32_t(D.Witnesses.size())});
  }
  putSection(W, Witnesses);
  putSection(W, Cycles);
  putSection(W, R.OverSyncs);
  putSection(W, R.RacerDWarnings);
  return W.take();
}

bool wire::deserializeJobResult(std::string_view Payload, JobResult &R) {
  FieldReader Rd(Payload);

  std::string Status;
  if (!Rd.get(Status))
    return false;
  bool Known = false;
  for (JobStatus S : AllStatuses)
    if (Status == jobStatusName(S)) {
      R.Status = S;
      Known = true;
    }
  if (!Known)
    return false;

  uint64_t Degraded = 0, DegradedFP = 0, Retries = 0, Cache = 0;
  if (!Rd.get(R.Phase) || !Rd.get(R.Error) || !Rd.get(R.Signal) ||
      !Rd.getU64(Degraded) || !Rd.getU64(DegradedFP) ||
      !Rd.getU64(Retries) || !Rd.getU64(Cache) || Cache > 2)
    return false;
  R.Degraded = Degraded != 0;
  R.DegradedConfigFP = DegradedFP;
  R.Retries = unsigned(Retries);
  R.Cache = JobResult::CacheOutcome(Cache);

  auto Times = timesOf(R);
  std::string_view TimeBytes;
  if (!Rd.getFixed(TimeBytes, Times.size() * 8))
    return false;
  const char *In = TimeBytes.data();
  for (double *T : Times)
    *T = std::bit_cast<double>(getLE(In, 8));

  uint64_t N = 0;
  if (!Rd.getCount(N))
    return false;
  for (uint64_t I = 0; I < N; ++I) {
    std::string Name;
    uint64_t Value = 0;
    if (!Rd.get(Name) || !Rd.getU64(Value))
      return false;
    R.Stats.set(Name, Value);
  }

  if (!Rd.getCount(N))
    return false;
  R.Text.resize(N);
  for (std::string &S : R.Text)
    if (!Rd.get(S))
      return false;

  // Every index must name a table entry: a damaged record is a rejected
  // payload, never an out-of-range read when the report is written.
  size_t Size = R.Text.size();
  std::vector<uint32_t> Witnesses;
  std::vector<CycleRow> Cycles;
  if (!getSection(Rd, Size, R.Races) || !getSection(Rd, Size, Witnesses) ||
      !getSection(Rd, Size, Cycles))
    return false;
  size_t Taken = 0;
  for (const CycleRow &C : Cycles) {
    if (C.NumWitnesses > Witnesses.size() - Taken)
      return false;
    auto First = Witnesses.begin() + Taken;
    R.Deadlocks.push_back({C.Locks, {First, First + C.NumWitnesses}});
    Taken += C.NumWitnesses;
  }
  return Taken == Witnesses.size() && getSection(Rd, Size, R.OverSyncs) &&
         getSection(Rd, Size, R.RacerDWarnings) && Rd.ok() && Rd.atEnd();
}
