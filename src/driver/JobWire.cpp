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

  template <typename T> bool getNumber(T &V) {
    std::string_view S;
    if (!getView(S))
      return false;
    auto [End, EC] = std::from_chars(S.data(), S.data() + S.size(), V);
    return (EC == std::errc() && End == S.data() + S.size()) || fail();
  }
  bool getU64(uint64_t &V) { return getNumber(V); }

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

const JobStatus AllStatuses[] = {
    JobStatus::Clean,       JobStatus::Races,         JobStatus::Timeout,
    JobStatus::ParseError,  JobStatus::VerifyError,   JobStatus::InternalError,
    JobStatus::Crashed,     JobStatus::OOM,
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

  W.putU64(R.Races.size());
  for (const RaceRecord &Rc : R.Races) {
    W.put(Rc.Fingerprint);
    W.put(Rc.Location);
    W.put(Rc.StmtA);
    W.put(Rc.FuncA);
    W.putU64(Rc.WriteA);
    W.put(Rc.StmtB);
    W.put(Rc.FuncB);
    W.putU64(Rc.WriteB);
  }

  W.putU64(R.Deadlocks.size());
  for (const DeadlockRecord &D : R.Deadlocks) {
    W.put(D.Locks);
    W.putU64(D.Witnesses.size());
    for (const std::string &Wit : D.Witnesses)
      W.put(Wit);
  }

  W.putU64(R.OverSyncs.size());
  for (const OverSyncRecord &O : R.OverSyncs) {
    W.put(O.Stmt);
    W.put(O.Function);
    W.putU64(O.Thread);
    W.putU64(O.NumAccesses);
  }

  W.putU64(R.Text.size());
  for (const std::string &S : R.Text)
    W.put(S);

  // The records, packed: one field of RacerDRecordBytes per record.
  W.putU64(R.RacerDWarnings.size());
  std::string Packed(R.RacerDWarnings.size() * wire::RacerDRecordBytes, '\0');
  Out = Packed.data();
  for (const RacerDRecord &Rw : R.RacerDWarnings) {
    putLE(Out, Rw.UnprotectedWrite, 1);
    for (uint32_t V : {Rw.Location, Rw.First, Rw.Second})
      putLE(Out, V, 4);
  }
  W.put(Packed);
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
  R.Races.resize(N);
  for (RaceRecord &Rc : R.Races) {
    uint64_t WA = 0, WB = 0;
    if (!Rd.get(Rc.Fingerprint) || !Rd.get(Rc.Location) ||
        !Rd.get(Rc.StmtA) || !Rd.get(Rc.FuncA) || !Rd.getU64(WA) ||
        !Rd.get(Rc.StmtB) || !Rd.get(Rc.FuncB) || !Rd.getU64(WB))
      return false;
    Rc.WriteA = WA != 0;
    Rc.WriteB = WB != 0;
  }

  if (!Rd.getCount(N))
    return false;
  R.Deadlocks.resize(N);
  for (DeadlockRecord &D : R.Deadlocks) {
    uint64_t NumWit = 0;
    if (!Rd.get(D.Locks) || !Rd.getCount(NumWit))
      return false;
    D.Witnesses.resize(NumWit);
    for (std::string &Wit : D.Witnesses)
      if (!Rd.get(Wit))
        return false;
  }

  if (!Rd.getCount(N))
    return false;
  R.OverSyncs.resize(N);
  for (OverSyncRecord &O : R.OverSyncs) {
    uint64_t Thread = 0, Accesses = 0;
    if (!Rd.get(O.Stmt) || !Rd.get(O.Function) || !Rd.getU64(Thread) ||
        !Rd.getU64(Accesses))
      return false;
    O.Thread = unsigned(Thread);
    O.NumAccesses = unsigned(Accesses);
  }

  if (!Rd.getCount(N))
    return false;
  R.Text.resize(N);
  for (std::string &S : R.Text)
    if (!Rd.get(S))
      return false;

  // The packed field must hold exactly N records, and every index must
  // name a table entry: a damaged record is a rejected payload, never an
  // out-of-range read when the report is written.
  std::string_view Packed;
  if (!Rd.getCount(N) || !Rd.getFixed(Packed, N * wire::RacerDRecordBytes))
    return false;
  R.RacerDWarnings.resize(N);
  In = Packed.data();
  for (RacerDRecord &Rw : R.RacerDWarnings) {
    uint64_t Kind = getLE(In, 1);
    Rw.Location = uint32_t(getLE(In, 4));
    Rw.First = uint32_t(getLE(In, 4));
    Rw.Second = uint32_t(getLE(In, 4));
    if (Kind > 1 || Rw.Location >= R.Text.size() ||
        Rw.First >= R.Text.size() || Rw.Second >= R.Text.size())
      return false;
    Rw.UnprotectedWrite = Kind != 0;
  }

  return Rd.ok() && Rd.atEnd();
}
