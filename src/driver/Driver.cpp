//===- Driver.cpp - Parallel batch-analysis driver ----------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Driver/Driver.h"

#include "DriverSupport.h"
#include "o2/Driver/ResultCache.h"
#include "o2/IR/Parser.h"
#include "o2/IR/Printer.h"
#include "o2/IR/Verifier.h"
#include "o2/Support/Casting.h"
#include "o2/Support/FNV1a.h"
#include "o2/Support/FaultInjector.h"
#include "o2/Support/JSONWriter.h"
#include "o2/Support/OutputStream.h"
#include "o2/Support/ThreadPool.h"
#include "o2/Support/Timer.h"
#include "o2/Support/U64Map.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string_view>
#include <type_traits>
#include <unordered_map>

using namespace o2;
using driver::toHex16;

const char *o2::jobStatusName(JobStatus S) {
  switch (S) {
  case JobStatus::Clean:
    return "clean";
  case JobStatus::Races:
    return "races";
  case JobStatus::Done:
    return "done";
  case JobStatus::Timeout:
    return "timeout";
  case JobStatus::ParseError:
    return "parse-error";
  case JobStatus::VerifyError:
    return "verify-error";
  case JobStatus::InternalError:
    return "internal-error";
  case JobStatus::Crashed:
    return "crashed";
  case JobStatus::OOM:
    return "oom";
  }
  return "unknown";
}

bool o2::jobCompleted(JobStatus S) {
  return S == JobStatus::Clean || S == JobStatus::Races ||
         S == JobStatus::Done;
}

int o2::exitCodeFor(JobStatus S) {
  switch (S) {
  case JobStatus::Clean:
  case JobStatus::Done:
    return ExitClean;
  case JobStatus::Races:
    return ExitRacesFound;
  case JobStatus::Timeout:
  case JobStatus::ParseError:
  case JobStatus::VerifyError:
  case JobStatus::InternalError:
  case JobStatus::Crashed:
  case JobStatus::OOM:
    return ExitError;
  }
  return ExitError;
}

int BatchResult::exitCode() const {
  int Code = ExitClean;
  for (const JobResult &J : Jobs)
    Code = std::max(Code, exitCodeFor(J.Status));
  return Code;
}

//===----------------------------------------------------------------------===//
// Race fingerprints
//===----------------------------------------------------------------------===//

/// Symbolic description of \p Loc that survives reordering of unrelated
/// statements: no abstract-object numbers or statement IDs, only names
/// and statement text (class, field, allocating function, allocation
/// statement, loop-duplication index).
static std::string stableLocation(const MemLoc &Loc, const PTAResult &PTA) {
  if (Loc.isGlobal())
    return "@" + PTA.module().globals()[Loc.globalId()]->getName();
  const ObjInfo &O = PTA.object(Loc.object());
  std::string Out(O.AllocatedType ? O.AllocatedType->getName()
                                   : StringRef("obj"));
  if (O.Alloc) {
    Out += "@" + O.Alloc->getFunction()->getName();
    Out += ":" + printStmt(*O.Alloc);
  }
  if (O.DupIndex)
    Out += "#" + std::to_string(O.DupIndex);
  FieldKey FK = Loc.fieldKey();
  if (FK == ArrayElemKey)
    return Out + "[*]";
  if (const Field *F = fieldOf(Loc, PTA))
    return Out + "." + F->getName();
  return Out + ".f" + std::to_string(FK - 1);
}

//===----------------------------------------------------------------------===//
// Job execution
//===----------------------------------------------------------------------===//

namespace {
/// Lets the text-interning map look strings up by view, without a copy.
struct TextHash {
  using is_transparent = void;
  size_t operator()(std::string_view S) const {
    return std::hash<std::string_view>()(S);
  }
};

/// The one interner behind a job's records: each distinct string enters
/// JobResult::Text once, in first-use order, and records hold indices.
/// Statements map to the ids of their text and of their function's name
/// through a dense memo by Stmt::getId(), so each is printed and looked
/// up once.
class TextTable {
public:
  TextTable(std::vector<std::string> &Text, const Module &M)
      : Text(Text), Stmts(M.numStmts()) {}

  uint32_t intern(std::string_view S) {
    auto It = Ids.find(S);
    if (It != Ids.end())
      return It->second;
    uint32_t Id = uint32_t(Text.size());
    Text.emplace_back(S);
    Ids.emplace(Text.back(), Id);
    return Id;
  }

  /// printStmt(*S), or "" for a null \p S.
  uint32_t stmt(const Stmt *S) {
    uint32_t &Id = memo(S).Text;
    if (Id == None)
      Id = S ? intern(printStmt(*S)) : intern("");
    return Id;
  }

  /// The name of \p S's function, or "" for a null \p S.
  uint32_t function(const Stmt *S) {
    uint32_t &Id = memo(S).Function;
    if (Id == None)
      Id = intern(S ? std::string_view(S->getFunction()->getName()) : "");
    return Id;
  }

private:
  static constexpr uint32_t None = ~0u;
  struct StmtIds {
    uint32_t Text = None, Function = None;
  };

  StmtIds &memo(const Stmt *S) { return S ? Stmts[S->getId()] : NullStmt; }

  std::vector<std::string> &Text;
  std::unordered_map<std::string, uint32_t, TextHash, std::equal_to<>> Ids;
  std::vector<StmtIds> Stmts;
  StmtIds NullStmt;
};
} // namespace

/// The fingerprint of \p R: FNV-1a of its location and its two access
/// descriptors ("<stmt>|<function>|R", or "|W" for a write) in
/// lexicographic order, joined by \x1f. It is invariant under the
/// statement-ID renumbering that reordering unrelated code causes and
/// under which access the detector happened to list first. \p Buf is
/// scratch space.
static uint64_t raceFingerprint(const RaceRecord &R,
                                const std::vector<std::string> &Text,
                                std::string &Buf) {
  auto AppendDesc = [&](uint32_t Stmt, uint32_t Func, bool Write) {
    Buf += Text[Stmt];
    Buf += '|';
    Buf += Text[Func];
    Buf += Write ? "|W" : "|R";
  };
  Buf.clear();
  AppendDesc(R.StmtA, R.FuncA, R.WriteA);
  size_t LenA = Buf.size();
  AppendDesc(R.StmtB, R.FuncB, R.WriteB);
  std::string_view DescA = std::string_view(Buf).substr(0, LenA);
  std::string_view DescB = std::string_view(Buf).substr(LenA);
  if (DescB < DescA)
    std::swap(DescA, DescB);
  return fnv1a(DescB, fnv1aField(DescA, fnv1aField(Text[R.Location])));
}

/// Per-pass wall-clock and the merged counters of every pass \p AM ran.
static void harvestPasses(const AnalysisManager &AM, JobResult &R) {
  for (unsigned K = 1; K < NumO2Phases; ++K)
    R.PassMs[K] = AM.seconds(static_cast<O2Phase>(K)) * 1000.0;
  R.Stats = AM.stats();
}

void o2::recordJob(AnalysisManager &AM, JobResult &R) {
  harvestPasses(AM, R);
  TextTable T(R.Text, AM.module());
  if (AM.ran(O2Phase::Detect)) {
    const PTAResult &PTA = AM.getPTA();
    U64Map<uint32_t> LocIds; // MemLoc key -> text id
    std::string Buf;
    R.Races.reserve(AM.getRaces().races().size());
    for (const Race &Rc : AM.getRaces().races()) {
      RaceRecord Rec;
      auto [Loc, New] = LocIds.tryEmplace(Rc.Loc.key());
      if (New)
        *Loc = T.intern(stableLocation(Rc.Loc, PTA));
      Rec.Location = *Loc;
      Rec.StmtA = T.stmt(Rc.A);
      Rec.FuncA = T.function(Rc.A);
      Rec.WriteA = Rc.AIsWrite;
      Rec.StmtB = T.stmt(Rc.B);
      Rec.FuncB = T.function(Rc.B);
      Rec.WriteB = Rc.BIsWrite;
      Rec.Fingerprint = raceFingerprint(Rec, R.Text, Buf);
      R.Races.push_back(Rec);
    }
  }
  if (AM.ran(O2Phase::Deadlock))
    for (const DeadlockCycle &C : AM.getDeadlocks().cycles()) {
      DeadlockRecord D;
      std::string Locks;
      for (uint32_t L : C.Locks) {
        if (!Locks.empty())
          Locks += ',';
        Locks += "lock" + std::to_string(L);
      }
      D.Locks = T.intern(Locks);
      for (const LockOrderEdge &E : C.Witnesses)
        D.Witnesses.push_back(T.intern(
            "thread " + std::to_string(E.Thread) + " acquires lock" +
            std::to_string(E.Inner) + " while holding lock" +
            std::to_string(E.Outer) + " at '" + R.Text[T.stmt(E.Acquire)] +
            "'"));
      R.Deadlocks.push_back(std::move(D));
    }
  if (AM.ran(O2Phase::OverSync))
    for (const OverSyncRegion &Reg : AM.getOverSync().regions())
      R.OverSyncs.push_back({T.stmt(Reg.Acquire), T.function(Reg.Acquire),
                             Reg.Thread, Reg.NumAccesses});
  if (AM.ran(O2Phase::RacerD)) {
    const RacerDReport &RD = AM.getRacerD();
    std::vector<uint32_t> LocIds(RD.locations().size(), ~0u);
    R.RacerDWarnings.reserve(RD.warnings().size());
    for (const RacerDWarning &W : RD.warnings()) {
      uint32_t &Loc = LocIds[W.Location];
      if (Loc == ~0u)
        Loc = T.intern(RD.location(W));
      R.RacerDWarnings.push_back(
          {W.WarningKind == RacerDWarning::Kind::UnprotectedWrite, Loc,
           T.stmt(W.A), T.stmt(W.B)});
    }
  }

  if (AM.cancelled()) {
    R.Status = JobStatus::Timeout;
    R.Phase = phaseName(AM.cancelledIn());
  } else if (!AM.ran(O2Phase::Detect)) {
    R.Status = JobStatus::Done;
  } else {
    R.Status = R.Races.empty() ? JobStatus::Clean : JobStatus::Races;
  }
}

JobResult o2::runOneJob(const JobSpec &Spec, const BatchOptions &Opts) {
  JobResult R;
  R.Name = Spec.Name;
  R.Analyses = Opts.Analyses;

  // @module-scoped fault specs count only this job's hits, which keeps
  // injected faults deterministic at any --jobs=N.
  FaultInjector::JobScope FaultScope(Spec.Name);

  // Worker-side progress markers; also tracked locally so error records
  // can name the stage the job was in.
  std::string LastStage;
  auto Stage = [&Opts, &LastStage](const char *S) {
    LastStage = S;
    if (Opts.StageHook)
      Opts.StageHook(S);
  };
  Stage("setup");

  ResultCache Cache(Opts.CacheDir);
  bool HaveKey = false;
  uint64_t ContentHash = 0, ConfigFP = 0;

  // Hoisted out of the try so the catch blocks can harvest partial
  // timings and statistics (declaration order matters: AM borrows M and
  // Deadline, so AM must be destroyed first).
  std::unique_ptr<Module> M;
  CancellationToken Deadline;
  std::unique_ptr<AnalysisManager> AM;
  auto Harvest = [&R, &AM] {
    if (!AM)
      return;
    try {
      harvestPasses(*AM, R);
    } catch (...) {
      // Partial telemetry is best-effort; the status already tells the
      // story.
    }
  };

  // Driver-stage stopwatch: Charge adds the time since the last charge
  // to one stage.
  Timer Clock;
  auto Charge = [&Clock](double &StageMs) {
    StageMs += Clock.millis();
    Clock.reset();
  };

  try {
    std::string Source;
    if (!Spec.Profile) {
      Source = Spec.Source;
      if (Source.empty() && !Spec.Path.empty()) {
        bool Ok = false;
        Source = readFile(Spec.Path, Ok);
        if (!Ok) {
          R.Status = JobStatus::ParseError;
          R.Error = "cannot read '" + Spec.Path + "'";
          return R;
        }
      }
    }

    // Warm-cache lookup, keyed purely on content: the raw source bytes
    // for text jobs (before parsing — a hit skips the parse too), the
    // printed module for generated workloads. The config half of the key
    // folds in the requested analyses, every result-affecting option and
    // each pass's version (see analysisSetFingerprint).
    if (Cache.enabled()) {
      ConfigFP = analysisSetFingerprint(Opts.Analyses, Opts.Config);
      if (Spec.Profile) {
        M = generateWorkload(*Spec.Profile);
        Charge(R.ParseMs);
        ContentHash = ResultCache::contentHash(printModule(*M));
      } else {
        Charge(R.ParseMs);
        ContentHash = ResultCache::contentHash(Source);
      }
      HaveKey = true;
      JobResult Cached;
      bool Hit = Cache.lookup(ContentHash, ConfigFP, Cached);
      Charge(R.CacheMs);
      if (Hit) {
        Cached.Name = Spec.Name;
        Cached.Analyses = Opts.Analyses;
        Cached.Cache = JobResult::CacheOutcome::Hit;
        Cached.CacheMs = R.CacheMs;
        return Cached;
      }
      R.Cache = JobResult::CacheOutcome::Miss;
    }

    if (!M) {
      Stage("parse");
      FaultInjector::hit("parse");
      if (Spec.Profile) {
        M = generateWorkload(*Spec.Profile);
      } else {
        std::string Err;
        M = parseModule(Source, Err,
                        Spec.Name.empty() ? "module" : Spec.Name);
        if (!M) {
          R.Status = JobStatus::ParseError;
          R.Error = Err;
          Charge(R.ParseMs);
          return R;
        }
      }
    }

    Stage("verify");
    std::vector<std::string> Errors;
    bool Verified = verifyModule(*M, Errors);
    Charge(R.ParseMs);
    if (!Verified) {
      R.Status = JobStatus::VerifyError;
      R.Error = Errors.empty() ? "module failed verification" : Errors.front();
      if (Errors.size() > 1)
        R.Error += " (+" + std::to_string(Errors.size() - 1) + " more)";
      return R;
    }

    // The deadline clock starts here: parsing is I/O-bound and cheap, the
    // analysis phases are where pathological modules blow up.
    if (Opts.DeadlineMs)
      Deadline.setDeadlineMs(double(Opts.DeadlineMs));

    // One manager per job: the requested detectors all read the same
    // PTA and SHB results, computed once. Each pass's start goes to the
    // progress hook so a crash mid-pass can be attributed to it (the
    // isolated worker forwards these as pipe markers).
    FaultInjector::hit("alloc");
    AM = std::make_unique<AnalysisManager>(
        *M, Opts.Config, Opts.DeadlineMs ? &Deadline : nullptr,
        [&Stage](O2Phase Ph) { Stage(phaseName(Ph)); });
    AM->run(Opts.Analyses);
    Clock.reset();
    recordJob(*AM, R);
    Charge(R.RecordMs);

    // Only settled results are worth replaying; timeouts and errors must
    // re-run on the next fleet (store() also refuses anything else).
    if (HaveKey && R.Status != JobStatus::Timeout) {
      Cache.store(ContentHash, ConfigFP, R);
      Charge(R.CacheMs);
    }
  } catch (const std::bad_alloc &) {
    // Allocation failure is its own status: under a --mem-limit-mb cap
    // this *is* the OOM record, and in-process it tells the operator to
    // give the job more memory rather than chase a bug.
    R.Status = JobStatus::OOM;
    R.Error = "out of memory";
    R.Phase = LastStage;
    Harvest();
  } catch (const std::exception &E) {
    R.Status = JobStatus::InternalError;
    R.Error = E.what();
    R.Phase = LastStage;
    Harvest();
  } catch (...) {
    R.Status = JobStatus::InternalError;
    R.Error = "unknown exception";
    R.Phase = LastStage;
    Harvest();
  }
  return R;
}

BatchResult o2::runBatch(const std::vector<JobSpec> &Specs,
                         const BatchOptions &Opts) {
  BatchResult R;
  R.Jobs.resize(Specs.size());
  {
    // Preallocated result slots: workers write disjoint elements, so the
    // only synchronization needed is the pool's own wait().
    ThreadPool Pool(Opts.Jobs);
    for (size_t I = 0; I < Specs.size(); ++I)
      Pool.submit([&R, &Specs, &Opts, I] {
        R.Jobs[I] = Opts.Isolate == IsolationMode::Process
                        ? runOneJobIsolated(Specs[I], Opts)
                        : runOneJob(Specs[I], Opts);
      });
    Pool.wait();
  }
  // Deterministic report order regardless of worker interleaving: by
  // name, ties broken by submission order (stable sort).
  std::stable_sort(
      R.Jobs.begin(), R.Jobs.end(),
      [](const JobResult &A, const JobResult &B) { return A.Name < B.Name; });

  uint64_t TotalRaces = 0;
  for (const JobResult &J : R.Jobs) {
    R.Summary.add(std::string("jobs.") + jobStatusName(J.Status));
    R.Summary.merge(J.Stats);
    TotalRaces += J.Races.size();
    // Cache telemetry stays out of Summary: the summary is printed into
    // the JSONL aggregate record, which must be byte-identical between
    // cold and warm runs.
    if (J.Cache == JobResult::CacheOutcome::Hit)
      ++R.CacheHits;
    else if (J.Cache == JobResult::CacheOutcome::Miss)
      ++R.CacheMisses;
  }
  R.Summary.set("jobs.total", R.Jobs.size());
  R.Summary.set("races.total", TotalRaces);
  return R;
}

//===----------------------------------------------------------------------===//
// Baseline diff
//===----------------------------------------------------------------------===//

/// Reads the JSON string starting at \p Pos (the opening quote),
/// un-escaping as it goes. Returns false on malformed input.
static bool readJSONString(const std::string &S, size_t &Pos,
                           std::string &Out) {
  if (Pos >= S.size() || S[Pos] != '"')
    return false;
  ++Pos;
  Out.clear();
  while (Pos < S.size()) {
    char C = S[Pos++];
    if (C == '"')
      return true;
    if (C == '\\' && Pos < S.size()) {
      char E = S[Pos++];
      switch (E) {
      case 'n':
        Out += '\n';
        break;
      case 't':
        Out += '\t';
        break;
      case 'r':
        Out += '\r';
        break;
      case 'u':
        Out += '?';
        Pos = std::min(S.size(), Pos + 4);
        break;
      default:
        Out += E;
      }
    } else {
      Out += C;
    }
  }
  return false;
}

Baseline o2::loadBaseline(const std::string &JSONLContent) {
  Baseline B;
  size_t LineStart = 0;
  while (LineStart < JSONLContent.size()) {
    size_t LineEnd = JSONLContent.find('\n', LineStart);
    if (LineEnd == std::string::npos)
      LineEnd = JSONLContent.size();
    std::string Line = JSONLContent.substr(LineStart, LineEnd - LineStart);
    LineStart = LineEnd + 1;

    size_t P = Line.find("\"module\":");
    if (P == std::string::npos)
      continue; // aggregate record or junk
    P += 9;
    std::string ModuleName;
    if (!readJSONString(Line, P, ModuleName))
      continue;
    std::set<std::string> &FPs = B[ModuleName];
    for (size_t Q = Line.find("\"fingerprint\":"); Q != std::string::npos;
         Q = Line.find("\"fingerprint\":", Q)) {
      Q += 14;
      std::string FP;
      if (!readJSONString(Line, Q, FP))
        break;
      FPs.insert(FP);
    }
  }
  return B;
}

void o2::applyBaseline(BatchResult &R, const Baseline &B) {
  uint64_t NumNew = 0, NumUnchanged = 0, NumFixed = 0;
  for (JobResult &J : R.Jobs) {
    auto It = B.find(J.Name);
    const std::set<std::string> *Base = It == B.end() ? nullptr : &It->second;
    std::set<std::string> Current;
    for (RaceRecord &Rc : J.Races) {
      std::string FP = toHex16(Rc.Fingerprint);
      if (Base && Base->count(FP)) {
        Rc.DiffStatus = RaceRecord::Diff::Unchanged;
        ++NumUnchanged;
      } else {
        Rc.DiffStatus = RaceRecord::Diff::New;
        ++NumNew;
      }
      Current.insert(std::move(FP));
    }
    J.FixedRaces.clear();
    if (Base)
      for (const std::string &FP : *Base)
        if (!Current.count(FP)) {
          J.FixedRaces.push_back(FP); // set order: already sorted
          ++NumFixed;
        }
  }
  R.Summary.set("diff.new", NumNew);
  R.Summary.set("diff.unchanged", NumUnchanged);
  R.Summary.set("diff.fixed", NumFixed);
}

//===----------------------------------------------------------------------===//
// Reports
//===----------------------------------------------------------------------===//

uint64_t o2::printJobRecord(const JobResult &J, OutputStream &OS,
                            bool IncludeTimings) {
  JSONWriter W(OS);
  W.beginObject();
  W.attribute("module", J.Name);
  W.attribute("status", jobStatusName(J.Status));
  if (!J.Analyses.empty())
    W.attribute("analyses", J.Analyses.str());
  if (!J.Phase.empty())
    W.attribute("phase", J.Phase);
  if (!J.Error.empty())
    W.attribute("error", J.Error);
  if (!J.Signal.empty())
    W.attribute("signal", J.Signal);
  if (IncludeTimings) {
    for (unsigned K = 1; K < NumO2Phases; ++K)
      W.attribute(std::string("time.") +
                      phaseName(static_cast<O2Phase>(K)) + "-ms",
                  J.PassMs[K]);
    W.attribute("time.parse-ms", J.ParseMs);
    W.attribute("time.cache-ms", J.CacheMs);
    W.attribute("time.record-ms", J.RecordMs);
    W.attribute("time.total-ms", J.totalMs());
  }
  // Each Text string is quoted and escaped once, however many records
  // name it, into one buffer; a record is then a few appends of
  // precomputed pieces.
  std::string QuotedText;
  std::vector<size_t> Ends(J.Text.size());
  for (size_t I = 0; I < J.Text.size(); ++I) {
    JSONWriter::quote(QuotedText, J.Text[I]);
    Ends[I] = QuotedText.size();
  }
  auto Quoted = [&](uint32_t I) {
    size_t Begin = I ? Ends[I - 1] : 0;
    return std::string_view(QuotedText).substr(Begin, Ends[I] - Begin);
  };

  if (J.Analyses.contains(O2Phase::Detect)) {
    W.key("races");
    W.beginArray();
    constexpr std::string_view Diff[] = {"", R"(,"diff":"new")",
                                         R"(,"diff":"unchanged")"};
    auto Bool = [](bool B) { return std::string_view(B ? "true" : "false"); };
    for (const RaceRecord &Rc : J.Races) {
      char FP[16];
      toHex16(Rc.Fingerprint, FP);
      W.rawValue({R"({"fingerprint":")", std::string_view(FP, 16),
                  R"(","location":)", Quoted(Rc.Location),
                  Diff[size_t(Rc.DiffStatus)], R"(,"first":{"stmt":)",
                  Quoted(Rc.StmtA), R"(,"function":)", Quoted(Rc.FuncA),
                  R"(,"write":)", Bool(Rc.WriteA), R"(},"second":{"stmt":)",
                  Quoted(Rc.StmtB), R"(,"function":)", Quoted(Rc.FuncB),
                  R"(,"write":)", Bool(Rc.WriteB), "}}"});
    }
    W.endArray();
  }
  if (J.Analyses.contains(O2Phase::Deadlock)) {
    W.key("deadlocks");
    W.beginArray();
    for (const DeadlockRecord &D : J.Deadlocks) {
      W.beginObject();
      W.key("locks");
      W.rawValue(Quoted(D.Locks));
      W.key("witnesses");
      W.beginArray();
      for (uint32_t Wit : D.Witnesses)
        W.rawValue(Quoted(Wit));
      W.endArray();
      W.endObject();
    }
    W.endArray();
  }
  if (J.Analyses.contains(O2Phase::OverSync)) {
    W.key("oversync");
    W.beginArray();
    for (const OverSyncRecord &O : J.OverSyncs)
      W.rawValue({R"({"stmt":)", Quoted(O.Stmt), R"(,"function":)",
                  Quoted(O.Function), R"(,"thread":)",
                  std::to_string(O.Thread), R"(,"accesses":)",
                  std::to_string(O.NumAccesses), "}"});
    W.endArray();
  }
  if (J.Analyses.contains(O2Phase::RacerD)) {
    W.key("racerd");
    W.beginArray();
    for (const RacerDRecord &Rw : J.RacerDWarnings) {
      std::string_view Prefix =
          Rw.UnprotectedWrite
              ? R"({"kind":"unprotected-write","location":)"
              : R"({"kind":"read-write","location":)";
      bool HasSecond = !J.Text[Rw.Second].empty();
      W.rawValue({Prefix, Quoted(Rw.Location), R"(,"first":)",
                  Quoted(Rw.First), HasSecond ? R"(,"second":)" : "",
                  HasSecond ? Quoted(Rw.Second) : "", "}"});
    }
    W.endArray();
  }
  if (!J.FixedRaces.empty()) {
    W.key("fixed");
    W.beginArray();
    for (const std::string &FP : J.FixedRaces)
      W.value(FP);
    W.endArray();
  }
  W.key("stats");
  W.beginObject();
  for (const auto &[Name, Value] : J.Stats.counters())
    W.attribute(Name, Value);
  W.endObject();
  W.endObject();
  OS << '\n';
  return W.bytesWritten() + 1;
}

uint64_t o2::printJSONL(const BatchResult &R, OutputStream &OS,
                        bool IncludeTimings) {
  uint64_t Bytes = 0;
  for (const JobResult &J : R.Jobs)
    Bytes += printJobRecord(J, OS, IncludeTimings);

  JSONWriter W(OS);
  W.beginObject();
  W.attribute("aggregate", true);
  W.attribute("exit-code", int64_t(R.exitCode()));
  W.key("summary");
  W.beginObject();
  for (const auto &[Name, Value] : R.Summary.counters())
    W.attribute(Name, Value);
  W.endObject();
  W.endObject();
  OS << '\n';
  return Bytes + W.bytesWritten() + 1;
}

void o2::printJobText(const JobResult &J, OutputStream &OS) {
  OS << "O2 analysis of '" << J.Name << "'";
  if (!J.Analyses.empty())
    OS << " (" << J.Analyses.str() << ")";
  OS << ": " << jobStatusName(J.Status);
  if (!J.Phase.empty())
    OS << " in " << J.Phase;
  if (!J.Error.empty())
    OS << ": " << J.Error;
  OS << '\n';
  if (!jobCompleted(J.Status) && J.Status != JobStatus::Timeout)
    return;

  // The pipeline summary, one line per pass whose counters are present.
  const StatisticRegistry &S = J.Stats;
  auto Has = [&S](const char *Name) { return S.counters().count(Name) != 0; };
  if (Has("pta.pointer-nodes"))
    OS << "  pointer analysis: " << S.get("pta.pointer-nodes") << " nodes, "
       << S.get("pta.objects") << " objects, " << S.get("pta.copy-edges")
       << " edges, " << S.get("pta.origins") << " origins\n";
  if (Has("osa.shared-locations"))
    OS << "  sharing: " << S.get("osa.shared-locations")
       << " shared locations over " << S.get("osa.shared-objects")
       << " objects, " << S.get("osa.shared-accesses") << "/"
       << S.get("osa.access-stmts") << " shared accesses\n";
  if (Has("race.threads"))
    OS << "  SHB: " << S.get("race.threads") << " threads, "
       << S.get("race.access-events") << " access events\n";

  if (J.Analyses.contains(O2Phase::Detect)) {
    OS << "\n==== " << uint64_t(J.Races.size()) << " race(s) ====\n";
    for (const RaceRecord &Rc : J.Races)
      OS << "race on " << J.Text[Rc.Location] << ":\n"
         << "  " << (Rc.WriteA ? "write" : "read ") << " '"
         << J.Text[Rc.StmtA] << "' in " << J.Text[Rc.FuncA] << '\n'
         << "  " << (Rc.WriteB ? "write" : "read ") << " '"
         << J.Text[Rc.StmtB] << "' in " << J.Text[Rc.FuncB] << '\n';
  }
  if (J.Analyses.contains(O2Phase::Deadlock)) {
    OS << "\n==== " << uint64_t(J.Deadlocks.size())
       << " potential deadlock(s) ====\n";
    for (const DeadlockRecord &D : J.Deadlocks) {
      OS << "lock cycle: " << J.Text[D.Locks] << '\n';
      for (uint32_t Wit : D.Witnesses)
        OS << "  " << J.Text[Wit] << '\n';
    }
  }
  if (J.Analyses.contains(O2Phase::OverSync)) {
    OS << "\n==== " << uint64_t(J.OverSyncs.size())
       << " over-synchronized region(s) (of "
       << S.get("oversync.regions-checked") << " checked) ====\n";
    for (const OverSyncRecord &O : J.OverSyncs) {
      OS << "lock region";
      if (!J.Text[O.Stmt].empty())
        OS << " at '" << J.Text[O.Stmt] << "' in " << J.Text[O.Function];
      OS << " guards only origin-local data (" << uint64_t(O.NumAccesses)
         << " access(es))\n";
    }
  }
  if (J.Analyses.contains(O2Phase::RacerD)) {
    OS << "\n==== RacerD-like: " << uint64_t(J.RacerDWarnings.size())
       << " warning(s), " << S.get("racerd.potential-races")
       << " potential race(s) ====\n";
    for (const RacerDRecord &Rw : J.RacerDWarnings) {
      if (Rw.UnprotectedWrite)
        OS << "unprotected write to " << J.Text[Rw.Location] << ": '"
           << J.Text[Rw.First] << "'\n";
      else
        OS << "read/write race on " << J.Text[Rw.Location] << ": '"
           << J.Text[Rw.First] << "' vs '" << J.Text[Rw.Second] << "'\n";
    }
  }
  if (J.Analyses.contains(O2Phase::Escape))
    OS << "\nescape analysis: " << S.get("escape.objects")
       << " escaped objects, " << S.get("escape.shared-accesses") << "/"
       << S.get("escape.access-stmts") << " shared accesses\n";
}

void o2::printBatchSummary(const BatchResult &R, OutputStream &OS) {
  OS << "==== batch: " << uint64_t(R.Jobs.size()) << " module(s), "
     << R.Summary.get("races.total") << " race(s), exit "
     << int64_t(R.exitCode()) << " ====\n";
  for (const JobResult &J : R.Jobs) {
    OS << "  " << J.Name << ": " << jobStatusName(J.Status);
    if (J.Status == JobStatus::Races)
      OS << " (" << uint64_t(J.Races.size()) << ")";
    if (J.Status == JobStatus::Timeout)
      OS << " (in " << J.Phase << ")";
    if (J.Status == JobStatus::Crashed) {
      OS << " (" << (J.Signal.empty() ? "?" : J.Signal.c_str());
      if (!J.Phase.empty())
        OS << " in " << J.Phase;
      OS << ")";
    }
    if (!J.Error.empty())
      OS << ": " << J.Error;
    OS << '\n';
  }
  if (R.Summary.get("diff.new") || R.Summary.get("diff.unchanged") ||
      R.Summary.get("diff.fixed"))
    OS << "  diff: " << R.Summary.get("diff.new") << " new, "
       << R.Summary.get("diff.unchanged") << " unchanged, "
       << R.Summary.get("diff.fixed") << " fixed\n";
  if (R.CacheHits || R.CacheMisses)
    OS << "  cache: " << R.CacheHits << " hit(s), " << R.CacheMisses
       << " miss(es)\n";
  if (R.EmitBytes) {
    char Line[64];
    std::snprintf(Line, sizeof(Line), "  emit: %.1f ms, %.1f MB\n", R.EmitMs,
                  double(R.EmitBytes) / 1e6);
    OS << Line;
  }
}

//===----------------------------------------------------------------------===//
// CLI
//===----------------------------------------------------------------------===//

std::string o2::readFile(const std::string &Path, bool &Ok) {
  Ok = false;
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return {};
  std::string Content;
  char Buf[64 * 1024];
  for (size_t N; (N = std::fread(Buf, 1, sizeof(Buf), F)) > 0;)
    Content.append(Buf, N);
  Ok = !std::ferror(F);
  std::fclose(F);
  return Content;
}

bool o2::parseUnsignedFlag(const std::string &Arg, uint64_t &Out,
                           std::string &Err, uint64_t Max) {
  size_t Eq = Arg.find('=');
  std::string Flag = Arg.substr(0, Eq);
  std::string Text = Eq == std::string::npos ? "" : Arg.substr(Eq + 1);
  const char *End = Text.data() + Text.size();
  uint64_t V = 0;
  auto [Ptr, EC] = std::from_chars(Text.data(), End, V);
  if (EC == std::errc::result_out_of_range ||
      (EC == std::errc() && Ptr == End && V > Max)) {
    Err = "value '" + Text + "' for " + Flag + " is out of range (max " +
          std::to_string(Max) + ")";
    return false;
  }
  // from_chars takes no '+' and, for unsigned types, no '-'.
  if (EC != std::errc() || Ptr != End) {
    Err = "invalid value '" + Text + "' for " + Flag +
          ": expected an unsigned integer";
    return false;
  }
  Out = V;
  return true;
}

namespace {
/// Looks \p Value up among one flag's spellings.
template <typename E>
bool lookupSpelling(std::initializer_list<std::pair<std::string_view, E>> Table,
                    std::string_view Value, E &Out) {
  for (const auto &[Spelling, V] : Table)
    if (Value == Spelling) {
      Out = V;
      return true;
    }
  return false;
}
} // namespace

std::optional<std::string> o2::parsePipelineFlag(const std::string &Arg,
                                                 O2Config &Config,
                                                 AnalysisSet &Analyses) {
  size_t Eq = Arg.find('=');
  if (Eq == std::string::npos)
    return std::nullopt;
  std::string_view Flag = std::string_view(Arg).substr(0, Eq);
  std::string_view Value = std::string_view(Arg).substr(Eq + 1);
  auto Invalid = [&](const char *Expected) {
    return "invalid value '" + std::string(Value) + "' for " +
           std::string(Flag) + ": expected " + Expected;
  };
  if (Flag == "--ctx") {
    if (!lookupSpelling<ContextKind>({{"0-ctx", ContextKind::Insensitive},
                                      {"insensitive", ContextKind::Insensitive},
                                      {"cfa", ContextKind::KCallsite},
                                      {"k-cfa", ContextKind::KCallsite},
                                      {"obj", ContextKind::KObject},
                                      {"k-obj", ContextKind::KObject},
                                      {"origin", ContextKind::Origin}},
                                     Value, Config.PTA.Kind))
      return Invalid("0-ctx, insensitive, cfa, k-cfa, obj, k-obj or origin");
    return "";
  }
  if (Flag == "--k") {
    uint64_t K = 0;
    std::string Err;
    if (!parseUnsignedFlag(Arg, K, Err,
                           std::numeric_limits<decltype(Config.PTA.K)>::max()))
      return Err;
    if (K == 0)
      return Invalid("at least 1");
    Config.PTA.K = static_cast<decltype(Config.PTA.K)>(K);
    return "";
  }
  if (Flag == "--race-hb") {
    if (!lookupSpelling<RaceHBKind>({{"index", RaceHBKind::Index},
                                     {"naive", RaceHBKind::Naive}},
                                    Value, Config.Detector.HB))
      return Invalid("index or naive");
    return "";
  }
  if (Flag == "--analyses") {
    std::string Err;
    if (!parseAnalysisSet(std::string(Value), Analyses, Err))
      return "invalid value '" + std::string(Value) + "' for --analyses: " +
             Err;
    return "";
  }
  return std::nullopt;
}

static void printBatchUsage(OutputStream &OS) {
  OS << "usage: o2batch [options] <file.oir | directory>...\n"
     << "\n"
     << "Runs the O2 pipeline over every module of a corpus on a\n"
     << "work-stealing thread pool and emits a JSONL report (one record\n"
     << "per module plus an aggregate; see docs/DRIVER.md).\n"
     << "\n"
     << "  --jobs=N          worker threads (default: hardware "
        "concurrency)\n"
     << "  --analyses=LIST   comma-separated analyses per job: race, "
        "deadlock, oversync,\n"
     << "                    racerd, escape, osa, or 'all' (default: "
        "osa,race); shared\n"
     << "                    passes (pta, shb) are computed once per "
        "module\n"
     << "  --cache-dir=DIR   warm result cache keyed by module content + "
        "config\n"
     << "                    fingerprint; unchanged jobs replay identical "
        "records\n"
     << "  --deadline-ms=N   per-job analysis budget; overruns become "
        "'timeout' records\n"
     << "  --isolate=M       job containment: none (default) or process "
        "(one forked\n"
     << "                    sandboxed worker per job; crashes become "
        "'crashed' records)\n"
     << "  --mem-limit-mb=N  worker address-space cap (process isolation); "
        "overruns\n"
     << "                    become 'oom' records\n"
     << "  --kill-after-ms=N hard SIGTERM->SIGKILL for stuck workers "
        "(default: derived\n"
     << "                    from --deadline-ms)\n"
     << "  --inject-fault=S  arm a deterministic fault, "
        "point[@module]:nth[:action]\n"
     << "                    (testing; see --fault-points)\n"
     << "  --fault-points    list the named fault points and exit\n"
     << "  --out=FILE        write the JSONL report to FILE (default: "
        "stdout)\n"
     << "  --baseline=FILE   diff against a previous JSONL report "
        "(new/unchanged/fixed)\n"
     << "  --timings         include wall-clock phase timings "
        "(non-deterministic)\n"
     << "  --profile=NAME    add the named generated workload as a job "
        "(repeatable)\n"
     << "  --profiles=table5 add every benchmark profile as a job\n"
     << "  --ctx=K           context kind: 0-ctx, cfa, obj, origin "
        "(default: origin)\n"
     << "  --k=N             context depth for cfa/obj and origin-chain "
        "depth (default: 1)\n"
     << "  --race-hb=H       happens-before queries: index (default), or "
        "naive (the\n"
     << "                    pairwise BFS oracle)\n"
     << "  --quiet           no human-readable summary on stderr\n"
     << "\n"
     << "exit codes: 0 all clean or done, 1 races found, 2 any parse/"
        "verify/internal error or timeout\n";
}

int o2::runBatchCommand(const std::vector<std::string> &Args) {
  BatchOptions Opts;
  std::vector<std::string> Inputs;
  std::vector<std::string> ProfileNames;
  bool AllProfiles = false;
  bool Quiet = false;
  std::string OutPath, BaselinePath;

  for (const std::string &Arg : Args) {
    auto Value = [&Arg] { return Arg.substr(Arg.find('=') + 1); };
    auto Number = [&Arg](auto &Field) {
      using T = std::remove_reference_t<decltype(Field)>;
      uint64_t V = 0;
      std::string Err;
      if (!parseUnsignedFlag(Arg, V, Err, std::numeric_limits<T>::max())) {
        errs() << "o2batch: " << Err << "\n";
        return false;
      }
      Field = T(V);
      return true;
    };
    if (std::optional<std::string> Err =
            parsePipelineFlag(Arg, Opts.Config, Opts.Analyses)) {
      if (!Err->empty()) {
        errs() << "o2batch: " << *Err << "\n";
        return ExitError;
      }
    } else if (Arg == "--help" || Arg == "-h") {
      printBatchUsage(outs());
      return ExitClean;
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      if (!Number(Opts.Jobs))
        return ExitError;
    } else if (Arg.rfind("--cache-dir=", 0) == 0) {
      Opts.CacheDir = Value();
    } else if (Arg.rfind("--deadline-ms=", 0) == 0) {
      if (!Number(Opts.DeadlineMs))
        return ExitError;
    } else if (Arg.rfind("--isolate=", 0) == 0) {
      std::string V = Value();
      if (V == "process")
        Opts.Isolate = IsolationMode::Process;
      else if (V == "none")
        Opts.Isolate = IsolationMode::InProcess;
      else {
        errs() << "o2batch: unknown isolation mode '" << V << "'\n";
        return ExitError;
      }
    } else if (Arg.rfind("--mem-limit-mb=", 0) == 0) {
      if (!Number(Opts.MemLimitMB))
        return ExitError;
    } else if (Arg.rfind("--kill-after-ms=", 0) == 0) {
      if (!Number(Opts.HardKillMs))
        return ExitError;
    } else if (Arg.rfind("--inject-fault=", 0) == 0) {
      std::string Err;
      if (!FaultInjector::instance().armFromSpec(Value(), Err)) {
        errs() << "o2batch: " << Err << "\n";
        return ExitError;
      }
    } else if (Arg == "--fault-points") {
      for (const FaultPointInfo &P : FaultInjector::catalogue())
        outs() << P.Name << "  (" << P.Where << ")\n";
      return ExitClean;
    } else if (Arg == "--timings") {
      Opts.IncludeTimings = true;
    } else if (Arg.rfind("--out=", 0) == 0) {
      OutPath = Value();
    } else if (Arg.rfind("--baseline=", 0) == 0) {
      BaselinePath = Value();
    } else if (Arg.rfind("--profile=", 0) == 0) {
      ProfileNames.push_back(Value());
    } else if (Arg == "--profiles=table5") {
      AllProfiles = true;
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else if (Arg.rfind("--", 0) == 0) {
      errs() << "o2batch: unknown option '" << Arg << "'\n";
      printBatchUsage(errs());
      return ExitError;
    } else {
      Inputs.push_back(Arg);
    }
  }

  namespace fs = std::filesystem;
  std::vector<JobSpec> Specs;
  auto addFile = [&Specs](const fs::path &P) {
    JobSpec S;
    S.Name = P.stem().string();
    S.Path = P.string();
    Specs.push_back(std::move(S));
  };
  for (const std::string &In : Inputs) {
    std::error_code EC;
    if (fs::is_directory(In, EC)) {
      std::vector<fs::path> Files;
      for (const auto &Entry : fs::directory_iterator(In, EC))
        if (Entry.path().extension() == ".oir")
          Files.push_back(Entry.path());
      std::sort(Files.begin(), Files.end());
      for (const fs::path &P : Files)
        addFile(P);
    } else {
      addFile(fs::path(In));
    }
  }
  for (const std::string &PN : ProfileNames) {
    const WorkloadProfile *P = findProfile(PN);
    if (!P) {
      errs() << "o2batch: unknown profile '" << PN << "'\n";
      return ExitError;
    }
    JobSpec S;
    S.Name = P->Name;
    S.Profile = P;
    Specs.push_back(std::move(S));
  }
  if (AllProfiles)
    for (const WorkloadProfile &P : benchmarkProfiles()) {
      JobSpec S;
      S.Name = P.Name;
      S.Profile = &P;
      Specs.push_back(std::move(S));
    }
  if (Specs.empty()) {
    errs() << "o2batch: no inputs\n";
    printBatchUsage(errs());
    return ExitError;
  }

  BatchResult R = runBatch(Specs, Opts);

  if (!BaselinePath.empty()) {
    bool Ok = false;
    std::string Content = readFile(BaselinePath, Ok);
    if (!Ok) {
      errs() << "o2batch: cannot read baseline '" << BaselinePath << "'\n";
      return ExitError;
    }
    applyBaseline(R, loadBaseline(Content));
  }

  Timer Emit;
  if (!OutPath.empty()) {
    std::FILE *F = std::fopen(OutPath.c_str(), "wb");
    if (!F) {
      errs() << "o2batch: cannot write '" << OutPath << "'\n";
      return ExitError;
    }
    FileOutputStream FOS(F);
    R.EmitBytes = printJSONL(R, FOS, Opts.IncludeTimings);
    bool WriteFailed = std::ferror(F) != 0;
    if (std::fclose(F) != 0 || WriteFailed) {
      errs() << "o2batch: cannot write '" << OutPath << "'\n";
      return ExitError;
    }
  } else {
    R.EmitBytes = printJSONL(R, outs(), Opts.IncludeTimings);
    std::fflush(stdout);
  }
  R.EmitMs = Emit.millis();
  if (!Quiet)
    printBatchSummary(R, errs());
  return R.exitCode();
}
