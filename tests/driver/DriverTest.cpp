//===- DriverTest.cpp - Batch-analysis driver tests ---------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Covers the batch driver: job status classification, deterministic
// reports across worker counts and runs, per-job deadline degradation,
// per-phase cancellation, baseline diffing with reorder-stable
// fingerprints, and the shared exit-code convention.
//
//===----------------------------------------------------------------------===//

#include "o2/Driver/Driver.h"

#include "DriverSupport.h"
#include "ReportFacts.h"
#include "o2/Driver/ResultCache.h"
#include "o2/IR/Parser.h"
#include "o2/Support/FaultInjector.h"
#include "o2/Support/JSONWriter.h"
#include "o2/Support/OutputStream.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <thread>

// Address sanitizer reserves terabytes of shadow address space, which is
// incompatible with the RLIMIT_AS cap --mem-limit-mb installs, and it
// intercepts SIGSEGV/abort with its own reporting exit path. The
// affected cases are skipped or routed through sanitizer-proof actions
// (SIGKILL) instead.
#if defined(__SANITIZE_ADDRESS__)
#define O2_UNDER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define O2_UNDER_ASAN 1
#endif
#endif
#ifndef O2_UNDER_ASAN
#define O2_UNDER_ASAN 0
#endif

using namespace o2;

namespace {

const char *RacyProgram = R"(
  class T {
    method run() { var x: int; @g = x; }
  }
  global g: int;
  func main() {
    var t: T;
    var x: int;
    t = new T;
    spawn t.run();
    x = @g;
  }
)";

const char *CleanProgram = R"(
  class T { method run() { var x: int; } }
  func main() {
    var t: T;
    t = new T;
    spawn t.run();
  }
)";

JobSpec sourceSpec(std::string Name, std::string Source) {
  JobSpec S;
  S.Name = std::move(Name);
  S.Source = std::move(Source);
  return S;
}

std::string renderJSONL(const BatchResult &R) {
  std::string Buf;
  StringOutputStream OS(Buf);
  printJSONL(R, OS);
  return Buf;
}

TEST(DriverTest, StatusClassification) {
  std::vector<JobSpec> Specs = {
      sourceSpec("clean", CleanProgram),
      sourceSpec("racy", RacyProgram),
      sourceSpec("broken", "class {"),
      sourceSpec("headless", "func helper() { }"), // no main
  };
  BatchResult R = runBatch(Specs);
  ASSERT_EQ(R.Jobs.size(), 4u);
  // Sorted by name.
  EXPECT_EQ(R.Jobs[0].Name, "broken");
  EXPECT_EQ(R.Jobs[1].Name, "clean");
  EXPECT_EQ(R.Jobs[2].Name, "headless");
  EXPECT_EQ(R.Jobs[3].Name, "racy");

  EXPECT_EQ(R.Jobs[0].Status, JobStatus::ParseError);
  EXPECT_NE(R.Jobs[0].Error.find(":"), std::string::npos)
      << "parse diagnostics carry a position: " << R.Jobs[0].Error;
  EXPECT_EQ(R.Jobs[1].Status, JobStatus::Clean);
  EXPECT_TRUE(R.Jobs[1].Races.empty());
  EXPECT_EQ(R.Jobs[2].Status, JobStatus::VerifyError);
  EXPECT_NE(R.Jobs[2].Error.find("main"), std::string::npos)
      << R.Jobs[2].Error;
  EXPECT_EQ(R.Jobs[3].Status, JobStatus::Races);
  EXPECT_EQ(R.Jobs[3].Races.size(), 1u);
  EXPECT_EQ(R.Jobs[3].Text[R.Jobs[3].Races[0].Location], "@g");

  EXPECT_EQ(R.Summary.get("jobs.total"), 4u);
  EXPECT_EQ(R.Summary.get("jobs.clean"), 1u);
  EXPECT_EQ(R.Summary.get("jobs.races"), 1u);
  EXPECT_EQ(R.Summary.get("jobs.parse-error"), 1u);
  EXPECT_EQ(R.Summary.get("jobs.verify-error"), 1u);
  EXPECT_EQ(R.Summary.get("races.total"), 1u);
  EXPECT_EQ(R.exitCode(), ExitError);
}

TEST(DriverTest, DeterministicAcrossWorkerCountsAndRuns) {
  std::vector<JobSpec> Specs;
  for (int I = 0; I < 6; ++I)
    Specs.push_back(sourceSpec("racy" + std::to_string(I), RacyProgram));
  Specs.push_back(sourceSpec("clean", CleanProgram));

  BatchOptions Serial;
  Serial.Jobs = 1;
  BatchOptions Wide;
  Wide.Jobs = 4;

  std::string Golden = renderJSONL(runBatch(Specs, Serial));
  EXPECT_EQ(renderJSONL(runBatch(Specs, Wide)), Golden);
  EXPECT_EQ(renderJSONL(runBatch(Specs, Wide)), Golden);
  EXPECT_EQ(renderJSONL(runBatch(Specs, Serial)), Golden);

  // One JSONL record per job plus the aggregate.
  size_t Lines = 0;
  for (char C : Golden)
    Lines += C == '\n';
  EXPECT_EQ(Lines, Specs.size() + 1);
}

TEST(DriverTest, DeadlineTimeoutIsIsolatedPerJob) {
  // Both jobs get a deadline the tiny racy module meets whatever the
  // build's speed, sanitizers included. On entering "pta" the heavy job
  // ("telegram", the heaviest generated workload) sleeps past it, so the
  // solver's first poll cancels it after it has allocated its nodes. The
  // progress hook tells the jobs apart by a fault armed for "heavy" alone,
  // on a point this cacheless batch never reaches.
  constexpr uint64_t DeadlineMs = 1000;
  struct Disarm {
    ~Disarm() { FaultInjector::instance().disarm(); }
  } Guard;
  std::string Err;
  ASSERT_TRUE(FaultInjector::instance().armFromSpec(
      "cache.read@heavy:*:throw", Err))
      << Err;
  auto InHeavyJob = [] {
    try {
      FaultInjector::hit("cache.read");
    } catch (const std::runtime_error &) {
      return true;
    }
    return false;
  };

  const WorkloadProfile *Heavy = findProfile("telegram");
  ASSERT_NE(Heavy, nullptr);
  JobSpec HeavySpec;
  HeavySpec.Name = "heavy";
  HeavySpec.Profile = Heavy;
  std::vector<JobSpec> Specs = {HeavySpec, sourceSpec("tiny", RacyProgram)};

  BatchOptions Opts;
  Opts.Jobs = 2;
  Opts.DeadlineMs = DeadlineMs;
  Opts.StageHook = [&InHeavyJob](const std::string &Stage) {
    if (Stage == "pta" && InHeavyJob())
      std::this_thread::sleep_for(std::chrono::milliseconds(DeadlineMs + 1));
  };
  BatchResult R = runBatch(Specs, Opts);
  ASSERT_EQ(R.Jobs.size(), 2u);

  const JobResult &HeavyJob = R.Jobs[0];
  EXPECT_EQ(HeavyJob.Name, "heavy");
  EXPECT_EQ(HeavyJob.Status, JobStatus::Timeout);
  EXPECT_EQ(HeavyJob.Phase, "pta");
  // Partial statistics survive: the solver got far enough to allocate.
  EXPECT_GT(HeavyJob.Stats.get("pta.pointer-nodes"), 0u);
  EXPECT_EQ(HeavyJob.Stats.get("pta.cancelled"), 1u);

  const JobResult &TinyJob = R.Jobs[1];
  EXPECT_EQ(TinyJob.Status, JobStatus::Races);
  EXPECT_EQ(TinyJob.Races.size(), 1u);

  EXPECT_EQ(R.Summary.get("jobs.timeout"), 1u);
  EXPECT_EQ(R.exitCode(), ExitError);
}

TEST(DriverTest, PreCancelledTokenStopsEveryPhase) {
  std::string Err;
  auto M = parseModule(RacyProgram, Err);
  ASSERT_TRUE(M) << Err;

  CancellationToken Cancelled;
  Cancelled.cancel();

  // Every pass entry point takes the token as its last argument. PTA
  // stops and flags its (partial) result.
  EXPECT_TRUE(runPointerAnalysis(*M, PTAOptions(), &Cancelled)->cancelled());

  // The later passes, fed complete inputs, each poll the token themselves.
  auto PTA = runPointerAnalysis(*M, PTAOptions());
  ASSERT_FALSE(PTA->cancelled());
  SharingResult Sharing = runSharingAnalysis(*PTA);
  SHBGraph SHB = buildSHBGraph(*PTA, SHBOptions(), &Sharing);
  ASSERT_FALSE(SHB.cancelled());
  EXPECT_TRUE(runSharingAnalysis(*PTA, &Cancelled).cancelled());
  EXPECT_TRUE(
      buildSHBGraph(*PTA, SHBOptions(), &Sharing, &Cancelled).cancelled());
  RaceReport Report =
      detectRaces(*PTA, SHB, Sharing, RaceDetectorOptions(), &Cancelled);
  EXPECT_TRUE(Report.cancelled());
  EXPECT_EQ(Report.stats().get("race.cancelled"), 1u);
  EXPECT_TRUE(detectDeadlocks(*PTA, SHB, &Cancelled).cancelled());
  EXPECT_TRUE(detectOverSynchronization(Sharing, SHB, &Cancelled).cancelled());
  EXPECT_TRUE(runRacerDLike(*M, &Cancelled).cancelled());
  EXPECT_TRUE(runEscapeAnalysis(*PTA, &Cancelled).cancelled());

  // Through the manager: the pipeline dies in the first phase and the
  // phase is recorded.
  AnalysisManager A(*M, O2Config(), &Cancelled);
  EXPECT_FALSE(A.run(AnalysisSet::defaultSet()));
  EXPECT_TRUE(A.cancelled());
  EXPECT_EQ(A.cancelledIn(), O2Phase::PTA);
  EXPECT_STREQ(phaseName(A.cancelledIn()), "pta");
}

// Version 1: two independent races, on @a and on @b.
const char *BaselineV1 = R"(
  class T {
    method run() {
      var x: int;
      @a = x;
      @b = x;
    }
  }
  global a: int;
  global b: int;
  func main() {
    var t: T;
    var x: int;
    t = new T;
    spawn t.run();
    x = @a;
    x = @b;
  }
)";

// Version 2: unrelated code added and reordered (globals shuffled, a
// padding class and new locals inserted, statements moved), the @b race
// removed, a new race on @c introduced. The @a race is textually the
// same accesses — its fingerprint must survive all the reordering.
const char *BaselineV2 = R"(
  global c: int;
  global b: int;
  global a: int;
  class Pad { field p: int; }
  class T {
    method run() {
      var x: int;
      var y: int;
      @c = x;
      @a = x;
    }
  }
  func main() {
    var p: Pad;
    var t: T;
    var x: int;
    p = new Pad;
    x = p.p;
    t = new T;
    spawn t.run();
    x = @c;
    x = @a;
  }
)";

TEST(DriverTest, BaselineDiffWithReorderStableFingerprints) {
  BatchResult Before = runBatch({sourceSpec("m", BaselineV1)});
  ASSERT_EQ(Before.Jobs.size(), 1u);
  ASSERT_EQ(Before.Jobs[0].Races.size(), 2u);
  std::string FPA, FPB;
  const JobResult &V1 = Before.Jobs[0];
  for (const RaceRecord &Rc : V1.Races) {
    if (V1.Text[Rc.Location] == "@a")
      FPA = driver::toHex16(Rc.Fingerprint);
    if (V1.Text[Rc.Location] == "@b")
      FPB = driver::toHex16(Rc.Fingerprint);
  }
  ASSERT_FALSE(FPA.empty());
  ASSERT_FALSE(FPB.empty());
  EXPECT_NE(FPA, FPB);

  Baseline Base = loadBaseline(renderJSONL(Before));
  ASSERT_EQ(Base.count("m"), 1u);
  EXPECT_EQ(Base["m"].size(), 2u);
  EXPECT_TRUE(Base["m"].count(FPA));
  EXPECT_TRUE(Base["m"].count(FPB));

  BatchResult After = runBatch({sourceSpec("m", BaselineV2)});
  ASSERT_EQ(After.Jobs.size(), 1u);
  ASSERT_EQ(After.Jobs[0].Races.size(), 2u);
  applyBaseline(After, Base);

  const JobResult &V2 = After.Jobs[0];
  for (const RaceRecord &Rc : V2.Races) {
    if (V2.Text[Rc.Location] == "@a") {
      // Same accesses despite all the unrelated churn: unchanged.
      EXPECT_EQ(driver::toHex16(Rc.Fingerprint), FPA);
      EXPECT_EQ(Rc.DiffStatus, RaceRecord::Diff::Unchanged);
    } else {
      EXPECT_EQ(V2.Text[Rc.Location], "@c");
      EXPECT_EQ(Rc.DiffStatus, RaceRecord::Diff::New);
    }
  }
  ASSERT_EQ(After.Jobs[0].FixedRaces.size(), 1u);
  EXPECT_EQ(After.Jobs[0].FixedRaces[0], FPB);
  EXPECT_EQ(After.Summary.get("diff.new"), 1u);
  EXPECT_EQ(After.Summary.get("diff.unchanged"), 1u);
  EXPECT_EQ(After.Summary.get("diff.fixed"), 1u);

  // The diff annotations land in the JSONL report.
  std::string Report = renderJSONL(After);
  EXPECT_NE(Report.find("\"diff\":\"new\""), std::string::npos);
  EXPECT_NE(Report.find("\"diff\":\"unchanged\""), std::string::npos);
  EXPECT_NE(Report.find("\"fixed\":[\"" + FPB + "\"]"), std::string::npos);
}

TEST(DriverTest, ExitCodeConvention) {
  EXPECT_EQ(exitCodeFor(JobStatus::Clean), ExitClean);
  EXPECT_EQ(exitCodeFor(JobStatus::Races), ExitRacesFound);
  EXPECT_EQ(exitCodeFor(JobStatus::Done), ExitClean);
  EXPECT_EQ(exitCodeFor(JobStatus::Timeout), ExitError);
  EXPECT_EQ(exitCodeFor(JobStatus::ParseError), ExitError);
  EXPECT_EQ(exitCodeFor(JobStatus::VerifyError), ExitError);
  EXPECT_EQ(exitCodeFor(JobStatus::InternalError), ExitError);
  EXPECT_EQ(exitCodeFor(JobStatus::Crashed), ExitError);
  EXPECT_EQ(exitCodeFor(JobStatus::OOM), ExitError);

  // Aggregate: the worst job wins.
  EXPECT_EQ(runBatch({sourceSpec("c", CleanProgram)}).exitCode(), ExitClean);
  EXPECT_EQ(runBatch({sourceSpec("c", CleanProgram),
                      sourceSpec("r", RacyProgram)})
                .exitCode(),
            ExitRacesFound);
  EXPECT_EQ(runBatch({sourceSpec("c", CleanProgram),
                      sourceSpec("r", RacyProgram),
                      sourceSpec("x", "class {")})
                .exitCode(),
            ExitError);
}

std::string freshCacheDir(const char *Name) {
  std::string Dir = testing::TempDir() + "o2-drivertest-" + Name;
  std::filesystem::remove_all(Dir);
  return Dir;
}

TEST(DriverTest, AnalysesSelectSectionsAndStayDeterministic) {
  std::vector<JobSpec> Specs = {sourceSpec("racy", RacyProgram),
                                sourceSpec("clean", CleanProgram)};

  BatchOptions Opts;
  Opts.Analyses = {O2Phase::Detect, O2Phase::Deadlock, O2Phase::OverSync,
                   O2Phase::RacerD};
  Opts.Jobs = 1;
  BatchResult Narrow = runBatch(Specs, Opts);
  std::string Golden = renderJSONL(Narrow);

  // Byte-identical across worker counts, aux sections included.
  Opts.Jobs = 8;
  EXPECT_EQ(renderJSONL(runBatch(Specs, Opts)), Golden);
  EXPECT_NE(Golden.find("\"analyses\":\"race,deadlock,oversync,racerd\""),
            std::string::npos);
  EXPECT_NE(Golden.find("\"deadlocks\":"), std::string::npos);
  EXPECT_NE(Golden.find("\"oversync\":"), std::string::npos);
  EXPECT_NE(Golden.find("\"racerd\":"), std::string::npos);

  // The aux analyses produce their counters but never change the race
  // status or the exit code.
  ASSERT_EQ(Narrow.Jobs.size(), 2u);
  EXPECT_EQ(Narrow.Jobs[1].Status, JobStatus::Races);
  EXPECT_GT(Narrow.Jobs[1].Stats.get("racerd.warnings"), 0u);
  EXPECT_EQ(Narrow.exitCode(), ExitRacesFound);

  // The default request carries no aux sections.
  std::string Default = renderJSONL(runBatch(Specs));
  EXPECT_EQ(Default.find("\"deadlocks\":"), std::string::npos);
  EXPECT_EQ(Default.find("\"racerd\":"), std::string::npos);
}

TEST(DriverTest, RequestWithoutRaceCheckIsDone) {
  // A deadlock-only request never runs the race detector, so its status
  // cannot claim the module is race-free: it is "done", exit 0. The same
  // module under the default analyses still reports its race.
  std::vector<JobSpec> Specs = {sourceSpec("racy", RacyProgram)};
  BatchOptions Opts;
  Opts.Analyses = {O2Phase::Deadlock};
  BatchResult Deadlock = runBatch(Specs, Opts);
  ASSERT_EQ(Deadlock.Jobs.size(), 1u);
  EXPECT_EQ(Deadlock.Jobs[0].Status, JobStatus::Done);
  EXPECT_EQ(Deadlock.exitCode(), ExitClean);
  EXPECT_EQ(Deadlock.Summary.get("jobs.done"), 1u);
  std::string Report = renderJSONL(Deadlock);
  EXPECT_NE(Report.find(R"("status":"done")"), std::string::npos) << Report;
  std::string Summary;
  StringOutputStream OS(Summary);
  printBatchSummary(Deadlock, OS);
  EXPECT_NE(Summary.find("  racy: done\n"), std::string::npos) << Summary;

  BatchResult Default = runBatch(Specs);
  EXPECT_EQ(Default.Jobs[0].Status, JobStatus::Races);

  // A done result is a completed one: cached and replayed like the rest.
  Opts.CacheDir = freshCacheDir("done");
  BatchResult Cold = runBatch(Specs, Opts);
  EXPECT_EQ(Cold.CacheMisses, 1u);
  BatchResult Warm = runBatch(Specs, Opts);
  EXPECT_EQ(Warm.CacheHits, 1u);
  EXPECT_EQ(Warm.Jobs[0].Status, JobStatus::Done);
  EXPECT_EQ(renderJSONL(Warm), Report);
}

TEST(DriverTest, RecordWithoutRaceCheckHasNoRaceSection) {
  // The "races" key follows the request like the aux sections do: an
  // empty array would read as "checked, no races".
  std::vector<JobSpec> Specs = {sourceSpec("racy", RacyProgram)};
  BatchOptions Opts;
  Opts.Analyses = {O2Phase::Deadlock};
  std::string Report = renderJSONL(runBatch(Specs, Opts));
  EXPECT_EQ(Report.find(R"("races")"), std::string::npos) << Report;
  EXPECT_NE(Report.find(R"("analyses":"deadlock","deadlocks":[)"),
            std::string::npos)
      << Report;

  Opts.Analyses = {O2Phase::Detect, O2Phase::Deadlock};
  Report = renderJSONL(runBatch(Specs, Opts));
  EXPECT_NE(Report.find(R"("analyses":"race,deadlock","races":[{)"),
            std::string::npos)
      << Report;
}

TEST(DriverTest, WarmCacheReplaysIdenticalReports) {
  std::vector<JobSpec> Specs = {sourceSpec("racy", RacyProgram),
                                sourceSpec("clean", CleanProgram)};
  BatchOptions Opts;
  Opts.Analyses = AnalysisSet::all();
  Opts.CacheDir = freshCacheDir("warm");

  BatchResult Cold = runBatch(Specs, Opts);
  EXPECT_EQ(Cold.CacheHits, 0u);
  EXPECT_EQ(Cold.CacheMisses, 2u);
  // The RacerD section, the bulk of real entries, goes through the cache.
  ASSERT_EQ(Cold.Jobs[1].Name, "racy");
  EXPECT_FALSE(Cold.Jobs[1].RacerDWarnings.empty());
  EXPECT_NE(renderJSONL(Cold).find("\"racerd\":[{"), std::string::npos);

  BatchResult Warm = runBatch(Specs, Opts);
  EXPECT_EQ(Warm.CacheHits, 2u);
  EXPECT_EQ(Warm.CacheMisses, 0u);

  // The warm run replays byte-identical records — cache telemetry is
  // deliberately kept out of the JSONL.
  EXPECT_EQ(renderJSONL(Warm), renderJSONL(Cold));
  std::string Report = renderJSONL(Warm);
  EXPECT_EQ(Report.find("cache"), std::string::npos);

  // A different config fingerprint misses: same modules, new entries.
  BatchOptions Deeper = Opts;
  Deeper.Config.PTA.K = 2;
  BatchResult Cross = runBatch(Specs, Deeper);
  EXPECT_EQ(Cross.CacheHits, 0u);
  EXPECT_EQ(Cross.CacheMisses, 2u);

  // Renaming a job does not invalidate its entry (the key is content).
  std::vector<JobSpec> Renamed = {sourceSpec("renamed", RacyProgram)};
  BatchResult Moved = runBatch(Renamed, Opts);
  EXPECT_EQ(Moved.CacheHits, 1u);
  ASSERT_EQ(Moved.Jobs.size(), 1u);
  EXPECT_EQ(Moved.Jobs[0].Name, "renamed");
  EXPECT_EQ(Moved.Jobs[0].Races.size(), 1u);
}

TEST(DriverTest, ReportLargerThanTheStagingBufferIsIdenticalPerSink) {
  // One RacerD record whose statement text alone exceeds the JSON
  // writer's 64 KiB buffer, with escapes on both sides of the boundary,
  // plus small records around it.
  std::string Big(70 * 1024, 'x');
  for (size_t I = 0; I < Big.size(); I += 4099)
    Big[I] = I % 2 ? '"' : '\n';
  JobResult J;
  J.Name = "big";
  J.Status = JobStatus::Clean;
  J.Analyses = {O2Phase::RacerD};
  J.Text = {"T.f", "", Big, "a = b"};
  J.RacerDWarnings = {{false, 0, 3, 3}, {false, 0, 2, 3}, {true, 0, 3, 1}};
  BatchResult R;
  R.Jobs.push_back(J);

  std::string Expected;
  {
    StringOutputStream OS(Expected);
    JSONWriter W(OS);
    W.beginObject();
    W.attribute("kind", "read-write");
    W.attribute("location", "T.f");
    W.attribute("first", Big);
    W.attribute("second", "a = b");
    W.endObject();
  }

  std::string ViaString = renderJSONL(R);
  EXPECT_NE(ViaString.find(Expected), std::string::npos);
  // An unprotected write has no second statement.
  EXPECT_NE(ViaString.find(R"({"kind":"unprotected-write","location":"T.f",)"
                           R"("first":"a = b"})"),
            std::string::npos);
  EXPECT_GT(ViaString.size(), size_t(64 * 1024));

  std::FILE *F = std::tmpfile();
  ASSERT_NE(F, nullptr);
  {
    FileOutputStream OS(F);
    printJSONL(R, OS);
  }
  std::string ViaFile(size_t(std::ftell(F)), '\0');
  std::rewind(F);
  EXPECT_EQ(std::fread(ViaFile.data(), 1, ViaFile.size(), F),
            ViaFile.size());
  std::fclose(F);
  EXPECT_EQ(ViaFile, ViaString);
}

TEST(DriverTest, CorruptCacheEntriesDegradeToMisses) {
  std::vector<JobSpec> Specs = {sourceSpec("racy", RacyProgram)};
  BatchOptions Opts;
  Opts.Analyses = {O2Phase::Detect, O2Phase::Deadlock};
  Opts.CacheDir = freshCacheDir("corrupt");

  std::string Golden = renderJSONL(runBatch(Specs, Opts));

  // Truncate every entry: checksum fails, jobs re-run, report unchanged.
  for (const auto &E : std::filesystem::directory_iterator(Opts.CacheDir)) {
    std::ofstream Out(E.path(), std::ios::trunc | std::ios::binary);
    Out << "o2cache";
  }
  BatchResult Truncated = runBatch(Specs, Opts);
  EXPECT_EQ(Truncated.CacheHits, 0u);
  EXPECT_EQ(Truncated.CacheMisses, 1u);
  EXPECT_EQ(renderJSONL(Truncated), Golden);

  // Version skew: a valid-looking header from the future is a miss too.
  for (const auto &E : std::filesystem::directory_iterator(Opts.CacheDir)) {
    std::ofstream Out(E.path(), std::ios::trunc | std::ios::binary);
    Out << "o2cache 9999 0000000000000000\n";
  }
  BatchResult Skewed = runBatch(Specs, Opts);
  EXPECT_EQ(Skewed.CacheHits, 0u);
  EXPECT_EQ(renderJSONL(Skewed), Golden);

  // The re-run overwrote the damaged entries: warm again.
  BatchResult Healed = runBatch(Specs, Opts);
  EXPECT_EQ(Healed.CacheHits, 1u);
  EXPECT_EQ(renderJSONL(Healed), Golden);
}

TEST(DriverTest, TotalMsIncludesAuxAnalyses) {
  // The regression the manager fixed: totalMs used to sum only the four
  // core phases, silently dropping aux-analysis time.
  JobResult R;
  for (unsigned K = 1; K < NumO2Phases; ++K)
    R.ms(static_cast<O2Phase>(K)) = double(1u << (K - 1));
  EXPECT_DOUBLE_EQ(R.ms(O2Phase::PTA), 1.0);
  EXPECT_DOUBLE_EQ(R.ms(O2Phase::Escape), 128.0);
  EXPECT_DOUBLE_EQ(R.totalMs(), 255.0);

  BatchOptions Opts;
  Opts.Analyses = AnalysisSet::all();
  JobResult Live = runOneJob(sourceSpec("racy", RacyProgram), Opts);
  EXPECT_EQ(Live.Status, JobStatus::Races);
  double Sum = 0;
  for (unsigned K = 1; K < NumO2Phases; ++K) {
    O2Phase P = static_cast<O2Phase>(K);
    EXPECT_GE(Live.ms(P), 0.0) << phaseName(P);
    Sum += Live.ms(P);
  }
  EXPECT_EQ(Live.ms(O2Phase::None), 0.0);
  EXPECT_DOUBLE_EQ(Live.totalMs(), Sum);
  EXPECT_GT(Live.totalMs(), 0.0);
}

TEST(DriverTest, TimingsRecordKeySequence) {
  // Downstream tools read the --timings attributes by name; pin them and
  // their order.
  BatchOptions Opts;
  Opts.Analyses = AnalysisSet::all();
  BatchResult R = runBatch({sourceSpec("racy", RacyProgram)}, Opts);
  std::string Buf;
  StringOutputStream OS(Buf);
  printJSONL(R, OS, /*IncludeTimings=*/true);
  std::string Record = Buf.substr(0, Buf.find('\n'));
  std::vector<std::string> Keys;
  for (size_t Pos = Record.find("\"time."); Pos != std::string::npos;
       Pos = Record.find("\"time.", Pos + 1)) {
    size_t End = Record.find('"', Pos + 1);
    Keys.push_back(Record.substr(Pos + 1, End - Pos - 1));
  }
  EXPECT_EQ(Keys, (std::vector<std::string>{
                      "time.pta-ms", "time.osa-ms", "time.shb-ms",
                      "time.race-ms", "time.deadlock-ms", "time.oversync-ms",
                      "time.racerd-ms", "time.escape-ms", "time.parse-ms",
                      "time.cache-ms", "time.record-ms", "time.total-ms"}));
}

TEST(DriverTest, CacheHitReportsItsOwnCacheTime) {
  // A hit replays the stored pass, parse and record times but reports
  // the lookup it just did; the stage times do not count in the total.
  BatchOptions Opts;
  Opts.Analyses = AnalysisSet::all();
  Opts.CacheDir = freshCacheDir("stages");
  BatchResult Cold = runBatch({sourceSpec("racy", RacyProgram)}, Opts);
  BatchResult Warm = runBatch({sourceSpec("racy", RacyProgram)}, Opts);
  ASSERT_EQ(Warm.CacheHits, 1u);
  const JobResult &C = Cold.Jobs[0], &W = Warm.Jobs[0];
  EXPECT_GT(C.ParseMs, 0.0);
  EXPECT_GT(C.RecordMs, 0.0);
  EXPECT_GT(C.CacheMs, 0.0);
  EXPECT_EQ(W.PassMs, C.PassMs);
  EXPECT_EQ(W.ParseMs, C.ParseMs);
  EXPECT_EQ(W.RecordMs, C.RecordMs);
  EXPECT_GT(W.CacheMs, 0.0);
  double PassSum = 0;
  for (double Ms : C.PassMs)
    PassSum += Ms;
  EXPECT_EQ(C.totalMs(), PassSum);
}

TEST(DriverTest, StageTimesCrossTheWorkerPipe) {
  BatchOptions Opts;
  Opts.Isolate = IsolationMode::Process;
  BatchResult R = runBatch({sourceSpec("racy", RacyProgram)}, Opts);
  ASSERT_EQ(R.Jobs[0].Status, JobStatus::Races);
  EXPECT_GT(R.Jobs[0].ParseMs, 0.0);
  EXPECT_GT(R.Jobs[0].RecordMs, 0.0);
  EXPECT_EQ(R.Jobs[0].CacheMs, 0.0); // no --cache-dir
}

TEST(DriverTest, SummaryReportsEmitTelemetry) {
  BatchResult R = runBatch({sourceSpec("clean", CleanProgram)});
  std::string Report;
  StringOutputStream ReportOS(Report);
  uint64_t Bytes = printJSONL(R, ReportOS);
  EXPECT_EQ(Bytes, Report.size());

  auto Summary = [&R] {
    std::string Buf;
    StringOutputStream OS(Buf);
    printBatchSummary(R, OS);
    return Buf;
  };
  EXPECT_EQ(Summary().find("emit:"), std::string::npos);
  R.EmitMs = 1.5;
  R.EmitBytes = 2500000;
  EXPECT_NE(Summary().find("  emit: 1.5 ms, 2.5 MB\n"), std::string::npos);
}

TEST(DriverTest, DeadlineTimeoutNamesAuxPhase) {
  // RacerD has no dependencies, so with a RacerD-only request the first
  // pass the deadline can fire in is RacerD itself — the timeout record
  // must name the aux analysis, not "pta". The telegram workload keeps
  // RacerD busy for about 70ms (RelWithDebInfo on a 4-vCPU VM), far past
  // the 1ms budget.
  const WorkloadProfile *Heavy = findProfile("telegram");
  ASSERT_NE(Heavy, nullptr);
  JobSpec Spec;
  Spec.Name = "heavy";
  Spec.Profile = Heavy;

  BatchOptions Opts;
  Opts.Analyses = {O2Phase::RacerD};
  Opts.DeadlineMs = 1;
  Opts.CacheDir = freshCacheDir("timeout");
  BatchResult R = runBatch({Spec}, Opts);
  ASSERT_EQ(R.Jobs.size(), 1u);
  EXPECT_EQ(R.Jobs[0].Status, JobStatus::Timeout);
  EXPECT_EQ(R.Jobs[0].Phase, "racerd");

  // Timeouts are never cached: the re-run misses again.
  BatchResult Again = runBatch({Spec}, Opts);
  EXPECT_EQ(Again.CacheHits, 0u);
  EXPECT_EQ(Again.Jobs[0].Status, JobStatus::Timeout);
}

//===----------------------------------------------------------------------===//
// Crash containment: process isolation and fault injection. A job makes
// one attempt, and its record is the report.
//===----------------------------------------------------------------------===//

/// Every containment test arms faults on the process-wide injector, so
/// the fixture guarantees a clean slate on both sides.
class ContainmentTest : public testing::Test {
protected:
  void SetUp() override { FaultInjector::instance().disarm(); }
  void TearDown() override { FaultInjector::instance().disarm(); }

  void armOrDie(const std::string &Spec) {
    std::string Err;
    ASSERT_TRUE(FaultInjector::instance().armFromSpec(Spec, Err)) << Err;
  }
};

TEST_F(ContainmentTest, CrashedJobIsContainedUnderProcessIsolation) {
  // SIGKILL is uncatchable and sanitizer-proof: the worker dies mid-pass
  // with no chance to report, exactly like a real SIGSEGV in release.
  armOrDie("pass.race@boom:1:kill");

  BatchOptions Opts;
  Opts.Isolate = IsolationMode::Process;
  Opts.Jobs = 2;
  BatchResult R = runBatch(
      {sourceSpec("boom", RacyProgram), sourceSpec("ok", RacyProgram)}, Opts);
  ASSERT_EQ(R.Jobs.size(), 2u);

  const JobResult &Boom = R.Jobs[0];
  EXPECT_EQ(Boom.Name, "boom");
  EXPECT_EQ(Boom.Status, JobStatus::Crashed);
  EXPECT_EQ(Boom.Signal, "SIGKILL");
  EXPECT_EQ(Boom.Phase, "race") << "crash attributed to the dying pass";
  EXPECT_NE(Boom.Error.find("SIGKILL"), std::string::npos) << Boom.Error;

  // The sibling on the same pool is untouched.
  const JobResult &Ok = R.Jobs[1];
  EXPECT_EQ(Ok.Status, JobStatus::Races);
  EXPECT_EQ(Ok.Races.size(), 1u);

  EXPECT_EQ(R.Summary.get("jobs.crashed"), 1u);
  EXPECT_EQ(R.exitCode(), ExitError);

  std::string Report = renderJSONL(R);
  EXPECT_NE(Report.find("\"status\":\"crashed\""), std::string::npos);
  EXPECT_NE(Report.find("\"signal\":\"SIGKILL\""), std::string::npos);
  EXPECT_NE(Report.find("\"phase\":\"race\""), std::string::npos);
}

TEST_F(ContainmentTest, SignalAndSilentExitVariantsAreClassified) {
  BatchOptions Opts;
  Opts.Isolate = IsolationMode::Process;

  // A worker that vanishes without a result (exit code 13, no r: line).
  armOrDie("pass.race@gone:1:exit");
  JobResult Gone = runOneJobIsolated(sourceSpec("gone", RacyProgram), Opts);
  EXPECT_EQ(Gone.Status, JobStatus::Crashed);
  EXPECT_NE(Gone.Error.find("exited with code 13"), std::string::npos)
      << Gone.Error;
  EXPECT_TRUE(Gone.Signal.empty());

#if !O2_UNDER_ASAN
  // Real signals (ASan intercepts these with its own exit path).
  FaultInjector::instance().disarm();
  armOrDie("pass.race@sv:1:segv");
  JobResult Segv = runOneJobIsolated(sourceSpec("sv", RacyProgram), Opts);
  EXPECT_EQ(Segv.Status, JobStatus::Crashed);
  EXPECT_EQ(Segv.Signal, "SIGSEGV");
  EXPECT_EQ(Segv.Phase, "race");

  FaultInjector::instance().disarm();
  armOrDie("pass.race@ab:1:abort");
  JobResult Abort = runOneJobIsolated(sourceSpec("ab", RacyProgram), Opts);
  EXPECT_EQ(Abort.Status, JobStatus::Crashed);
  EXPECT_EQ(Abort.Signal, "SIGABRT");
#endif
}

TEST_F(ContainmentTest, ProcessIsolationMatchesInProcessReport) {
  // No faults: forked workers must reproduce the in-process report
  // byte for byte, across every status the wire format carries.
  std::vector<JobSpec> Specs = {sourceSpec("racy", RacyProgram),
                                sourceSpec("clean", CleanProgram),
                                sourceSpec("broken", "class {"),
                                sourceSpec("headless", "func helper() { }")};
  std::string Golden = renderJSONL(runBatch(Specs));

  BatchOptions Opts;
  Opts.Isolate = IsolationMode::Process;
  Opts.Jobs = 1;
  EXPECT_EQ(renderJSONL(runBatch(Specs, Opts)), Golden);
  Opts.Jobs = 4;
  EXPECT_EQ(renderJSONL(runBatch(Specs, Opts)), Golden);
}

TEST_F(ContainmentTest, CrashReportsAreDeterministicAcrossWorkerCounts) {
  // The @module scope pins the fault to one job, so the report is
  // byte-identical no matter how jobs interleave over workers.
  armOrDie("pass.race@boom:1:kill");

  std::vector<JobSpec> Specs = {
      sourceSpec("boom", RacyProgram), sourceSpec("a", RacyProgram),
      sourceSpec("b", CleanProgram), sourceSpec("c", RacyProgram)};

  BatchOptions Opts;
  Opts.Isolate = IsolationMode::Process;
  Opts.Jobs = 1;
  std::string Golden = renderJSONL(runBatch(Specs, Opts));
  EXPECT_NE(Golden.find("\"status\":\"crashed\""), std::string::npos);

  Opts.Jobs = 4;
  EXPECT_EQ(renderJSONL(runBatch(Specs, Opts)), Golden);
  EXPECT_EQ(renderJSONL(runBatch(Specs, Opts)), Golden);
}

TEST_F(ContainmentTest, HardKillContainsAStuckWorker) {
  // `hang` ignores cooperative deadlines — only the parent's SIGTERM /
  // SIGKILL escalation can reclaim the worker.
  armOrDie("pass.pta@stuck:1:hang");

  BatchOptions Opts;
  Opts.Isolate = IsolationMode::Process;
  Opts.HardKillMs = 300;
  BatchResult R = runBatch({sourceSpec("stuck", RacyProgram)}, Opts);
  ASSERT_EQ(R.Jobs.size(), 1u);
  EXPECT_EQ(R.Jobs[0].Status, JobStatus::Timeout);
  EXPECT_EQ(R.Jobs[0].Phase, "pta");
  EXPECT_NE(R.Jobs[0].Error.find("hard deadline"), std::string::npos)
      << R.Jobs[0].Error;
  EXPECT_EQ(R.Summary.get("jobs.timeout"), 1u);
}

TEST_F(ContainmentTest, RssCapOomYieldsOomRecordWithPartialStats) {
#if O2_UNDER_ASAN
  GTEST_SKIP() << "RLIMIT_AS is incompatible with ASan shadow memory";
#endif
  // `hog` allocates until allocation genuinely fails, so with the cap in
  // place the worker takes the real bad_alloc path and still manages to
  // report over the pipe (the hog releases its hoard first).
  armOrDie("pass.shb@cap:1:hog");

  BatchOptions Opts;
  Opts.Isolate = IsolationMode::Process;
  Opts.MemLimitMB = 512;
  Opts.Jobs = 2;
  BatchResult R = runBatch(
      {sourceSpec("cap", RacyProgram), sourceSpec("ok", RacyProgram)}, Opts);
  ASSERT_EQ(R.Jobs.size(), 2u);

  const JobResult &Cap = R.Jobs[0];
  EXPECT_EQ(Cap.Status, JobStatus::OOM);
  EXPECT_EQ(Cap.Error, "out of memory");
  EXPECT_EQ(Cap.Phase, "shb");
  // The phases that finished before the blow-up kept their statistics.
  EXPECT_GT(Cap.Stats.get("pta.pointer-nodes"), 0u);

  EXPECT_EQ(R.Jobs[1].Status, JobStatus::Races);
  EXPECT_EQ(R.Summary.get("jobs.oom"), 1u);
  EXPECT_EQ(R.exitCode(), ExitError);
}

TEST_F(ContainmentTest, BadAllocIsContainedEvenInProcess) {
  // Satellite robustness: without isolation, bad_alloc still becomes a
  // structured `oom` record instead of escaping the pool thread.
  armOrDie("alloc@oomjob:1:oom");
  BatchResult R = runBatch(
      {sourceSpec("ok", RacyProgram), sourceSpec("oomjob", RacyProgram)});
  ASSERT_EQ(R.Jobs.size(), 2u);
  EXPECT_EQ(R.Jobs[0].Status, JobStatus::Races);
  EXPECT_EQ(R.Jobs[1].Name, "oomjob");
  EXPECT_EQ(R.Jobs[1].Status, JobStatus::OOM);
  EXPECT_EQ(R.Jobs[1].Error, "out of memory");
  // The alloc point sits between verification and the first pass.
  EXPECT_EQ(R.Jobs[1].Phase, "verify");
  EXPECT_EQ(R.exitCode(), ExitError);

  // Mid-pipeline OOM keeps the partial statistics of finished phases.
  FaultInjector::instance().disarm();
  armOrDie("pass.osa@partial:1:oom");
  JobResult P = runOneJob(sourceSpec("partial", RacyProgram), BatchOptions());
  EXPECT_EQ(P.Status, JobStatus::OOM);
  EXPECT_EQ(P.Phase, "osa");
  EXPECT_GT(P.Stats.get("pta.pointer-nodes"), 0u);

  // The parser fault point maps to a contained internal error.
  FaultInjector::instance().disarm();
  armOrDie("parse@pf:1:throw");
  JobResult F = runOneJob(sourceSpec("pf", RacyProgram), BatchOptions());
  EXPECT_EQ(F.Status, JobStatus::InternalError);
  EXPECT_EQ(F.Phase, "parse");
  EXPECT_NE(F.Error.find("injected fault"), std::string::npos);
}

TEST_F(ContainmentTest, EveryPassFaultPointIsWired) {
  // One throw per pass point: the error is contained in-process and
  // attributed to exactly that pass.
  const struct {
    const char *Point;
    const char *Phase;
  } Cases[] = {
      {"pass.pta", "pta"},           {"pass.osa", "osa"},
      {"pass.shb", "shb"},           {"pass.race", "race"},
      {"pass.deadlock", "deadlock"}, {"pass.oversync", "oversync"},
      {"pass.racerd", "racerd"},     {"pass.escape", "escape"},
  };
  BatchOptions Opts;
  Opts.Analyses = AnalysisSet::all();
  for (const auto &C : Cases) {
    FaultInjector::instance().disarm();
    std::string Err;
    ASSERT_TRUE(FaultInjector::instance().armFromSpec(
        std::string(C.Point) + ":1:throw", Err))
        << Err;
    JobResult R = runOneJob(sourceSpec("m", RacyProgram), Opts);
    EXPECT_EQ(R.Status, JobStatus::InternalError) << C.Point;
    EXPECT_EQ(R.Phase, C.Phase) << C.Point;
  }
}

TEST_F(ContainmentTest, MidBuildSHBCancellationIsATimeoutInSHB) {
  // `shb.thread:1:cancel` stops the SHB build after it traced main, as a
  // deadline would: main's access to @g is already a candidate and the
  // spawned thread is known but untraced.
  std::string Err;
  auto M = parseModule(RacyProgram, Err);
  ASSERT_TRUE(M) << Err;
  auto PTA = runPointerAnalysis(*M, PTAOptions());
  SharingResult Sharing = runSharingAnalysis(*PTA);
  armOrDie("shb.thread:1:cancel");
  SHBGraph G = buildSHBGraph(*PTA, SHBOptions(), &Sharing);
  EXPECT_TRUE(G.cancelled());
  ASSERT_EQ(G.numThreads(), 2u);
  EXPECT_FALSE(G.threads()[0].Accesses.empty());
  EXPECT_EQ(G.threads()[1].NumEvents, 0u);

  FaultInjector::instance().disarm();
  armOrDie("shb.thread:1:cancel");
  AnalysisManager A(*M, O2Config());
  EXPECT_FALSE(A.run(AnalysisSet::defaultSet()));
  EXPECT_EQ(A.cancelledIn(), O2Phase::SHB);

  FaultInjector::instance().disarm();
  armOrDie("shb.thread:1:cancel");
  JobResult R = runOneJob(sourceSpec("m", RacyProgram), BatchOptions());
  EXPECT_EQ(R.Status, JobStatus::Timeout);
  EXPECT_EQ(R.Phase, "shb");
}

TEST_F(ContainmentTest, ResultCacheNeverStoresCrashedOrDegradedResults) {
  ResultCache Cache(freshCacheDir("contain"));
  JobResult Out;

  JobResult Good;
  Good.Status = JobStatus::Clean;
  Cache.store(1, 2, Good);
  EXPECT_TRUE(Cache.lookup(1, 2, Out));

  JobResult Crashed;
  Crashed.Status = JobStatus::Crashed;
  Crashed.Signal = "SIGKILL";
  Cache.store(3, 4, Crashed);
  EXPECT_FALSE(Cache.lookup(3, 4, Out));

  JobResult Oom;
  Oom.Status = JobStatus::OOM;
  Cache.store(5, 6, Oom);
  EXPECT_FALSE(Cache.lookup(5, 6, Out));

  // End to end: a job that crashes every run must re-run (and re-crash)
  // on a warm directory rather than replay a poisoned entry.
  armOrDie("pass.race@boom:*:kill");
  BatchOptions Opts;
  Opts.Isolate = IsolationMode::Process;
  Opts.CacheDir = freshCacheDir("crashcache");
  BatchResult R1 = runBatch({sourceSpec("boom", RacyProgram)}, Opts);
  EXPECT_EQ(R1.Jobs[0].Status, JobStatus::Crashed);
  BatchResult R2 = runBatch({sourceSpec("boom", RacyProgram)}, Opts);
  EXPECT_EQ(R2.CacheHits, 0u);
  EXPECT_EQ(R2.Jobs[0].Status, JobStatus::Crashed);
}

TEST_F(ContainmentTest, CacheIOFaultsDegradeToMisses) {
  std::vector<JobSpec> Specs = {sourceSpec("racy", RacyProgram)};
  BatchOptions Opts;
  Opts.CacheDir = freshCacheDir("faultio");

  // A failing store is swallowed: the run succeeds, nothing is cached.
  armOrDie("cache.write:1:throw");
  BatchResult Cold = runBatch(Specs, Opts);
  EXPECT_EQ(Cold.Jobs[0].Status, JobStatus::Races);
  EXPECT_EQ(Cold.CacheMisses, 1u);

  BatchResult Second = runBatch(Specs, Opts);
  EXPECT_EQ(Second.CacheHits, 0u) << "the faulted store wrote nothing";
  EXPECT_EQ(Second.CacheMisses, 1u);

  // A failing read degrades the warm entry to a miss; the job re-runs
  // and the report is unchanged.
  armOrDie("cache.read:1:throw");
  BatchResult Third = runBatch(Specs, Opts);
  EXPECT_EQ(Third.CacheHits, 0u);
  EXPECT_EQ(Third.CacheMisses, 1u);
  EXPECT_EQ(renderJSONL(Third), renderJSONL(Cold));

  // Faults spent: the entry (rewritten by the re-run) is served again.
  BatchResult Fourth = runBatch(Specs, Opts);
  EXPECT_EQ(Fourth.CacheHits, 1u);
}

TEST(DriverTest, LoadBaselineHandlesEscapesAndJunk) {
  Baseline B = loadBaseline(
      "not json at all\n"
      "{\"module\":\"with \\\"quotes\\\"\",\"races\":[{\"fingerprint\":"
      "\"00ff00ff00ff00ff\"}]}\n"
      "{\"aggregate\":true,\"summary\":{}}\n");
  ASSERT_EQ(B.size(), 1u);
  ASSERT_EQ(B.count("with \"quotes\""), 1u);
  EXPECT_TRUE(B["with \"quotes\""].count("00ff00ff00ff00ff"));
}

/// Writes \p Source to a fresh file under the test temp dir.
std::string writeTempModule(const char *Name, const char *Source) {
  std::string Path = testing::TempDir() + "o2-drivertest-" + Name + ".oir";
  std::ofstream(Path, std::ios::trunc) << Source;
  return Path;
}

std::string readAll(const std::string &Path) {
  std::ifstream In(Path);
  return std::string(std::istreambuf_iterator<char>(In), {});
}

/// The "races":[...] section of a one-module JSONL report.
std::string racesSection(const std::string &Report) {
  size_t Begin = Report.find("\"races\":");
  size_t End = Report.find("\"stats\":", Begin);
  return Begin == std::string::npos ? "" : Report.substr(Begin, End - Begin);
}

TEST(DriverTest, RaceHBNaiveRunsWithoutHBIndex) {
  std::string ParseErr;
  auto M = parseModule(RacyProgram, ParseErr);
  ASSERT_TRUE(M) << ParseErr;
  O2Config Naive;
  Naive.Detector.HB = RaceHBKind::Naive;
  AnalysisManager AMNaive(*M, Naive);
  AMNaive.run(AnalysisSet::defaultSet());
  AnalysisManager AMDefault(*M);
  AMDefault.run(AnalysisSet::defaultSet());
  EXPECT_EQ(test::raceFacts(AMNaive.getRaces()),
            test::raceFacts(AMDefault.getRaces()));

  // The flag reaches the detector: only the index run reports index
  // segments, and both report the same races.
  std::string Input = writeTempModule("naive-hb", RacyProgram);
  std::string NaiveOut = testing::TempDir() + "o2-drivertest-naive.jsonl";
  std::string DefaultOut = testing::TempDir() + "o2-drivertest-index.jsonl";
  EXPECT_EQ(runBatchCommand({"--race-hb=naive", "--quiet",
                             "--out=" + NaiveOut, Input}),
            ExitRacesFound);
  EXPECT_EQ(runBatchCommand({"--quiet", "--out=" + DefaultOut, Input}),
            ExitRacesFound);
  std::string NaiveReport = readAll(NaiveOut);
  std::string DefaultReport = readAll(DefaultOut);
  EXPECT_EQ(NaiveReport.find("race.hb-index-segments"), std::string::npos);
  EXPECT_NE(DefaultReport.find("race.hb-index-segments"), std::string::npos);
  EXPECT_NE(racesSection(NaiveReport), "");
  EXPECT_EQ(racesSection(NaiveReport), racesSection(DefaultReport));
}

TEST(DriverTest, NumericFlagsAreStrict) {
  uint64_t V = 0;
  std::string Err;
  EXPECT_TRUE(parseUnsignedFlag("--jobs=0", V, Err));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseUnsignedFlag("--k=4294967295", V, Err, 4294967295u));
  EXPECT_EQ(V, 4294967295u);
  EXPECT_FALSE(parseUnsignedFlag("--k=abc", V, Err));
  EXPECT_EQ(Err, "invalid value 'abc' for --k: expected an unsigned integer");
  EXPECT_FALSE(parseUnsignedFlag("--k=4294967296", V, Err, 4294967295u));
  EXPECT_EQ(Err, "value '4294967296' for --k is out of range (max "
                 "4294967295)");
  for (const char *Bad :
       {"--jobs=", "--jobs=-5", "--jobs=+5", "--jobs= 5", "--jobs=5x",
        "--jobs=0x10", "--jobs=99999999999999999999"})
    EXPECT_FALSE(parseUnsignedFlag(Bad, V, Err)) << Bad;
  EXPECT_EQ(V, 4294967295u) << "a rejected value leaves the output alone";

  // Every numeric o2batch flag exits with a usage error before any job
  // runs.
  std::string Input = writeTempModule("numeric", RacyProgram);
  for (const char *Bad :
       {"--k=abc", "--jobs=abc", "--deadline-ms=-5", "--mem-limit-mb=1e3",
        "--kill-after-ms="})
    EXPECT_EQ(runBatchCommand({Bad, "--quiet", Input}), ExitError) << Bad;
  EXPECT_EQ(runBatchCommand({"--jobs=1", "--deadline-ms=60000", "--k=1",
                             "--quiet", "--out=" + Input + ".jsonl", Input}),
            ExitRacesFound);
}

TEST(DriverTest, RetiredAndUnknownFlagsAreUsageErrors) {
  // Removed options and aliases are unknown, not ignored: each one stops
  // the command with a usage error before any job runs, so no report is
  // written.
  std::string Input = writeTempModule("retired", RacyProgram);
  std::string Out = testing::TempDir() + "o2-drivertest-retired.jsonl";
  for (const char *Bad :
       {"--degrade", "--retries=1", "--retry-backoff-ms=1",
        "--isolate=in-process", "--profiles=all", "--no-such-flag"}) {
    std::remove(Out.c_str());
    EXPECT_EQ(runBatchCommand({"--quiet", "--out=" + Out, Input, Bad}),
              ExitError)
        << Bad;
    EXPECT_FALSE(std::filesystem::exists(Out)) << Bad;
  }
  // The spellings that stay still work.
  EXPECT_EQ(runBatchCommand({"--isolate=none", "--quiet", "--out=" + Out,
                             Input}),
            ExitRacesFound);
  EXPECT_TRUE(std::filesystem::exists(Out));
}

} // namespace
