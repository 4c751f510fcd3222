//===- o2/Driver/Driver.h - Parallel batch-analysis driver --------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch-analysis engine behind `o2batch` and `o2cli --batch`, and
/// behind plain `o2cli`, which runs its one program as one job: takes a
/// corpus of modules (OIR files, in-memory sources, or generated workload
/// profiles), runs the full O2 pipeline over every module concurrently on
/// a work-stealing thread pool, and emits one structured JSONL record per
/// module plus a fleet aggregate. Each job is fully isolated — its own
/// module, its own statistics registry, its own deadline token — so one
/// malformed or pathological input degrades to a per-job `timeout` /
/// `parse-error` record instead of sinking the fleet.
///
/// Output is deterministic: job records are sorted by module name and
/// wall-clock timings are opt-in, so the same corpus produces
/// byte-identical reports regardless of worker count or interleaving.
/// See docs/DRIVER.md for the job model and the JSONL schema.
///
//===----------------------------------------------------------------------===//

#ifndef O2_DRIVER_DRIVER_H
#define O2_DRIVER_DRIVER_H

#include "o2/Analysis/AnalysisManager.h"
#include "o2/Workload/Generator.h"

#include <array>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace o2 {

class OutputStream;

/// Terminal state of one analysis job.
enum class JobStatus : uint8_t {
  Clean,         ///< Pipeline completed, no races.
  Races,         ///< Pipeline completed, races reported.
  Done,          ///< Pipeline completed; the request had no race check.
  Timeout,       ///< Deadline fired; partial statistics, JobResult::Phase
                 ///< names the phase that was cut short.
  ParseError,    ///< Unreadable file or OIR syntax error.
  VerifyError,   ///< Parsed but failed module verification.
  InternalError, ///< The pipeline threw; JobResult::Error has the what().
  Crashed,       ///< The isolated worker died (signal, assert, protocol
                 ///< breakdown); JobResult::Signal names the signal and
                 ///< Phase the last stage the worker reported entering.
  OOM,           ///< Allocation failed (std::bad_alloc in-process, or the
                 ///< --mem-limit-mb address-space cap in a worker).
};

/// Stable lowercase name: "clean", "races", "done", "timeout",
/// "parse-error", "verify-error", "internal-error", "crashed", "oom".
const char *jobStatusName(JobStatus S);

/// True for the statuses of a job whose requested passes all finished:
/// Clean, Races and Done.
bool jobCompleted(JobStatus S);

/// Process exit codes shared by o2cli and o2batch.
enum ExitCode : int {
  ExitClean = 0,      ///< Analysis ran, no races (or no race check).
  ExitRacesFound = 1, ///< Analysis ran, races reported.
  ExitError = 2,      ///< Parse/verify/internal error or timeout.
};

/// Maps a job status onto the shared exit-code convention (Crashed and
/// OOM join the error family: exit 2).
int exitCodeFor(JobStatus S);

/// How the batch driver contains a job's failure modes.
enum class IsolationMode : uint8_t {
  InProcess, ///< Jobs run on the pool threads (fast; a crash is fatal).
  Process,   ///< Each job runs in a forked sandboxed worker: RSS cap via
             ///< setrlimit, SIGTERM→SIGKILL hard-kill escalation, and a
             ///< structured result pipe — a crash becomes a `crashed`
             ///< record instead of taking down the fleet.
};

/// One unit of batch work. Exactly one of Source / Path / Profile
/// provides the module: a non-null Profile wins, else a non-empty Source,
/// else Path is read from disk.
struct JobSpec {
  std::string Name;                         ///< Module/report name.
  std::string Path;                         ///< OIR file to read.
  std::string Source;                       ///< In-memory OIR source.
  const WorkloadProfile *Profile = nullptr; ///< Generated workload.
};

struct BatchOptions {
  /// Pipeline configuration applied to every job (DeadlineMs below sets
  /// each job's cancellation token).
  O2Config Config;

  /// Which analyses every job runs (`--analyses=`); infrastructure
  /// passes are scheduled implicitly. Defaults to the classic pipeline
  /// (OSA + race detection).
  AnalysisSet Analyses = AnalysisSet::defaultSet();

  /// Worker threads; 0 picks the hardware concurrency.
  unsigned Jobs = 0;

  /// Per-job analysis budget in milliseconds; 0 means unlimited. The
  /// deadline covers the analysis phases only (not parsing).
  uint64_t DeadlineMs = 0;

  /// Include wall-clock phase timings in the JSONL records. Off by
  /// default so reports are byte-identical across runs.
  bool IncludeTimings = false;

  /// Warm-cache directory (`--cache-dir=`); empty disables caching. See
  /// o2/Driver/ResultCache.h for the key and robustness contract.
  std::string CacheDir;

  /// Fault containment (`--isolate=`). Process mode forks one sandboxed
  /// worker per job; on platforms without fork it falls back to
  /// in-process execution. Either way a job makes one attempt, and its
  /// record is the report.
  IsolationMode Isolate = IsolationMode::InProcess;

  /// Worker address-space cap in MiB (`--mem-limit-mb=`, process
  /// isolation only); 0 means uncapped. An allocation beyond the cap
  /// fails inside the worker and surfaces as an `oom` record.
  uint64_t MemLimitMB = 0;

  /// Hard wall-clock kill for stuck workers (`--kill-after-ms=`, process
  /// isolation only): SIGTERM at the limit, SIGKILL shortly after. 0
  /// derives a limit from DeadlineMs (2x + 10s) when one is set, else no
  /// hard kill. Unlike the cooperative deadline this works on workers
  /// that stopped polling entirely.
  uint64_t HardKillMs = 0;

  /// Worker-side progress hook: called with a stage name ("setup",
  /// "parse", "verify", then each pass name) as the job enters it. The
  /// process-isolation worker uses it to stream `p:<stage>` markers to
  /// the parent so crash records can name the phase; tests may use it to
  /// observe progress. Not part of any fingerprint.
  std::function<void(const std::string &)> StageHook;
};

/// One reported race, with a content-derived fingerprint that is stable
/// across reordering of unrelated statements (it hashes the location's
/// symbolic description and the statement texts, never raw statement
/// IDs). This record and those below name each string by its index
/// into JobResult::Text.
struct RaceRecord {
  enum class Diff : uint8_t { None, New, Unchanged }; ///< applyBaseline's

  uint64_t Fingerprint = 0; ///< FNV-1a, printed as 16 hex digits.
  uint32_t Location = 0;    ///< The location, object IDs elided.
  uint32_t StmtA = 0, FuncA = 0;
  uint32_t StmtB = 0, FuncB = 0;
  bool WriteA = false, WriteB = false;
  Diff DiffStatus = Diff::None;
};

/// One potential deadlock cycle (deadlock analysis section).
struct DeadlockRecord {
  uint32_t Locks = 0;              ///< The lock names, e.g. "lock3,lock7".
  std::vector<uint32_t> Witnesses; ///< One rendered edge per step.
};

/// One over-synchronized lock region (oversync analysis section).
struct OverSyncRecord {
  uint32_t Stmt = 0;     ///< Opening acquire ("" if unknown).
  uint32_t Function = 0; ///< Its function ("" if unknown).
  uint32_t Thread = 0;
  uint32_t NumAccesses = 0;
};

/// One RacerD-like warning (racerd analysis section).
struct RacerDRecord {
  bool UnprotectedWrite = false; ///< Kind: "unprotected-write", else
                                 ///< "read-write".
  uint32_t Location = 0;         ///< The field or global name.
  uint32_t First = 0;            ///< The first statement.
  uint32_t Second = 0; ///< The second statement; "" for unprotected
                       ///< writes.
};

struct JobResult {
  std::string Name;
  JobStatus Status = JobStatus::Clean;
  std::string Phase;  ///< Phase the deadline fired in (timeout), or the
                      ///< last stage a crashed worker reported entering.
  std::string Error;  ///< Parse/verify/internal/crash diagnostic.
  std::string Signal; ///< Crashed only: "SIGSEGV", "SIGKILL", ...

  /// Which analyses this job was asked to run; selects the JSONL
  /// sections. Overlaid from the request (never cached).
  AnalysisSet Analyses;

  /// Per-pass wall-clock in milliseconds, indexed by O2Phase, including
  /// the aux analyses (0 for passes that did not run; the None slot stays
  /// 0).
  std::array<double, NumO2Phases> PassMs{};

  double &ms(O2Phase P) { return PassMs[static_cast<unsigned>(P)]; }
  double ms(O2Phase P) const { return PassMs[static_cast<unsigned>(P)]; }

  /// Driver stages around the passes, in milliseconds: reading, parsing
  /// (or generating) and verifying the module; the warm-cache lookup
  /// with its decode, or the store; building the records from the pass
  /// results. A cache hit replays the stored ParseMs and RecordMs, like
  /// the pass times, and reports its own lookup as CacheMs.
  double ParseMs = 0, CacheMs = 0, RecordMs = 0;

  /// Sum over every pass, aux analyses included (not the driver stages).
  double totalMs() const {
    double Total = 0;
    for (double Ms : PassMs)
      Total += Ms;
    return Total;
  }

  /// Per-job counters from every ran pass (partial on timeout).
  StatisticRegistry Stats;

  std::vector<RaceRecord> Races;
  std::vector<DeadlockRecord> Deadlocks;
  std::vector<OverSyncRecord> OverSyncs;
  std::vector<RacerDRecord> RacerDWarnings;

  /// The job's distinct strings, indexed by every record above: a
  /// statement named by thousands of records is stored, cached, piped
  /// and escaped once.
  std::vector<std::string> Text;

  /// Baseline fingerprints no longer reported (set by applyBaseline).
  std::vector<std::string> FixedRaces;

  /// Warm-cache outcome for this job (never serialized; feeds the
  /// BatchResult counters, deliberately kept out of the JSONL so cold
  /// and warm reports stay byte-identical).
  enum class CacheOutcome : uint8_t { None, Hit, Miss } Cache =
      CacheOutcome::None;
};

struct BatchResult {
  /// Per-job results sorted by name (deterministic across worker
  /// interleavings).
  std::vector<JobResult> Jobs;

  /// Fleet aggregate: per-status job counts ("jobs.*"), total races,
  /// baseline diff counts, plus every per-job counter folded in via
  /// StatisticRegistry::merge.
  StatisticRegistry Summary;

  /// Warm-cache tallies (zero when no --cache-dir). Kept out of Summary
  /// and the JSONL report: cold and warm runs must produce byte-identical
  /// reports, so cache telemetry only appears in the stderr summary.
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;

  /// Report-writing telemetry for the stderr summary, filled in by
  /// runBatchCommand: how long printJSONL took and how many bytes it
  /// wrote (zero when no report was written).
  double EmitMs = 0;
  uint64_t EmitBytes = 0;

  /// Worst exit code over all jobs: any error/timeout wins over races,
  /// races win over clean.
  int exitCode() const;
};

/// Runs every spec as an isolated job on a work-stealing pool and folds
/// the results into a deterministic BatchResult.
BatchResult runBatch(const std::vector<JobSpec> &Specs,
                     const BatchOptions &Opts = {});

/// Runs a single spec synchronously on the calling thread, with no
/// isolation: a job's one attempt under IsolationMode::InProcess
/// (runOneJobIsolated is the other).
JobResult runOneJob(const JobSpec &Spec, const BatchOptions &Opts = {});

/// Fills \p R from \p AM after its run: per-pass times and counters,
/// the records of every pass that ran (races, deadlocks, over-sync
/// regions, RacerD-like warnings) with the Text table they index, and
/// the clean, races, done or timeout status. R.Name and R.Analyses stay
/// the caller's. runOneJob builds every record through this; library
/// code calls it to render a manager's results with printJobRecord or
/// printJobText.
void recordJob(AnalysisManager &AM, JobResult &R);

/// Runs one spec in a forked sandboxed worker (fork + result pipe): the
/// child applies the --mem-limit-mb address-space cap, streams stage
/// markers, runs runOneJob, and writes the serialized result back; the
/// parent enforces the hard-kill escalation and classifies worker death
/// (signal -> Crashed with signal name + last stage, cap overrun -> OOM,
/// silent exit -> Crashed). On platforms without fork this falls back to
/// runOneJob. Used by runBatch under IsolationMode::Process; exposed for
/// tests.
JobResult runOneJobIsolated(const JobSpec &Spec, const BatchOptions &Opts);

/// Baseline for diff mode: module name -> race fingerprints, recovered
/// from a previous JSONL report.
using Baseline = std::map<std::string, std::set<std::string>>;

/// Extracts the baseline from a prior report's content. Tolerant: it
/// scans for "module" / "fingerprint" string values per line, so reports
/// with or without timings both load.
Baseline loadBaseline(const std::string &JSONLContent);

/// Classifies every race in \p R against \p B (DiffStatus = New or
/// Unchanged), records baseline fingerprints that disappeared as fixed,
/// and adds the diff.* counters to the summary.
void applyBaseline(BatchResult &R, const Baseline &B);

/// Writes one job's report record: one JSON object and a newline. With
/// \p IncludeTimings it carries the wall-clock `time.*-ms` keys. Returns
/// the number of bytes written.
uint64_t printJobRecord(const JobResult &J, OutputStream &OS,
                        bool IncludeTimings = false);

/// Writes the report: printJobRecord for each job, then one aggregate
/// record. Returns the number of bytes written.
uint64_t printJSONL(const BatchResult &R, OutputStream &OS,
                    bool IncludeTimings = false);

/// The human-readable view of one job's record: a header with the
/// status and the PTA, sharing and SHB counters, then one section per
/// requested analysis (races, deadlocks, over-sync regions, RacerD-like
/// warnings, escape counts). An error record prints the header only.
/// It renders no wall-clock time and names races by their stable
/// location, so the same record always prints the same text.
void printJobText(const JobResult &J, OutputStream &OS);

/// Writes a short human-readable fleet summary.
void printBatchSummary(const BatchResult &R, OutputStream &OS);

/// The whole content of \p Path; \p Ok is false when it cannot be opened
/// or read.
std::string readFile(const std::string &Path, bool &Ok);

/// Strict parser for a numeric flag, \p Arg being the whole argument
/// ("--name=value"). The value must be a non-empty run of decimal digits
/// no larger than \p Max: a sign, whitespace, trailing characters and
/// overflow are rejected. On failure returns false and sets \p Err to a
/// message naming the flag; both CLIs then exit with ExitError.
bool parseUnsignedFlag(const std::string &Arg, uint64_t &Out,
                       std::string &Err, uint64_t Max = ~uint64_t(0));

/// The one table of pipeline flags both CLIs accept:
///
///   --ctx=0-ctx|insensitive|cfa|k-cfa|obj|k-obj|origin
///   --k=N             (at least 1)
///   --race-hb=index|naive
///   --analyses=LIST   (see parseAnalysisSet)
///
/// Returns std::nullopt when \p Arg is none of these flags. Otherwise
/// applies it to \p Config or \p Analyses and returns "" on success, or
/// an error message naming the flag (the caller adds its own prefix and
/// exits with ExitError).
std::optional<std::string> parsePipelineFlag(const std::string &Arg,
                                             O2Config &Config,
                                             AnalysisSet &Analyses);

/// The shared CLI behind `o2batch ...` and `o2cli --batch ...`: parses
/// \p Args (flags plus positional .oir files / directories), runs the
/// batch, writes the JSONL report and summary. Returns the process exit
/// code (aggregate ExitCode, or ExitError on bad usage).
int runBatchCommand(const std::vector<std::string> &Args);

} // namespace o2

#endif // O2_DRIVER_DRIVER_H
