//===- o2/Support/FaultInjector.h - Deterministic fault injection -*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault injection for testing the driver's containment
/// paths. The pipeline is instrumented with *named fault points* — cache
/// IO, allocation, the parser, the start of every analysis pass, and the
/// end of each thread the SHB build traces — and
/// a fault can be armed on any of them via `o2batch --inject-fault=` or
/// the `O2_FAULT` environment variable:
///
///     point[@module]:nth[:action]
///
///  - `point` — a name from the catalogue (`parse`, `alloc`, `cache.read`,
///    `cache.write`, `pass.pta` … `pass.escape`, `shb.thread`),
///  - `@module` — optional: only hits made while analyzing the named job
///    count (the batch driver scopes every job with JobScope), which keeps
///    multi-job fleets deterministic at any `--jobs=N`,
///  - `nth` — fire on the Nth matching hit (1-based), or `*` for every
///    hit,
///  - `action` — what firing does (default `throw`):
///
/// | action  | effect                                                      |
/// |---------|-------------------------------------------------------------|
/// | `throw` | throw std::runtime_error (an internal error)                |
/// | `oom`   | throw std::bad_alloc (a simulated allocation failure)       |
/// | `hog`   | allocate-and-touch until allocation genuinely fails (pairs  |
/// |         | with `--mem-limit-mb` to exercise the real RSS-cap path)    |
/// | `segv`  | raise SIGSEGV                                               |
/// | `kill`  | SIGKILL the current process (uncatchable, sanitizer-proof)  |
/// | `abort` | std::abort()                                                |
/// | `exit`  | _Exit(13) without reporting a result                        |
/// | `hang`  | sleep in a loop (bounded), ignoring cooperative deadlines   |
/// | `cancel`| hit() returns true: a point that can stop its pass (only    |
/// |         | `shb.thread`) stops it as if its deadline had passed        |
///
/// Counters are per armed fault and advance only on scope-matching hits,
/// so a spec is deterministic: the same corpus and flags fire the same
/// fault at the same place every run. Under `--isolate=process` each
/// worker inherits the armed state (and counters) at fork, which makes
/// per-job specs deterministic regardless of worker count.
///
/// When nothing is armed a fault point is one relaxed atomic load.
///
//===----------------------------------------------------------------------===//

#ifndef O2_SUPPORT_FAULTINJECTOR_H
#define O2_SUPPORT_FAULTINJECTOR_H

#include <cstdint>
#include <string>
#include <vector>

namespace o2 {

enum class FaultAction : uint8_t {
  Throw, ///< throw std::runtime_error("injected fault at '<point>'")
  OOM,   ///< throw std::bad_alloc()
  Hog,   ///< allocate-and-touch chunks until allocation fails for real
  Segv,  ///< raise(SIGSEGV)
  Kill,  ///< SIGKILL self — uncatchable, survives sanitizer handlers
  Abort, ///< std::abort()
  Exit,  ///< _Exit(13): vanish without a result record
  Hang,  ///< sleep loop (bounded at 120s), deaf to cooperative deadlines
  Cancel, ///< hit() returns true; the caller cancels its pass
};

/// One catalogue entry: the point's name and where in the pipeline it
/// sits (for --help text, docs, and coverage tests).
struct FaultPointInfo {
  const char *Name;
  const char *Where;
};

class FaultInjector {
public:
  /// The process-wide injector (workers inherit it across fork).
  /// Construction reads `O2_FAULT` once, so environment arming works for
  /// any tool without flag plumbing.
  static FaultInjector &instance();

  /// Arms a fault from a `point[@module]:nth[:action]` spec. Unknown
  /// points, actions, or a malformed count are rejected with a message in
  /// \p Err. Several faults may be armed at once.
  bool armFromSpec(const std::string &Spec, std::string &Err);

  /// Programmatic arming. \p Nth is 1-based; 0 fires on every hit. An
  /// empty \p Scope matches every job.
  void arm(std::string Point, std::string Scope, uint64_t Nth, FaultAction A);

  /// Removes every armed fault and resets all counters.
  void disarm();

  bool anyArmed() const;

  /// Called by instrumented code at the point named \p Point. Returns
  /// normally unless an armed fault matches and fires — in which case it
  /// throws, signals, or exits per the armed action. Returns true only
  /// when a `cancel` fault fired; points that cannot cancel ignore it.
  static bool hit(const char *Point);

  /// Every instrumented fault point.
  static const std::vector<FaultPointInfo> &catalogue();

  /// Scopes fault-point hits on this thread to the named job for the
  /// object's lifetime (`@module` filters match against it).
  class JobScope {
  public:
    explicit JobScope(const std::string &JobName);
    ~JobScope();
    JobScope(const JobScope &) = delete;
    JobScope &operator=(const JobScope &) = delete;

  private:
    const char *Prev;
    std::string Name;
  };

private:
  FaultInjector();
  struct Impl;
  Impl *P; ///< Leaked intentionally: hit() may run during shutdown.
};

} // namespace o2

#endif // O2_SUPPORT_FAULTINJECTOR_H
