//===- FaultInjector.cpp - Deterministic fault injection ------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Support/FaultInjector.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define O2_FAULT_HAVE_POSIX 1
#endif

namespace o2 {

namespace {

/// The thread-local job scope `@module` filters match against. A plain
/// pointer into the active JobScope's storage: cheap to read on the
/// fault-point fast path and naturally nests.
thread_local const char *CurrentJobScope = nullptr;

struct ArmedFault {
  std::string Point;
  std::string Scope; ///< Empty = any job.
  uint64_t Nth;      ///< 1-based; 0 = every matching hit.
  FaultAction Action;
  uint64_t Hits = 0; ///< Scope-matching hits so far.
};

[[noreturn]] void fireThrow(const char *Point) {
  throw std::runtime_error(std::string("injected fault at '") + Point + "'");
}

void fireHog() {
  // Allocate and *touch* memory until allocation genuinely fails, so an
  // RSS/address-space cap (setrlimit in the isolated worker) turns this
  // into a real std::bad_alloc on the allocation path. Chunks are leaked
  // on purpose; the bounded chunk count keeps an uncapped process from
  // eating the machine before its own bad_alloc arrives.
  constexpr size_t ChunkBytes = 16u << 20; // 16 MiB
  constexpr size_t MaxChunks = 4096;       // 64 GiB ceiling
  std::vector<std::unique_ptr<char[]>> Chunks;
  Chunks.reserve(MaxChunks);
  for (size_t I = 0; I != MaxChunks; ++I) {
    Chunks.emplace_back(new char[ChunkBytes]); // throws bad_alloc when capped
    std::memset(Chunks.back().get(), 0x5a, ChunkBytes);
    Chunks.back().release(); // leak: keep the pressure until the cap fires
  }
  throw std::bad_alloc(); // uncapped safety net: behave like `oom`
}

[[noreturn]] void fireHang() {
  // Deaf to cooperative cancellation by design — this is what the hard
  // SIGTERM→SIGKILL escalation exists for. Bounded so a misconfigured
  // in-process run eventually ends as an internal error.
  for (int I = 0; I != 1200; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  throw std::runtime_error("injected hang expired without a hard kill");
}

void fire(FaultAction A, const char *Point) {
  switch (A) {
  case FaultAction::Throw:
    fireThrow(Point);
  case FaultAction::OOM:
    throw std::bad_alloc();
  case FaultAction::Hog:
    fireHog();
    return;
  case FaultAction::Segv:
    std::raise(SIGSEGV);
    return; // unreachable in practice; keep -Werror happy
  case FaultAction::Kill:
#if O2_FAULT_HAVE_POSIX
    ::kill(::getpid(), SIGKILL);
#else
    std::abort();
#endif
    return;
  case FaultAction::Abort:
    std::abort();
  case FaultAction::Exit:
    std::_Exit(13);
  case FaultAction::Hang:
    fireHang();
  case FaultAction::Cancel:
    return; // hit() reports it to the caller
  }
}

bool parseAction(const std::string &Name, FaultAction &A) {
  if (Name == "throw")
    A = FaultAction::Throw;
  else if (Name == "oom")
    A = FaultAction::OOM;
  else if (Name == "hog")
    A = FaultAction::Hog;
  else if (Name == "segv")
    A = FaultAction::Segv;
  else if (Name == "kill")
    A = FaultAction::Kill;
  else if (Name == "abort")
    A = FaultAction::Abort;
  else if (Name == "exit")
    A = FaultAction::Exit;
  else if (Name == "hang")
    A = FaultAction::Hang;
  else if (Name == "cancel")
    A = FaultAction::Cancel;
  else
    return false;
  return true;
}

bool knownPoint(const std::string &Name) {
  for (const FaultPointInfo &I : FaultInjector::catalogue())
    if (Name == I.Name)
      return true;
  return false;
}

} // namespace

struct FaultInjector::Impl {
  /// Fast-path gate: hit() returns after one relaxed load when clear.
  std::atomic<bool> Armed{false};
  std::mutex Mu;
  std::vector<ArmedFault> Faults;
};

FaultInjector::FaultInjector() : P(new Impl) {
  if (const char *Env = std::getenv("O2_FAULT")) {
    std::string Err;
    if (!armFromSpec(Env, Err)) {
      // A bad O2_FAULT means the test harness is misconfigured; failing
      // loudly beats silently running fault-free.
      std::fprintf(stderr, "o2: bad O2_FAULT spec: %s\n", Err.c_str());
      std::abort();
    }
  }
}

FaultInjector &FaultInjector::instance() {
  static FaultInjector I; // leaked Impl: see header
  return I;
}

const std::vector<FaultPointInfo> &FaultInjector::catalogue() {
  static const std::vector<FaultPointInfo> Points = {
      {"parse", "before the OIR parser runs on a job's source"},
      {"alloc", "the job's analysis-session allocation"},
      {"cache.read", "result-cache lookup IO"},
      {"cache.write", "result-cache store IO"},
      {"pass.pta", "start of the pointer-analysis pass"},
      {"pass.osa", "start of the origin-sharing pass"},
      {"pass.shb", "start of the SHB-graph pass"},
      {"pass.race", "start of the race-detection pass"},
      {"pass.deadlock", "start of the deadlock pass"},
      {"pass.oversync", "start of the over-synchronization pass"},
      {"pass.racerd", "start of the RacerD-like pass"},
      {"pass.escape", "start of the escape-analysis pass"},
      {"shb.thread", "end of each thread the SHB build traces"},
  };
  return Points;
}

bool FaultInjector::armFromSpec(const std::string &Spec, std::string &Err) {
  // point[@module]:nth[:action]
  size_t Colon = Spec.find(':');
  if (Colon == std::string::npos || Colon == 0) {
    Err = "expected 'point[@module]:nth[:action]', got '" + Spec + "'";
    return false;
  }
  std::string PointAndScope = Spec.substr(0, Colon);
  std::string Rest = Spec.substr(Colon + 1);

  std::string Point = PointAndScope, Scope;
  if (size_t At = PointAndScope.find('@'); At != std::string::npos) {
    Point = PointAndScope.substr(0, At);
    Scope = PointAndScope.substr(At + 1);
    if (Scope.empty()) {
      Err = "empty @module scope in '" + Spec + "'";
      return false;
    }
  }
  if (!knownPoint(Point)) {
    Err = "unknown fault point '" + Point + "' (see --fault-points)";
    return false;
  }

  std::string NthStr = Rest, ActionStr = "throw";
  if (size_t C2 = Rest.find(':'); C2 != std::string::npos) {
    NthStr = Rest.substr(0, C2);
    ActionStr = Rest.substr(C2 + 1);
  }

  uint64_t Nth = 0;
  if (NthStr == "*") {
    Nth = 0;
  } else {
    if (NthStr.empty() ||
        NthStr.find_first_not_of("0123456789") != std::string::npos ||
        NthStr.size() > 18) {
      Err = "bad hit count '" + NthStr + "' in '" + Spec +
            "' (expected a number or '*')";
      return false;
    }
    Nth = std::strtoull(NthStr.c_str(), nullptr, 10);
    if (Nth == 0) {
      Err = "hit count is 1-based; use '*' to fire on every hit";
      return false;
    }
  }

  FaultAction A;
  if (!parseAction(ActionStr, A)) {
    Err = "unknown fault action '" + ActionStr +
          "' (throw, oom, hog, segv, kill, abort, exit, hang, cancel)";
    return false;
  }

  arm(std::move(Point), std::move(Scope), Nth, A);
  return true;
}

void FaultInjector::arm(std::string Point, std::string Scope, uint64_t Nth,
                        FaultAction A) {
  std::lock_guard<std::mutex> L(P->Mu);
  P->Faults.push_back({std::move(Point), std::move(Scope), Nth, A, 0});
  P->Armed.store(true, std::memory_order_release);
}

void FaultInjector::disarm() {
  std::lock_guard<std::mutex> L(P->Mu);
  P->Faults.clear();
  P->Armed.store(false, std::memory_order_release);
}

bool FaultInjector::anyArmed() const {
  return P->Armed.load(std::memory_order_acquire);
}

bool FaultInjector::hit(const char *Point) {
  FaultInjector &I = instance();
  if (!I.P->Armed.load(std::memory_order_relaxed))
    return false;

  FaultAction Pending{};
  bool Fire = false;
  {
    std::lock_guard<std::mutex> L(I.P->Mu);
    for (ArmedFault &F : I.P->Faults) {
      if (F.Point != Point)
        continue;
      if (!F.Scope.empty() &&
          (!CurrentJobScope || F.Scope != CurrentJobScope))
        continue;
      ++F.Hits;
      if (F.Nth == 0 || F.Hits == F.Nth) {
        Pending = F.Action;
        Fire = true;
        break;
      }
    }
  }
  // Fire outside the lock: throwing through a held lock_guard is fine,
  // but `hog` allocates for a long time and signals must not hold Mu.
  if (!Fire)
    return false;
  fire(Pending, Point);
  return Pending == FaultAction::Cancel;
}

FaultInjector::JobScope::JobScope(const std::string &JobName)
    : Prev(CurrentJobScope), Name(JobName) {
  CurrentJobScope = Name.c_str();
}

FaultInjector::JobScope::~JobScope() { CurrentJobScope = Prev; }

} // namespace o2
