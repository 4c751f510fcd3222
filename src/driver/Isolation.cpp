//===- Isolation.cpp - Per-job sandboxed worker processes -----------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// `--isolate=process`: each batch job runs in a forked worker so that a
// crash — a signal, a tripped assertion, an address-space-cap OOM, a
// worker that stops responding — becomes one structured `crashed` /
// `oom` / `timeout` record instead of taking down the fleet.
//
// Protocol (worker -> parent, over one pipe):
//
//   p:<stage>\n     progress marker: the job entered <stage> ("setup",
//                   "parse", "verify", then each pass name). The last
//                   marker received is the crash record's `phase`.
//   r:<payload>     the final JobResult in the shared wire format
//                   (JobWire.h); <payload> runs to EOF and may contain
//                   any bytes, so `r:` is only recognized at the start
//                   of a line.
//
// The parent enforces the hard wall-clock kill (SIGTERM at the limit,
// SIGKILL a grace period later) and classifies the worker's exit:
// a parsed result wins; death by our own kill is a `timeout`; any other
// signal is `crashed` with the signal's name; a silent exit is
// `crashed` with a protocol diagnostic.
//
// fork() without exec: the child reuses the parent's loaded image and
// already-parsed options, which keeps isolation usable from library
// callers and tests (no argv re-marshalling, no dependence on the
// executable's path). The child only runs this module's code plus the
// job pipeline and never touches the parent's thread pool (its worker
// threads do not exist after fork), then leaves via _Exit — no atexit
// handlers, no static destructors.
//
//===----------------------------------------------------------------------===//

#include "o2/Driver/Driver.h"

#include "JobWire.h"

#if defined(__unix__) || defined(__APPLE__)
#define O2_HAVE_FORK 1
#endif

#if O2_HAVE_FORK

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <string>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace o2;

namespace {

const char *signalName(int Sig) {
  switch (Sig) {
  case SIGSEGV:
    return "SIGSEGV";
  case SIGABRT:
    return "SIGABRT";
  case SIGBUS:
    return "SIGBUS";
  case SIGILL:
    return "SIGILL";
  case SIGFPE:
    return "SIGFPE";
  case SIGKILL:
    return "SIGKILL";
  case SIGTERM:
    return "SIGTERM";
  case SIGINT:
    return "SIGINT";
  default:
    return nullptr;
  }
}

std::string signalNameStr(int Sig) {
  if (const char *N = signalName(Sig))
    return N;
  return "signal " + std::to_string(Sig);
}

bool writeAll(int Fd, const char *Data, size_t Len) {
  while (Len) {
    ssize_t N = ::write(Fd, Data, Len);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += size_t(N);
    Len -= size_t(N);
  }
  return true;
}

/// The worker body. Runs in the child; never returns.
[[noreturn]] void runWorker(const JobSpec &Spec, const BatchOptions &Opts,
                            int WriteFd) {
  // The parent dying must not SIGPIPE us out of writing the result.
  std::signal(SIGPIPE, SIG_IGN);

  if (Opts.MemLimitMB) {
    // RLIMIT_AS, not RLIMIT_RSS: Linux does not enforce the latter. An
    // allocation beyond the cap fails -> operator new throws bad_alloc
    // -> runOneJob's handler turns it into a clean `oom` result.
    struct rlimit RL;
    RL.rlim_cur = RL.rlim_max = rlim_t(Opts.MemLimitMB) * 1024 * 1024;
    ::setrlimit(RLIMIT_AS, &RL);
  }

  BatchOptions WorkerOpts = Opts;
  auto ParentHook = Opts.StageHook;
  WorkerOpts.StageHook = [WriteFd, &ParentHook](const std::string &S) {
    std::string Msg = "p:" + S + "\n";
    writeAll(WriteFd, Msg.data(), Msg.size());
    if (ParentHook)
      ParentHook(S);
  };

  int Exit = 0;
  try {
    JobResult R = runOneJob(Spec, WorkerOpts);
    std::string Msg = "r:" + wire::serializeJobResult(R);
    if (!writeAll(WriteFd, Msg.data(), Msg.size()))
      Exit = 3;
  } catch (...) {
    // runOneJob contains its own failures; reaching here means even
    // reporting failed (e.g. serialization under extreme memory
    // pressure). Exit nonzero so the parent reports a crash.
    Exit = 3;
  }
  ::close(WriteFd);
  std::_Exit(Exit);
}

} // namespace

JobResult o2::runOneJobIsolated(const JobSpec &Spec,
                                const BatchOptions &Opts) {
  int Fds[2];
  if (::pipe(Fds) != 0)
    return runOneJob(Spec, Opts);

  ::pid_t Pid = ::fork();
  if (Pid < 0) {
    ::close(Fds[0]);
    ::close(Fds[1]);
    return runOneJob(Spec, Opts);
  }
  if (Pid == 0) {
    ::close(Fds[0]);
    runWorker(Spec, Opts, Fds[1]); // noreturn
  }

  ::close(Fds[1]);
  ::fcntl(Fds[0], F_SETFL, O_NONBLOCK);

  // Hard-kill budget: explicit --kill-after-ms, else derived from the
  // cooperative deadline (it only needs to catch workers that stopped
  // polling), else none.
  uint64_t HardMs = Opts.HardKillMs;
  if (!HardMs && Opts.DeadlineMs)
    HardMs = 2 * Opts.DeadlineMs + 10000;
  constexpr uint64_t KillGraceMs = 2000;

  std::string Buf;       // unconsumed protocol bytes
  std::string LastStage; // most recent p: marker
  std::string Payload;   // bytes after r:
  bool InResult = false;
  bool SentTerm = false, SentKill = false;

  auto Consume = [&] {
    while (!InResult && !Buf.empty()) {
      if (Buf.size() >= 2 && Buf[0] == 'r' && Buf[1] == ':') {
        InResult = true;
        Payload.append(Buf, 2, std::string::npos);
        Buf.clear();
        return;
      }
      size_t NL = Buf.find('\n');
      if (NL == std::string::npos) {
        // A partial marker (or a lone 'r') — wait for more bytes.
        return;
      }
      if (NL > 2 && Buf[0] == 'p' && Buf[1] == ':')
        LastStage.assign(Buf, 2, NL - 2);
      Buf.erase(0, NL + 1);
    }
    if (InResult && !Buf.empty()) {
      Payload += Buf;
      Buf.clear();
    }
  };

  auto Start = std::chrono::steady_clock::now();
  auto ElapsedMs = [&Start] {
    return uint64_t(std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - Start)
                        .count());
  };

  char Chunk[64 * 1024];
  for (bool Eof = false; !Eof;) {
    struct pollfd PFd = {Fds[0], POLLIN, 0};
    ::poll(&PFd, 1, 20);
    for (;;) {
      ssize_t N = ::read(Fds[0], Chunk, sizeof(Chunk));
      if (N > 0) {
        Buf.append(Chunk, size_t(N));
        if (InResult) {
          Payload += Buf;
          Buf.clear();
        }
        continue;
      }
      if (N == 0)
        Eof = true; // worker closed its end (exit or death)
      else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
        Eof = true;
      break;
    }
    Consume();

    if (HardMs && !SentKill) {
      uint64_t El = ElapsedMs();
      if (!SentTerm && El >= HardMs) {
        ::kill(Pid, SIGTERM);
        SentTerm = true;
      } else if (SentTerm && El >= HardMs + KillGraceMs) {
        ::kill(Pid, SIGKILL);
        SentKill = true;
      }
    }
  }
  Consume();
  ::close(Fds[0]);

  int WStatus = 0;
  while (::waitpid(Pid, &WStatus, 0) < 0 && errno == EINTR) {
  }

  // A complete result wins, however the worker died afterwards.
  if (!Payload.empty()) {
    JobResult R;
    if (wire::deserializeJobResult(Payload, R)) {
      R.Name = Spec.Name;
      R.Analyses = Opts.Analyses;
      return R;
    }
  }

  JobResult R;
  R.Name = Spec.Name;
  R.Analyses = Opts.Analyses;
  R.Phase = LastStage;
  if (SentTerm || SentKill) {
    // Killed by our own escalation: semantically a deadline overrun on
    // a worker that stopped polling the cooperative token.
    R.Status = JobStatus::Timeout;
    R.Error = "hard deadline: worker killed after " +
              std::to_string(HardMs) + " ms";
  } else if (WIFSIGNALED(WStatus)) {
    R.Status = JobStatus::Crashed;
    R.Signal = signalNameStr(WTERMSIG(WStatus));
    R.Error = "worker killed by " + R.Signal;
  } else if (WIFEXITED(WStatus) && WEXITSTATUS(WStatus) != 0) {
    R.Status = JobStatus::Crashed;
    R.Error = "worker exited with code " +
              std::to_string(WEXITSTATUS(WStatus)) +
              " before reporting a result";
  } else {
    R.Status = JobStatus::Crashed;
    R.Error = "worker protocol error: no result before EOF";
  }
  return R;
}

#else // !O2_HAVE_FORK

using namespace o2;

JobResult o2::runOneJobIsolated(const JobSpec &Spec,
                                const BatchOptions &Opts) {
  // No fork on this platform: the job's one attempt runs in-process.
  return runOneJob(Spec, Opts);
}

#endif // O2_HAVE_FORK
