//===- o2/Support/CancellationToken.h - Deadlines & cancellation -*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cooperative cancellation for long-running analyses. A CancellationToken
/// carries an optional wall-clock deadline and a cancelled flag; the
/// analysis phases poll it at propagation-round / statement-scan
/// granularity and unwind with a partial, flagged result when it fires.
/// This is what lets one exploding module in a batch run degrade
/// gracefully instead of stalling the fleet.
///
/// Threading model: any thread may call cancel(); poll() may be called
/// concurrently from many threads (batch jobs on a shared pool may poll
/// one token) — the poll counter is a relaxed atomic, so
/// the fast path stays two relaxed atomic ops and the 1-in-64 clock-read
/// sampling is approximate across pollers, which is fine for a deadline.
///
//===----------------------------------------------------------------------===//

#ifndef O2_SUPPORT_CANCELLATIONTOKEN_H
#define O2_SUPPORT_CANCELLATIONTOKEN_H

#include <atomic>
#include <chrono>

namespace o2 {

class CancellationToken {
public:
  CancellationToken() = default;

  // The token is handed out by address; accidental copies would silently
  // split the cancelled flag.
  CancellationToken(const CancellationToken &) = delete;
  CancellationToken &operator=(const CancellationToken &) = delete;

  /// Arms a deadline \p Millis milliseconds from now. A zero/negative
  /// budget is already expired: the next poll() cancels.
  void setDeadlineMs(double Millis) {
    Deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double, std::milli>(
                                      Millis));
    HasDeadline = true;
  }

  /// Cancels immediately (thread-safe).
  void cancel() { Cancelled.store(true, std::memory_order_relaxed); }

  /// True once cancel() was called or a poll() observed the deadline.
  bool isCancelled() const {
    return Cancelled.load(std::memory_order_relaxed);
  }

  /// Hot-loop check: one relaxed load, plus a clock read on the first and
  /// then roughly every 64th call when a deadline is armed. Latches the
  /// cancelled flag once the deadline passes. Safe to call from multiple
  /// threads (see file comment).
  bool poll() const {
    if (Cancelled.load(std::memory_order_relaxed))
      return true;
    if (!HasDeadline)
      return false;
    if (PollCount.fetch_add(1, std::memory_order_relaxed) % 64 != 0)
      return false;
    if (Clock::now() >= Deadline) {
      Cancelled.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

private:
  using Clock = std::chrono::steady_clock;

  mutable std::atomic<bool> Cancelled{false};
  mutable std::atomic<uint64_t> PollCount{0};
  Clock::time_point Deadline{};
  bool HasDeadline = false;
};

/// Null-tolerant poll, for options structs that default to no token.
inline bool pollCancelled(const CancellationToken *Token) {
  return Token && Token->poll();
}

} // namespace o2

#endif // O2_SUPPORT_CANCELLATIONTOKEN_H
