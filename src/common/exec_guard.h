// Execution guards: per-statement resource limits enforced cooperatively.
//
// A statement runs under an ExecGuard carrying a wall-clock deadline, a
// cancellation token and row budgets. Hot loops — SQL joins, SHAPE case
// assembly, prediction joins, every algorithm's training and prediction
// passes — call the free checkpoint helpers (GuardCheck / GuardCharge*),
// which consult the guard installed for the current thread by ExecGuardScope
// and unwind with kCancelled / kDeadlineExceeded / kResourceExhausted when a
// limit trips. Without an installed guard the helpers are a pointer test, so
// checkpoints cost nothing on unguarded paths (recovery replay, tests).
// Callers need no rollback of their own for a trip: every mutating
// statement stages its effect and applies it only on success, so a failed
// statement leaves the catalogs as they were whether or not limits are set.
//
// Threading model: an ExecGuard belongs to the single thread executing the
// statement; only the CancelToken is shared across threads (it is how one
// session aborts another's statement) and is therefore atomic. Nothing here
// holds a lock, so the thread-safety analysis has no capabilities to track —
// the guard's contract is enforced by construction (thread-local install via
// ExecGuardScope) rather than by GUARDED_BY. Lock-aware callers are the other
// way around: the provider's guard-polling lock loops carry TRY_ACQUIRE
// annotations and consult Check() between attempts (DESIGN.md "Static
// enforcement").

#ifndef DMX_COMMON_EXEC_GUARD_H_
#define DMX_COMMON_EXEC_GUARD_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "common/status.h"

namespace dmx {

/// \brief Cooperative cancellation flag, shared between the session issuing
/// the statement and whoever wants to abort it. Thread-safe.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const { return cancelled_.load(std::memory_order_acquire); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// \brief Per-statement execution limits. Zero / null fields mean "no limit".
struct ExecLimits {
  /// Wall-clock budget, measured from ExecGuard construction (i.e. from
  /// statement start, so admission waits count against it).
  int64_t deadline_ms = 0;
  std::shared_ptr<CancelToken> cancel;
  /// Rows the statement may emit into its result rowset.
  uint64_t max_output_rows = 0;
  /// Rows the statement may materialize in intermediate state (join working
  /// sets, training caches, SHAPE child indexes).
  uint64_t max_working_set_rows = 0;
};

/// \brief Armed instance of ExecLimits for one statement execution.
class ExecGuard {
 public:
  explicit ExecGuard(const ExecLimits& limits);

  /// The checkpoint: kCancelled if the token fired, kDeadlineExceeded if the
  /// wall clock ran out, OK otherwise.
  Status Check();

  /// Charges `n` rows against the output budget (checks other limits too).
  Status ChargeOutputRows(uint64_t n);

  /// Charges `n` rows against the working-set budget (checks other limits).
  Status ChargeWorkingSet(uint64_t n);

  bool has_deadline() const { return has_deadline_; }
  std::chrono::steady_clock::time_point deadline() const { return deadline_; }

  /// Milliseconds of deadline budget left: -1 without a deadline, 0 once
  /// it has passed. The serving front end bounds its response-streaming
  /// writes with this, so one request deadline covers queueing, execution
  /// and the bytes back to the client.
  int64_t remaining_ms() const {
    if (!has_deadline_) return -1;
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline_ - std::chrono::steady_clock::now())
                    .count();
    return left > 0 ? left : 0;
  }
  const std::shared_ptr<CancelToken>& cancel_token() const {
    return limits_.cancel;
  }

 private:
  ExecLimits limits_;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_;
  uint64_t output_rows_ = 0;
  uint64_t working_set_rows_ = 0;
};

/// \brief RAII: installs `guard` as the current thread's guard; restores the
/// previous one on destruction (scopes nest, innermost wins).
class ExecGuardScope {
 public:
  explicit ExecGuardScope(ExecGuard* guard);
  ~ExecGuardScope();

  ExecGuardScope(const ExecGuardScope&) = delete;
  ExecGuardScope& operator=(const ExecGuardScope&) = delete;

 private:
  ExecGuard* previous_;
};

/// The guard installed for this thread, or nullptr.
ExecGuard* CurrentExecGuard();

// Checkpoint helpers for hot loops: no-ops (one pointer test) without an
// installed guard.
Status GuardCheck();
Status GuardChargeOutputRows(uint64_t n = 1);
Status GuardChargeWorkingSet(uint64_t n = 1);

}  // namespace dmx

#endif  // DMX_COMMON_EXEC_GUARD_H_
