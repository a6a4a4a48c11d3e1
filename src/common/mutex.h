// Annotated synchronization wrappers: the only place in the tree that may
// touch raw std synchronization primitives (enforced by tools/dmx_lint.py
// rule raw-sync-primitive). Everything else locks through these types so
// clang's -Wthread-safety can prove the DESIGN.md §9 lock regime:
//
//   Mutex / MutexLock        plain exclusive lock (admission, store).
//   SharedMutex              reader/writer lock, timed (the catalog lock);
//     WriterMutexLock /      DDL/DML take it exclusive, reads take it
//     ReaderMutexLock        shared.
//   CondVar                  condition variable bound to a Mutex at the wait
//                            call (absl::CondVar style).
//
// Because every lock in the tree passes through this one seam, it is also
// where the *dynamic* verification layers hook in under -DDMX_DEBUG_LOCKS=ON
// (DESIGN.md §11):
//
//   * lockdep (common/lockdep.h): each lock registers a per-site lock class
//     at construction; acquisitions record ordering edges and the first
//     observed inversion reports a would-deadlock diagnostic — on any
//     interleaving, not just the one that deadlocks.
//   * det-sched (common/det_sched.h): when a deterministic scenario is
//     active, acquire/release/wait become cooperative yield points and
//     blocking turns into try + yield, so the schedule explorer fully
//     controls the interleaving.
//   * Assert*Held become real per-thread ownership checks against lockdep's
//     held-set (in a plain build they remain compile-time claims only:
//     ASSERT_CAPABILITY tells the analysis a lock is held on paths that
//     provably own it, e.g. recovery replay under OpenStore's exclusive
//     lock, and the std primitives cannot portably self-identify an owner).
//
// With DMX_DEBUG_LOCKS off (the default) none of this exists: the wrappers
// compile to bare std calls, byte for byte the pre-lockdep code.

#ifndef DMX_COMMON_MUTEX_H_
#define DMX_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/thread_annotations.h"

#ifdef DMX_DEBUG_LOCKS
#include <source_location>

#include "common/det_sched.h"
#include "common/lockdep.h"

// Debug builds thread a source span through the lock entry points so
// lockdep diagnostics can print where each acquisition happened. The macro
// pair lets each signature exist exactly once below: PARAM appends the
// defaulted source_location parameter, FWD forwards it from the scoped
// holders (and expands to nothing — an argument-free call — when off).
#define DMX_LOCK_LOC_PARAM \
  , std::source_location dmx_loc = std::source_location::current()
#define DMX_LOCK_LOC_FWD dmx_loc
#else
#define DMX_LOCK_LOC_PARAM
#define DMX_LOCK_LOC_FWD
#endif

namespace dmx {

class CondVar;

/// \brief Exclusive lock wrapping std::mutex, carrying the capability
/// annotations the raw type lacks. The optional `name` labels the lockdep
/// lock class; unnamed locks are classed by construction site.
class DMX_CAPABILITY("mutex") Mutex {
 public:
#ifdef DMX_DEBUG_LOCKS
  explicit Mutex(const char* name = nullptr,
                 std::source_location site = std::source_location::current())
      : cls_(lockdep::RegisterLockClass(name, lockdep::LockKind::kMutex,
                                        site)) {}
#else
  Mutex() = default;
  explicit Mutex(const char* name) { (void)name; }
#endif
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

#ifdef DMX_DEBUG_LOCKS
  void Lock(std::source_location dmx_loc = std::source_location::current())
      DMX_ACQUIRE() {
    lockdep::PreAcquire(this, cls_, lockdep::AcqMode::kExclusive,
                        /*try_lock=*/false, dmx_loc);
    if (detsched::Active()) {
      detsched::SchedulePoint();
      while (!mu_.try_lock()) detsched::ContendedYield(this);
      detsched::NoteProgress();
    } else {
      mu_.lock();
    }
    lockdep::PostAcquire(this, cls_, lockdep::AcqMode::kExclusive, dmx_loc);
  }

  void Unlock() DMX_RELEASE() {
    lockdep::OnRelease(this);
    mu_.unlock();
    if (detsched::Active()) {
      detsched::NoteProgress();
      detsched::SchedulePoint();
    }
  }
#else
  void Lock() DMX_ACQUIRE() { mu_.lock(); }
  void Unlock() DMX_RELEASE() { mu_.unlock(); }
#endif

  /// Compile-time claim that this thread holds the lock; under
  /// DMX_DEBUG_LOCKS also a real per-thread ownership check.
  void AssertHeld() const DMX_ASSERT_CAPABILITY(this) {
#ifdef DMX_DEBUG_LOCKS
    lockdep::AssertHeld(this, cls_, lockdep::AcqMode::kExclusive);
#endif
  }

 private:
  friend class CondVar;
  std::mutex mu_;
#ifdef DMX_DEBUG_LOCKS
  const uint32_t cls_;
#endif
};

/// \brief RAII exclusive lock over a Mutex.
class DMX_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu DMX_LOCK_LOC_PARAM) DMX_ACQUIRE(mu)
      : mu_(mu) {
    mu_->Lock(DMX_LOCK_LOC_FWD);
  }
  ~MutexLock() DMX_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// \brief Condition variable used with Mutex. The mutex is named at each wait
/// call (absl::CondVar style) so the REQUIRES annotation can bind to it.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, waits up to `timeout` (or a notification),
  /// and re-acquires `mu` before returning. Under det-sched the wait is a
  /// yield point and resumption is at the scheduler's discretion — legal,
  /// because the timeout (and spurious wakeups) make "resume at any point"
  /// a real behaviour of the primitive.
  void WaitFor(Mutex* mu, std::chrono::milliseconds timeout
               DMX_LOCK_LOC_PARAM) DMX_REQUIRES(mu) {
#ifdef DMX_DEBUG_LOCKS
    lockdep::OnRelease(mu);
    if (detsched::Active()) {
      mu->mu_.unlock();
      detsched::NoteProgress();
      detsched::SchedulePoint();
      while (!mu->mu_.try_lock()) detsched::ContendedYield(mu);
      detsched::NoteProgress();
    } else {
      std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
      cv_.wait_for(lock, timeout);
      lock.release();  // Ownership stays with the caller's scope.
    }
    lockdep::PostAcquire(mu, mu->cls_, lockdep::AcqMode::kExclusive,
                         dmx_loc);
#else
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    cv_.wait_for(lock, timeout);
    lock.release();  // Ownership stays with the caller's scope.
#endif
  }

  /// Like WaitFor with no timeout: returns on a notification (or a spurious
  /// wakeup), so callers re-check their predicate in a loop. Under
  /// det-sched it is the same yield point as WaitFor.
  void Wait(Mutex* mu DMX_LOCK_LOC_PARAM) DMX_REQUIRES(mu) {
#ifdef DMX_DEBUG_LOCKS
    if (detsched::Active()) {
      WaitFor(mu, std::chrono::milliseconds(0), dmx_loc);
      return;
    }
    lockdep::OnRelease(mu);
    {
      std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
      cv_.wait(lock);
      lock.release();  // Ownership stays with the caller's scope.
    }
    lockdep::PostAcquire(mu, mu->cls_, lockdep::AcqMode::kExclusive,
                         dmx_loc);
#else
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // Ownership stays with the caller's scope.
#endif
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// \brief Reader/writer lock wrapping std::shared_timed_mutex. Timed so
/// writers blocked behind long readers can poll their ExecGuard deadline
/// (provider.cc's guard-aware acquisition loop).
class DMX_CAPABILITY("shared_mutex") SharedMutex {
 public:
#ifdef DMX_DEBUG_LOCKS
  explicit SharedMutex(
      const char* name = nullptr,
      std::source_location site = std::source_location::current())
      : cls_(lockdep::RegisterLockClass(
            name, lockdep::LockKind::kSharedMutex, site)) {}
#else
  SharedMutex() = default;
  explicit SharedMutex(const char* name) { (void)name; }
#endif
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

#ifdef DMX_DEBUG_LOCKS
  void Lock(std::source_location dmx_loc = std::source_location::current())
      DMX_ACQUIRE() {
    lockdep::PreAcquire(this, cls_, lockdep::AcqMode::kExclusive,
                        /*try_lock=*/false, dmx_loc);
    if (detsched::Active()) {
      detsched::SchedulePoint();
      while (!mu_.try_lock()) detsched::ContendedYield(this);
      detsched::NoteProgress();
    } else {
      mu_.lock();
    }
    lockdep::PostAcquire(this, cls_, lockdep::AcqMode::kExclusive, dmx_loc);
  }

  /// Bounded try: under det-sched the timeout collapses to one scheduled
  /// retry — the caller's poll loop supplies the repetition, and a bounded
  /// try is never the waiting leg of a deadlock (lockdep records no
  /// incoming edge for it).
  bool TryLockFor(std::chrono::milliseconds timeout DMX_LOCK_LOC_PARAM)
      DMX_TRY_ACQUIRE(true) {
    lockdep::PreAcquire(this, cls_, lockdep::AcqMode::kExclusive,
                        /*try_lock=*/true, dmx_loc);
    bool acquired;
    if (detsched::Active()) {
      detsched::SchedulePoint();
      acquired = mu_.try_lock();
      if (!acquired) {
        detsched::SchedulePoint();  // voluntary: a try never parks for good
        acquired = mu_.try_lock();
      }
    } else {
      acquired = mu_.try_lock_for(timeout);
    }
    if (acquired) {
      lockdep::PostAcquire(this, cls_, lockdep::AcqMode::kExclusive,
                           dmx_loc);
      if (detsched::Active()) detsched::NoteProgress();
    }
    return acquired;
  }

  void Unlock() DMX_RELEASE() {
    lockdep::OnRelease(this);
    mu_.unlock();
    if (detsched::Active()) {
      detsched::NoteProgress();
      detsched::SchedulePoint();
    }
  }

  void LockShared(
      std::source_location dmx_loc = std::source_location::current())
      DMX_ACQUIRE_SHARED() {
    lockdep::PreAcquire(this, cls_, lockdep::AcqMode::kShared,
                        /*try_lock=*/false, dmx_loc);
    if (detsched::Active()) {
      detsched::SchedulePoint();
      while (!mu_.try_lock_shared()) detsched::ContendedYield(this);
      detsched::NoteProgress();
    } else {
      mu_.lock_shared();
    }
    lockdep::PostAcquire(this, cls_, lockdep::AcqMode::kShared, dmx_loc);
  }

  bool TryLockSharedFor(std::chrono::milliseconds timeout
                        DMX_LOCK_LOC_PARAM) DMX_TRY_ACQUIRE_SHARED(true) {
    lockdep::PreAcquire(this, cls_, lockdep::AcqMode::kShared,
                        /*try_lock=*/true, dmx_loc);
    bool acquired;
    if (detsched::Active()) {
      detsched::SchedulePoint();
      acquired = mu_.try_lock_shared();
      if (!acquired) {
        detsched::SchedulePoint();
        acquired = mu_.try_lock_shared();
      }
    } else {
      acquired = mu_.try_lock_shared_for(timeout);
    }
    if (acquired) {
      lockdep::PostAcquire(this, cls_, lockdep::AcqMode::kShared, dmx_loc);
      if (detsched::Active()) detsched::NoteProgress();
    }
    return acquired;
  }

  void UnlockShared() DMX_RELEASE_SHARED() {
    lockdep::OnRelease(this);
    mu_.unlock_shared();
    if (detsched::Active()) {
      detsched::NoteProgress();
      detsched::SchedulePoint();
    }
  }
#else
  void Lock() DMX_ACQUIRE() { mu_.lock(); }
  bool TryLockFor(std::chrono::milliseconds timeout) DMX_TRY_ACQUIRE(true) {
    return mu_.try_lock_for(timeout);
  }
  void Unlock() DMX_RELEASE() { mu_.unlock(); }

  void LockShared() DMX_ACQUIRE_SHARED() { mu_.lock_shared(); }
  bool TryLockSharedFor(std::chrono::milliseconds timeout)
      DMX_TRY_ACQUIRE_SHARED(true) {
    return mu_.try_lock_shared_for(timeout);
  }
  void UnlockShared() DMX_RELEASE_SHARED() { mu_.unlock_shared(); }
#endif

  /// Compile-time claim that this thread holds the lock exclusively (used
  /// by the recovery-replay path, which runs under OpenStore's exclusive
  /// lock but re-enters Execute through an internal connection); under
  /// DMX_DEBUG_LOCKS also a real per-thread ownership check.
  void AssertHeld() const DMX_ASSERT_CAPABILITY(this) {
#ifdef DMX_DEBUG_LOCKS
    lockdep::AssertHeld(this, cls_, lockdep::AcqMode::kExclusive);
#endif
  }
  /// Compile-time claim that this thread holds at least a shared lock;
  /// under DMX_DEBUG_LOCKS also a real per-thread ownership check.
  void AssertReaderHeld() const DMX_ASSERT_SHARED_CAPABILITY(this) {
#ifdef DMX_DEBUG_LOCKS
    lockdep::AssertHeld(this, cls_, lockdep::AcqMode::kShared);
#endif
  }

 private:
  std::shared_timed_mutex mu_;
#ifdef DMX_DEBUG_LOCKS
  const uint32_t cls_;
#endif
};

/// \brief RAII exclusive lock over a SharedMutex.
class DMX_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu DMX_LOCK_LOC_PARAM)
      DMX_ACQUIRE(mu)
      : mu_(mu) {
    mu_->Lock(DMX_LOCK_LOC_FWD);
  }
  ~WriterMutexLock() DMX_RELEASE() { mu_->Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// \brief RAII shared lock over a SharedMutex.
class DMX_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu DMX_LOCK_LOC_PARAM)
      DMX_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_->LockShared(DMX_LOCK_LOC_FWD);
  }
  ~ReaderMutexLock() DMX_RELEASE() { mu_->UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// \brief RAII *adoption* of an exclusive SharedMutex lock acquired out of
/// line (the guard-polling acquisition loop): the constructor requires the
/// lock already held; the destructor releases it.
class DMX_SCOPED_CAPABILITY AdoptedWriterLock {
 public:
  explicit AdoptedWriterLock(SharedMutex* mu) DMX_REQUIRES(mu) : mu_(mu) {}
  ~AdoptedWriterLock() DMX_RELEASE() { mu_->Unlock(); }

  AdoptedWriterLock(const AdoptedWriterLock&) = delete;
  AdoptedWriterLock& operator=(const AdoptedWriterLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// \brief RAII adoption of a shared SharedMutex lock acquired out of line.
class DMX_SCOPED_CAPABILITY AdoptedReaderLock {
 public:
  explicit AdoptedReaderLock(SharedMutex* mu) DMX_REQUIRES_SHARED(mu)
      : mu_(mu) {}
  ~AdoptedReaderLock() DMX_RELEASE() { mu_->UnlockShared(); }

  AdoptedReaderLock(const AdoptedReaderLock&) = delete;
  AdoptedReaderLock& operator=(const AdoptedReaderLock&) = delete;

 private:
  SharedMutex* const mu_;
};

}  // namespace dmx

#endif  // DMX_COMMON_MUTEX_H_
