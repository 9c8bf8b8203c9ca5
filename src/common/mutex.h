// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Capability-annotated synchronization layer. Every mutex and condition
// variable in the library goes through the wrappers below (enforced by
// the sync-via-common-mutex repo lint) so that Clang's thread-safety
// analysis (-Wthread-safety, promoted to -Werror on clang builds) can
// prove lock-acquisition invariants at compile time: each guarded field
// names the Mutex that protects it with PLANAR_GUARDED_BY, each helper
// that expects its caller to hold a lock says so with PLANAR_REQUIRES,
// and any unguarded access is a build break instead of a latent race.
// On non-Clang compilers the attributes expand to nothing and the
// wrappers are thin veneers over the standard primitives.
//
// Two runtime complements cover what the static analysis cannot express:
//  - ThreadSanitizer (tsan preset) catches the races a schedule happens
//    to exercise;
//  - the debug-only lock-order validator (PLANAR_VALIDATE_LOCK_ORDER)
//    assigns every Mutex a rank and PLANAR_CHECK-fails on out-of-rank
//    or recursive acquisition, turning potential deadlocks into
//    deterministic aborts (see the lock-rank table below).

#ifndef PLANAR_COMMON_MUTEX_H_
#define PLANAR_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <shared_mutex>

// --- Clang thread-safety-analysis attribute set ---------------------------
// The full capability vocabulary, named after the semantics (REQUIRES,
// ACQUIRE, ...) rather than the legacy lock-specific spellings. Each
// macro expands to the underlying __attribute__ only when the compiler
// implements the analysis; everywhere else they vanish, so annotated
// code stays portable.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define PLANAR_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#ifndef PLANAR_THREAD_ANNOTATION_
#define PLANAR_THREAD_ANNOTATION_(x)  // no-op on non-Clang compilers
#endif

/// Marks a type as a capability (a lockable resource).
#define PLANAR_CAPABILITY(x) PLANAR_THREAD_ANNOTATION_(capability(x))
/// Marks an RAII type whose lifetime equals a critical section.
#define PLANAR_SCOPED_CAPABILITY PLANAR_THREAD_ANNOTATION_(scoped_lockable)
/// Field/variable may only be touched while holding `x`.
#define PLANAR_GUARDED_BY(x) PLANAR_THREAD_ANNOTATION_(guarded_by(x))
/// Pointee (not the pointer) is protected by `x`.
#define PLANAR_PT_GUARDED_BY(x) PLANAR_THREAD_ANNOTATION_(pt_guarded_by(x))
/// Documents (and checks, with -Wthread-safety-analysis) acquisition order.
#define PLANAR_ACQUIRED_BEFORE(...) \
  PLANAR_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define PLANAR_ACQUIRED_AFTER(...) \
  PLANAR_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))
/// Caller must hold the capability exclusively (resp. shared).
#define PLANAR_REQUIRES(...) \
  PLANAR_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define PLANAR_REQUIRES_SHARED(...) \
  PLANAR_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))
/// Function acquires (and holds past return) the capability.
#define PLANAR_ACQUIRE(...) \
  PLANAR_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define PLANAR_ACQUIRE_SHARED(...) \
  PLANAR_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
/// Function releases the capability the caller holds.
#define PLANAR_RELEASE(...) \
  PLANAR_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define PLANAR_RELEASE_SHARED(...) \
  PLANAR_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
/// Function acquires the capability iff it returns `b`.
#define PLANAR_TRY_ACQUIRE(b, ...) \
  PLANAR_THREAD_ANNOTATION_(try_acquire_capability(b, __VA_ARGS__))
#define PLANAR_TRY_ACQUIRE_SHARED(b, ...) \
  PLANAR_THREAD_ANNOTATION_(try_acquire_shared_capability(b, __VA_ARGS__))
/// Caller must NOT hold the capability (non-reentrancy contract).
#define PLANAR_EXCLUDES(...) \
  PLANAR_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
/// Runtime assertion that the capability is held (trusted by analysis).
#define PLANAR_ASSERT_CAPABILITY(x) \
  PLANAR_THREAD_ANNOTATION_(assert_capability(x))
/// Function returns a reference to the capability guarding its result.
#define PLANAR_RETURN_CAPABILITY(x) PLANAR_THREAD_ANNOTATION_(lock_returned(x))
/// Escape hatch. The only sanctioned uses are the condition-variable
/// wait helpers in this header, whose unlock/relock cycle the analysis
/// cannot model; anywhere else it is a review flag.
#define PLANAR_NO_THREAD_SAFETY_ANALYSIS \
  PLANAR_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace planar {

// --- Lock-rank table ------------------------------------------------------
// Every Mutex in src/ is constructed with one of the named ranks below
// (CONTRIBUTING: "Thread-safety annotations"). Ranks order the tree's
// mutexes from outermost to innermost: a thread may only acquire a
// Mutex whose rank is strictly greater than every ranked Mutex it
// already holds, so any cycle — the necessary condition for deadlock —
// aborts deterministically under PLANAR_VALIDATE_LOCK_ORDER. Leave gaps
// when adding ranks so new subsystems slot in without renumbering.
inline constexpr int kLockRankUnranked = -1;  ///< exempt from rank checks
/// Thread-pool task queue (ThreadPool::mu_): outermost of all — held
/// only to push/pop closures, never while running one, and explicitly
/// below kLockRankEngineQueue so pool bookkeeping can never wrap engine
/// admission (a pool worker acquires the engine queue lock only after
/// the pool lock is released).
inline constexpr int kLockRankThreadPool = 50;
/// Per-ParallelFor completion latch (ParallelJob::mu): guards the
/// done-chunk count one fan-out is waiting on. Above the pool queue —
/// a worker signals completion after popping (and releasing) the pool
/// lock — and below every engine/catalog rank, because user closures
/// run with no job lock held.
inline constexpr int kLockRankThreadPoolJob = 60;
/// Engine admission queue (BoundedQueue::mu_): guards only the sleep
/// and wake of idle consumers (items pass through a lock-free ring);
/// held only within queue methods, never while calling into catalog or
/// metrics.
inline constexpr int kLockRankEngineQueue = 100;
/// Ingest manager registry (IngestManager::mu_): maps target names to
/// shards; held only for the lookup, released before any shard work.
inline constexpr int kLockRankIngestManager = 140;
/// Ingest shard state (IngestManager::Shard::mu_): guards the delta
/// epoch and merger handshake. Sits between the manager registry and the
/// catalog because the merger installs (kLockRankCatalog) while advancing
/// the shard epoch under this lock's protocol.
inline constexpr int kLockRankIngestDelta = 150;
/// Catalog snapshot map (Catalog::mu_): may be acquired while no queue
/// lock is held; index-set builds happen outside it by design.
inline constexpr int kLockRankCatalog = 200;
/// Engine metrics histograms (EngineMetrics::hist_mu_): innermost leaf —
/// safe to take from any engine path, must never wrap another lock.
inline constexpr int kLockRankEngineMetrics = 300;

#if defined(PLANAR_VALIDATE_LOCK_ORDER)
inline constexpr bool kLockOrderValidationEnabled = true;
#else
inline constexpr bool kLockOrderValidationEnabled = false;
#endif

namespace internal {
// Lock-order registry (mutex.cc): a thread-local stack of held mutexes.
// CheckAcquire aborts (PLANAR_CHECK-style message to stderr) on
// recursive acquisition of any Mutex and on rank order violations
// between ranked ones; Acquired/Released keep the stack current. The
// functions are always compiled so every TU links the same symbols;
// calls are gated on PLANAR_VALIDATE_LOCK_ORDER at the call site.
void LockOrderCheckAcquire(const void* mu, int rank);
void LockOrderAcquired(const void* mu, int rank);
void LockOrderReleased(const void* mu);
}  // namespace internal

/// Exclusive/shared mutex carrying thread-safety-analysis capability
/// annotations and an optional deadlock-detection rank. Prefer the RAII
/// guards (MutexLock / ReaderMutexLock) over manual Lock/Unlock pairs.
class PLANAR_CAPABILITY("mutex") Mutex {
 public:
  /// `rank` positions this mutex in the global lock order (see the
  /// table above); kLockRankUnranked opts out of rank checking (but
  /// never out of recursive-acquisition detection).
  explicit Mutex(int rank = kLockRankUnranked) : rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  /// Blocks until exclusive ownership is acquired.
  void Lock() PLANAR_ACQUIRE() {
#if defined(PLANAR_VALIDATE_LOCK_ORDER)
    internal::LockOrderCheckAcquire(this, rank_);
#endif
    raw_.lock();
#if defined(PLANAR_VALIDATE_LOCK_ORDER)
    internal::LockOrderAcquired(this, rank_);
#endif
  }

  /// Releases exclusive ownership.
  void Unlock() PLANAR_RELEASE() {
#if defined(PLANAR_VALIDATE_LOCK_ORDER)
    internal::LockOrderReleased(this);
#endif
    raw_.unlock();
  }

  /// Acquires exclusive ownership iff it is immediately available.
  bool TryLock() PLANAR_TRY_ACQUIRE(true) {
#if defined(PLANAR_VALIDATE_LOCK_ORDER)
    internal::LockOrderCheckAcquire(this, rank_);
#endif
    const bool acquired = raw_.try_lock();
#if defined(PLANAR_VALIDATE_LOCK_ORDER)
    if (acquired) internal::LockOrderAcquired(this, rank_);
#endif
    return acquired;
  }

  /// Blocks until shared (reader) ownership is acquired.
  void ReaderLock() PLANAR_ACQUIRE_SHARED() {
#if defined(PLANAR_VALIDATE_LOCK_ORDER)
    internal::LockOrderCheckAcquire(this, rank_);
#endif
    raw_.lock_shared();
#if defined(PLANAR_VALIDATE_LOCK_ORDER)
    internal::LockOrderAcquired(this, rank_);
#endif
  }

  /// Releases shared ownership.
  void ReaderUnlock() PLANAR_RELEASE_SHARED() {
#if defined(PLANAR_VALIDATE_LOCK_ORDER)
    internal::LockOrderReleased(this);
#endif
    raw_.unlock_shared();
  }

  /// Acquires shared ownership iff it is immediately available.
  bool ReaderTryLock() PLANAR_TRY_ACQUIRE_SHARED(true) {
#if defined(PLANAR_VALIDATE_LOCK_ORDER)
    internal::LockOrderCheckAcquire(this, rank_);
#endif
    const bool acquired = raw_.try_lock_shared();
#if defined(PLANAR_VALIDATE_LOCK_ORDER)
    if (acquired) internal::LockOrderAcquired(this, rank_);
#endif
    return acquired;
  }

  /// This mutex's lock-order rank.
  int rank() const { return rank_; }

 private:
  friend class CondVar;

  // Unannotated relock/unlock used only by CondVar's wait cycle: the
  // analysis models a wait as "the lock is held throughout" (which is
  // what callers observe), so the transient release must not appear as
  // annotated Acquire/Release calls. The lock-order registry still sees
  // both edges, keeping rank bookkeeping exact across waits.
  void WaitCycleUnlock() {
#if defined(PLANAR_VALIDATE_LOCK_ORDER)
    internal::LockOrderReleased(this);
#endif
    raw_.unlock();
  }
  void WaitCycleRelock() {
#if defined(PLANAR_VALIDATE_LOCK_ORDER)
    internal::LockOrderCheckAcquire(this, rank_);
#endif
    raw_.lock();
#if defined(PLANAR_VALIDATE_LOCK_ORDER)
    internal::LockOrderAcquired(this, rank_);
#endif
  }

  std::shared_mutex raw_;
  const int rank_;
};

/// RAII exclusive lock: acquires in the constructor, releases in the
/// destructor. The annotation makes the guarded scope visible to the
/// analysis.
class PLANAR_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) PLANAR_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() PLANAR_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// RAII shared (reader) lock. Concurrent ReaderMutexLock holders never
/// block each other; the analysis permits only const access to fields
/// guarded by `mu` inside the scope.
class PLANAR_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(Mutex* mu) PLANAR_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->ReaderLock();
  }
  ~ReaderMutexLock() PLANAR_RELEASE() { mu_->ReaderUnlock(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable paired with planar::Mutex. Waits require the
/// caller to hold the mutex exclusively — write the standard re-check
/// loop around every wait:
///
///   MutexLock lock(&mu_);
///   while (!PredicateLocked()) cv_.Wait(&mu_);
///
/// The transient unlock/relock inside a wait is invisible to the
/// thread-safety analysis (by design: callers hold the lock before and
/// after), which is why predicates must be re-checked by the caller
/// rather than passed in as lambdas the analysis cannot attribute.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `*mu`, blocks until notified (or spuriously
  /// woken), and reacquires `*mu` before returning.
  void Wait(Mutex* mu) PLANAR_REQUIRES(mu) {
    WaitCycle cycle(mu);
    cv_.wait(cycle);
  }

  /// Wait with a deadline. Returns false when `deadline` passed without
  /// a notification (the mutex is reacquired either way). A deadline
  /// already in the past returns false without blocking.
  bool WaitUntil(Mutex* mu, std::chrono::steady_clock::time_point deadline)
      PLANAR_REQUIRES(mu) {
    WaitCycle cycle(mu);
    return cv_.wait_until(cycle, deadline) == std::cv_status::no_timeout;
  }

  /// Wakes one waiter. Callers are not required to hold the mutex.
  void Signal() { cv_.notify_one(); }

  /// Wakes every waiter.
  void SignalAll() { cv_.notify_all(); }

 private:
  // BasicLockable adapter handed to condition_variable_any: routes the
  // wait's internal unlock/relock through the Mutex's wait-cycle hooks
  // so the lock-order registry stays exact while the thread-safety
  // analysis (correctly) keeps treating the lock as held by the caller.
  class WaitCycle {
   public:
    explicit WaitCycle(Mutex* mu) : mu_(mu) {}
    void lock() { mu_->WaitCycleRelock(); }
    void unlock() { mu_->WaitCycleUnlock(); }

   private:
    Mutex* const mu_;
  };

  std::condition_variable_any cv_;
};

}  // namespace planar

#endif  // PLANAR_COMMON_MUTEX_H_
