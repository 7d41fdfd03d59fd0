// The repo's lock layer: every mutex, spinlock and seqlock in src/ lives
// behind the wrappers in this file (lint rule R7 enforces it). Two things
// ride on that single chokepoint:
//
//  * Static discipline — Clang Thread Safety Analysis. The wrappers are
//    CAPABILITY-annotated and the macros below (GUARDED_BY, REQUIRES,
//    ACQUIRE, ...) let code name which lock protects which field, turning
//    the locking convention into a -Wthread-safety -Werror build invariant
//    (tools/ci.sh `thread-safety` step; clang-only, the macros expand to
//    nothing under gcc).
//
//  * Runtime discipline — lockcheck (src/pmsim/lockcheck.h, DESIGN.md §16).
//    Every wrapper reports acquire/release/seq-read events through the
//    observer hook below. With no observer installed (the default) each lock
//    operation pays exactly one relaxed atomic load and a never-taken branch
//    to a cold outlined call; the wrappers never call into pmsim and never touch virtual
//    time, so enabling or disabling lockcheck cannot perturb any
//    virtual-time metric (the determinism contract, DESIGN.md §10).
//
// This header depends only on the standard library and src/common/simd.h
// (CpuRelax); pmsim installs the observer, src/common never links it.
#ifndef SRC_COMMON_LOCK_H_
#define SRC_COMMON_LOCK_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "src/common/simd.h"

// --- Clang Thread Safety Analysis macros -------------------------------------
// Abseil-style spellings. Only clang implements the attributes; under gcc the
// macros expand to nothing so annotated code builds warning-free everywhere.
#if defined(__clang__)
#define CCLBT_TSA(x) __attribute__((x))
#else
#define CCLBT_TSA(x)  // not supported by this compiler
#endif

#define CAPABILITY(x) CCLBT_TSA(capability(x))
#define SCOPED_CAPABILITY CCLBT_TSA(scoped_lockable)
#define GUARDED_BY(x) CCLBT_TSA(guarded_by(x))
#define PT_GUARDED_BY(x) CCLBT_TSA(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) CCLBT_TSA(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) CCLBT_TSA(acquired_after(__VA_ARGS__))
#define REQUIRES(...) CCLBT_TSA(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) CCLBT_TSA(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) CCLBT_TSA(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) CCLBT_TSA(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) CCLBT_TSA(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) CCLBT_TSA(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) CCLBT_TSA(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) CCLBT_TSA(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) CCLBT_TSA(try_acquire_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) CCLBT_TSA(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) CCLBT_TSA(assert_capability(x))
#define RETURN_CAPABILITY(x) CCLBT_TSA(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS CCLBT_TSA(no_thread_safety_analysis)

// Keeps the (almost always dead) observer-notify paths out of the inlined
// lock fast paths: with no observer installed, a lock op costs one relaxed
// load and a never-taken branch to a cold outlined call.
#if defined(__GNUC__) || defined(__clang__)
#define CCLBT_NOINLINE_COLD __attribute__((noinline, cold))
#else
#define CCLBT_NOINLINE_COLD
#endif

namespace cclbt::sync {

// --- observer hook -----------------------------------------------------------

enum class LockKind : uint8_t {
  kMutex = 0,
  kSharedMutex = 1,
  kSpin = 2,
  kSeqLock = 3,
};

// Receives every lock event in the process while installed. Implemented by
// pmsim's lockcheck; wrappers call it with the lock's address (identity), its
// static name (diagnostics) and what happened. Implementations must not call
// back into any sync:: lock operation from these hooks.
class LockObserver {
 public:
  // `exclusive` is false for shared (reader) holds of a SharedMutex.
  // `trylock` marks a non-blocking acquisition (cannot deadlock, so the
  // lock-order graph ignores it).
  virtual void OnLockAcquire(const void* lock, const char* name, LockKind kind,
                             bool exclusive, bool trylock) = 0;
  virtual void OnLockRelease(const void* lock, const char* name, LockKind kind,
                             bool exclusive) = 0;
  // Optimistic seqlock read sections: Begin fires once an even (unlocked)
  // snapshot is obtained, Retire on the matching validate.
  virtual void OnSeqReadBegin(const void* lock, const char* name) = 0;
  virtual void OnSeqReadRetire(const void* lock, const char* name, bool validated) = 0;

 protected:
  ~LockObserver() = default;
};

namespace internal {
// The process-wide observer slot. Inline so the whole layer stays
// header-only: src/common gains no link dependency on the checker.
inline std::atomic<LockObserver*> g_observer{nullptr};
}  // namespace internal

inline LockObserver* observer() {
  return internal::g_observer.load(std::memory_order_acquire);
}
// Hot-path gate: a relaxed null test only. The wrappers' notify helpers
// re-read the slot through observer() (acquire) before dereferencing, so an
// installer's prior writes are visible to the first notified operation.
inline bool ObserverInstalled() {
  return internal::g_observer.load(std::memory_order_relaxed) != nullptr;
}
// Single-owner install: fails (returns false) if another observer is live.
inline bool InstallObserver(LockObserver* obs) {
  LockObserver* expected = nullptr;
  return internal::g_observer.compare_exchange_strong(expected, obs,
                                                      std::memory_order_acq_rel);
}
// Removes `obs` if it is the installed observer (no-op otherwise).
inline void RemoveObserver(LockObserver* obs) {
  LockObserver* expected = obs;
  internal::g_observer.compare_exchange_strong(expected, nullptr,
                                               std::memory_order_acq_rel);
}

// --- Mutex -------------------------------------------------------------------

// std::mutex with a capability annotation, a diagnostic name and observer
// events. Satisfies BasicLockable/Lockable.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(const char* name) : name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() {
    mu_.lock();
    if (ObserverInstalled()) [[unlikely]] {
      NotifyAcquire(/*trylock=*/false);
    }
  }
  bool try_lock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) {
      return false;
    }
    if (ObserverInstalled()) [[unlikely]] {
      NotifyAcquire(/*trylock=*/true);
    }
    return true;
  }
  void unlock() RELEASE() {
    if (ObserverInstalled()) [[unlikely]] {
      NotifyRelease();
    }
    mu_.unlock();
  }

  const char* name() const { return name_; }

 private:
  CCLBT_NOINLINE_COLD void NotifyAcquire(bool trylock) {
    if (LockObserver* obs = observer()) {
      obs->OnLockAcquire(this, name_, LockKind::kMutex, /*exclusive=*/true,
                         trylock);
    }
  }
  CCLBT_NOINLINE_COLD void NotifyRelease() {
    if (LockObserver* obs = observer()) {
      obs->OnLockRelease(this, name_, LockKind::kMutex, /*exclusive=*/true);
    }
  }

  std::mutex mu_;
  const char* name_ = "mutex";
};

// --- SharedMutex -------------------------------------------------------------

class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  explicit SharedMutex(const char* name) : name_(name) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ACQUIRE() {
    mu_.lock();
    if (ObserverInstalled()) [[unlikely]] {
      NotifyAcquire(/*exclusive=*/true, /*trylock=*/false);
    }
  }
  bool try_lock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) {
      return false;
    }
    if (ObserverInstalled()) [[unlikely]] {
      NotifyAcquire(/*exclusive=*/true, /*trylock=*/true);
    }
    return true;
  }
  void unlock() RELEASE() {
    if (ObserverInstalled()) [[unlikely]] {
      NotifyRelease(/*exclusive=*/true);
    }
    mu_.unlock();
  }
  void lock_shared() ACQUIRE_SHARED() {
    mu_.lock_shared();
    if (ObserverInstalled()) [[unlikely]] {
      NotifyAcquire(/*exclusive=*/false, /*trylock=*/false);
    }
  }
  bool try_lock_shared() TRY_ACQUIRE_SHARED(true) {
    if (!mu_.try_lock_shared()) {
      return false;
    }
    if (ObserverInstalled()) [[unlikely]] {
      NotifyAcquire(/*exclusive=*/false, /*trylock=*/true);
    }
    return true;
  }
  void unlock_shared() RELEASE_SHARED() {
    if (ObserverInstalled()) [[unlikely]] {
      NotifyRelease(/*exclusive=*/false);
    }
    mu_.unlock_shared();
  }

  const char* name() const { return name_; }

 private:
  CCLBT_NOINLINE_COLD void NotifyAcquire(bool exclusive, bool trylock) {
    if (LockObserver* obs = observer()) {
      obs->OnLockAcquire(this, name_, LockKind::kSharedMutex, exclusive, trylock);
    }
  }
  CCLBT_NOINLINE_COLD void NotifyRelease(bool exclusive) {
    if (LockObserver* obs = observer()) {
      obs->OnLockRelease(this, name_, LockKind::kSharedMutex, exclusive);
    }
  }

  std::shared_mutex mu_;
  const char* name_ = "shared_mutex";
};

// --- TtasSpinLock ------------------------------------------------------------

// Test-and-test-and-set spinlock (the per-DIMM XPBuffer lock, the trace ring
// lock). Critical sections are a few dozen nanoseconds and sharding keeps
// real contention low, so the uncontended exchange beats a std::mutex; under
// contention it backs off to yield instead of burning the core.
class CAPABILITY("spinlock") TtasSpinLock {
 public:
  TtasSpinLock() = default;
  explicit TtasSpinLock(const char* name) : name_(name) {}

  TtasSpinLock(const TtasSpinLock&) = delete;
  TtasSpinLock& operator=(const TtasSpinLock&) = delete;

  void lock() ACQUIRE() {
    int spins = 0;
    while (locked_.exchange(true, std::memory_order_acquire)) {
      do {
        if (++spins > 256) {
          std::this_thread::yield();
          spins = 0;
        }
      } while (locked_.load(std::memory_order_relaxed));
    }
    if (ObserverInstalled()) [[unlikely]] {
      NotifyAcquire(/*trylock=*/false);
    }
  }
  bool try_lock() TRY_ACQUIRE(true) {
    if (locked_.load(std::memory_order_relaxed) ||
        locked_.exchange(true, std::memory_order_acquire)) {
      return false;
    }
    if (ObserverInstalled()) [[unlikely]] {
      NotifyAcquire(/*trylock=*/true);
    }
    return true;
  }
  void unlock() RELEASE() {
    if (ObserverInstalled()) [[unlikely]] {
      NotifyRelease();
    }
    locked_.store(false, std::memory_order_release);
  }

  const char* name() const { return name_; }

 private:
  CCLBT_NOINLINE_COLD void NotifyAcquire(bool trylock) {
    if (LockObserver* obs = observer()) {
      obs->OnLockAcquire(this, name_, LockKind::kSpin, /*exclusive=*/true,
                         trylock);
    }
  }
  CCLBT_NOINLINE_COLD void NotifyRelease() {
    if (LockObserver* obs = observer()) {
      obs->OnLockRelease(this, name_, LockKind::kSpin, /*exclusive=*/true);
    }
  }

  std::atomic<bool> locked_{false};
  const char* name_ = "spinlock";
};

// --- SeqLock -----------------------------------------------------------------

// The repo's optimistic version lock (paper §4.4 Optimization 2): an even
// version means unlocked; writers make it odd, readers snapshot an even
// version, read optimistically and revalidate. Two writer flavours share the
// one counter:
//
//  * CAS writers (BufferNode, baseline leaf handles): TryLock/Lock/Unlock —
//    the version word *is* the mutual exclusion.
//  * Externally serialized writers (DramBTree): WriteBegin/WriteEnd bump the
//    version with plain stores; callers hold a separate exclusive lock, the
//    version only fences out optimistic readers.
//
// Readers never hold the capability — ReadBegin/ReadValidate sections are
// reported to the observer as their own event kind, and seqlock-guarded data
// is deliberately NOT annotated GUARDED_BY (optimistic reads would be
// static-analysis violations by construction). Writer-side helpers carry
// REQUIRES(lock) instead; see DESIGN.md §16.
class CAPABILITY("seqlock") SeqLock {
 public:
  SeqLock() = default;
  explicit SeqLock(const char* name) : name_(name) {}

  SeqLock(const SeqLock&) = delete;
  SeqLock& operator=(const SeqLock&) = delete;

  // --- CAS writer side -------------------------------------------------------
  bool TryLock() TRY_ACQUIRE(true) {
    if (!TryLockRaw()) {
      return false;
    }
    if (ObserverInstalled()) [[unlikely]] {
      NotifyAcquire(/*trylock=*/true);
    }
    return true;
  }
  void Lock() ACQUIRE() {
    // Short PAUSE phase first: per-node conflicts are usually a few hundred
    // cycles long, and an immediate yield costs a syscall on every conflict
    // at low thread counts. Benches oversubscribe OS threads, so after the
    // pause budget a preempted lock holder still gets the CPU via yield.
    for (int spins = 0; !TryLockRaw(); spins++) {
      if (spins < kSpinsBeforeYield) {
        simd::CpuRelax();
      } else {
        std::this_thread::yield();
      }
    }
    if (ObserverInstalled()) [[unlikely]] {
      NotifyAcquire(/*trylock=*/false);
    }
  }
  void Unlock() RELEASE() {
    if (ObserverInstalled()) [[unlikely]] {
      NotifyRelease();
    }
    version_.fetch_add(1, std::memory_order_release);
  }

  // --- externally serialized writer side ------------------------------------
  // Caller must already hold the structure's exclusive lock; these only make
  // the version odd/even around the mutation so optimistic readers retry.
  void WriteBegin() ACQUIRE() {
    version_.store(version_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    if (ObserverInstalled()) [[unlikely]] {
      NotifyAcquire(/*trylock=*/false);
    }
  }
  void WriteEnd() RELEASE() {
    if (ObserverInstalled()) [[unlikely]] {
      NotifyRelease();
    }
    version_.store(version_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_release);
  }

  // --- reader side -----------------------------------------------------------
  // Spin-waits for an even (unlocked) version. Every snapshot must be retired
  // by exactly one ReadValidate.
  uint64_t ReadBegin() const {
    uint64_t v;
    for (int spins = 0;
         ((v = version_.load(std::memory_order_acquire)) & 1) != 0; spins++) {
      if (spins < kSpinsBeforeYield) {
        simd::CpuRelax();
      } else {
        std::this_thread::yield();
      }
    }
    if (ObserverInstalled()) [[unlikely]] {
      NotifyReadBegin();
    }
    return v;
  }
  // Non-waiting variant: may return an odd snapshot, which the caller must
  // discard (it opens no read section; only even snapshots need a validate).
  uint64_t ReadBeginNoWait() const {
    uint64_t v = version_.load(std::memory_order_acquire);
    if ((v & 1) == 0) {
      if (ObserverInstalled()) [[unlikely]] {
        NotifyReadBegin();
      }
    }
    return v;
  }
  bool ReadValidate(uint64_t snapshot) const {
    std::atomic_thread_fence(std::memory_order_acquire);
    bool ok = version_.load(std::memory_order_acquire) == snapshot;
    if (ObserverInstalled()) [[unlikely]] {
      NotifyReadRetire(ok);
    }
    return ok;
  }

  // Raw version word (structure dumps / assertions only).
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  const char* name() const { return name_; }

 private:
  static constexpr int kSpinsBeforeYield = 64;

  CCLBT_NOINLINE_COLD void NotifyAcquire(bool trylock) {
    if (LockObserver* obs = observer()) {
      obs->OnLockAcquire(this, name_, LockKind::kSeqLock, /*exclusive=*/true,
                         trylock);
    }
  }
  CCLBT_NOINLINE_COLD void NotifyRelease() {
    if (LockObserver* obs = observer()) {
      obs->OnLockRelease(this, name_, LockKind::kSeqLock, /*exclusive=*/true);
    }
  }
  CCLBT_NOINLINE_COLD void NotifyReadBegin() const {
    if (LockObserver* obs = observer()) {
      obs->OnSeqReadBegin(this, name_);
    }
  }
  CCLBT_NOINLINE_COLD void NotifyReadRetire(bool validated) const {
    if (LockObserver* obs = observer()) {
      obs->OnSeqReadRetire(this, name_, validated);
    }
  }

  bool TryLockRaw() {
    uint64_t v = version_.load(std::memory_order_acquire);
    if ((v & 1) != 0) {
      return false;
    }
    return version_.compare_exchange_weak(v, v + 1, std::memory_order_acquire);
  }

  std::atomic<uint64_t> version_{0};
  const char* name_ = "seqlock";
};

// --- scoped guards -----------------------------------------------------------
// std::lock_guard / std::shared_lock carry no thread-safety annotations in
// libstdc++, so call sites use these SCOPED_CAPABILITY guards instead — the
// analysis then sees the acquire/release pair.

// Exclusive guard for Mutex, SharedMutex or TtasSpinLock.
template <typename M>
class SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(M& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~LockGuard() RELEASE() { mu_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  M& mu_;
};

// Shared (reader) guard for SharedMutex.
template <typename M>
class SCOPED_CAPABILITY SharedLockGuard {
 public:
  explicit SharedLockGuard(M& mu) ACQUIRE_SHARED(mu) : mu_(mu) { mu_.lock_shared(); }
  ~SharedLockGuard() RELEASE_GENERIC() { mu_.unlock_shared(); }

  SharedLockGuard(const SharedLockGuard&) = delete;
  SharedLockGuard& operator=(const SharedLockGuard&) = delete;

 private:
  M& mu_;
};

// Non-blocking guard; check owns() before touching guarded state. The
// conditional hold is outside what the static analysis can model, so the
// guard is analysis-opaque — pair it with locks that serialize control flow
// (e.g. "is a GC round already running?") rather than guard annotated data.
template <typename M>
class TryLockGuard {
 public:
  explicit TryLockGuard(M& mu) NO_THREAD_SAFETY_ANALYSIS : mu_(mu),
                                                           owns_(mu.try_lock()) {}
  ~TryLockGuard() NO_THREAD_SAFETY_ANALYSIS {
    if (owns_) {
      mu_.unlock();
    }
  }

  TryLockGuard(const TryLockGuard&) = delete;
  TryLockGuard& operator=(const TryLockGuard&) = delete;

  bool owns() const { return owns_; }

 private:
  M& mu_;
  bool owns_;
};

}  // namespace cclbt::sync

#endif  // SRC_COMMON_LOCK_H_
