#pragma once
// Compiler-enforced concurrency contracts.
//
// Two families of annotations, both no-ops except where a checker reads
// them:
//
//   * Clang capability ("thread safety") attributes.  Building with
//     clang++ -Wthread-safety (CMake option EMON_THREAD_SAFETY, the CI
//     `lint` job) turns every EMON_GUARDED_BY / EMON_REQUIRES /
//     EMON_ACQUIRE / EMON_RELEASE below into a compile-time proof
//     obligation: code that touches a guarded field without holding its
//     mutex, or double-acquires, or forgets to release, fails the build.
//     GCC and MSVC see empty macros and compile the exact same code.
//
//   * Project-specific contract markers (EMON_OWNER_THREAD /
//     EMON_OWNER_THREAD_CONTEXT) that the capability analysis cannot
//     express.  They expand to a Clang `annotate` attribute that
//     tools/emon_lint.py reads out of the AST (and greps textually when
//     libclang is unavailable) to enforce the owner-thread calling rule:
//     a method marked EMON_OWNER_THREAD may only be called from another
//     owner-thread function, from a function marked
//     EMON_OWNER_THREAD_CONTEXT (an owning worker's body / event-loop
//     entry), or from a lambda defined lexically inside one.
//
// The std::mutex family carries no capability attributes in libstdc++, so
// annotated classes hold a util::Mutex (a zero-cost annotated wrapper) and
// lock it through util::LockGuard / util::UniqueLock.  util::CondVar wraps
// std::condition_variable for waits on a util::UniqueLock.
//
// Which mutexes are annotated today (the enforced map of the codebase):
//   core/serve_pipeline.hpp   mu_         queue/stats/lifecycle flags
//   store/query_engine.hpp    caller_mu_, mu_   pool job slots
//   sim/sharded_kernel.hpp    mailbox_mutex, state_mutex_   CMB protocol
//   chain/permissioned.hpp    mutex_      ledger, writers, staged commits
//   obs/metrics.hpp           mu_         instrument storage vectors
//   util/log.cpp              g_sink_mu   global sink
// Owner-thread surfaces (EMON_OWNER_THREAD): store/tsdb.hpp's writer API,
// store/rollup.hpp's whole mutating surface, core/subscription.hpp, and
// the MQTT broker's session maps (net/mqtt.hpp) — see each header.

#if defined(__clang__) && (!defined(SWIG))
#define EMON_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define EMON_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op
#endif

/// Marks a type as a capability (a lockable).  Argument is the diagnostic
/// name, e.g. EMON_CAPABILITY("mutex").
#define EMON_CAPABILITY(x) \
  EMON_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

/// Marks an RAII type that acquires in its constructor and releases in its
/// destructor (util::LockGuard / util::UniqueLock).
#define EMON_SCOPED_CAPABILITY \
  EMON_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

/// Field may only be read/written while holding `x`.
#define EMON_GUARDED_BY(x) \
  EMON_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

/// Pointer field: the *pointee* may only be accessed while holding `x`.
#define EMON_PT_GUARDED_BY(x) \
  EMON_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

/// Function requires the listed capabilities held on entry (and still held
/// on exit).
#define EMON_REQUIRES(...) \
  EMON_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))
#define EMON_REQUIRES_SHARED(...) \
  EMON_THREAD_ANNOTATION_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))

/// Function acquires the listed capabilities (held on return).
#define EMON_ACQUIRE(...) \
  EMON_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define EMON_ACQUIRE_SHARED(...) \
  EMON_THREAD_ANNOTATION_ATTRIBUTE(acquire_shared_capability(__VA_ARGS__))

/// Function releases the listed capabilities (held on entry).
#define EMON_RELEASE(...) \
  EMON_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))
#define EMON_RELEASE_SHARED(...) \
  EMON_THREAD_ANNOTATION_ATTRIBUTE(release_shared_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns `b`.
#define EMON_TRY_ACQUIRE(...) \
  EMON_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))

/// Function must NOT be called with the listed capabilities held
/// (deadlock guard for functions that acquire them internally).
#define EMON_EXCLUDES(...) \
  EMON_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// Asserts (for the analysis) that the capability is held — the escape
/// hatch for runtime-established invariants.
#define EMON_ASSERT_CAPABILITY(x) \
  EMON_THREAD_ANNOTATION_ATTRIBUTE(assert_capability(x))

/// Function returns a reference to the named capability.
#define EMON_RETURN_CAPABILITY(x) \
  EMON_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

/// Turns the analysis off for one function — use only with a comment
/// explaining which invariant makes the code safe.
#define EMON_NO_THREAD_SAFETY_ANALYSIS \
  EMON_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

// ---------------------------------------------------------------------------
// Owner-thread contract markers (read by tools/emon_lint.py).

/// The annotated method belongs to a single-owner surface: only the owning
/// thread may call it.  emon_lint enforces that every caller is itself
/// owner-thread, an EMON_OWNER_THREAD_CONTEXT function, or a lambda
/// defined inside one.
#define EMON_OWNER_THREAD \
  EMON_THREAD_ANNOTATION_ATTRIBUTE(annotate("emon::owner_thread"))

/// The annotated function IS an owning worker's body (or the single-
/// threaded event-loop entry that plays that role): calls to
/// EMON_OWNER_THREAD methods from inside it are sanctioned.
#define EMON_OWNER_THREAD_CONTEXT \
  EMON_THREAD_ANNOTATION_ATTRIBUTE(annotate("emon::owner_thread_context"))

// ---------------------------------------------------------------------------
// Annotated mutex family.  Zero-cost wrappers: every method forwards to the
// std type; the attributes are all that is added.

#include <condition_variable>
#include <mutex>

namespace emon::util {

/// std::mutex with capability annotations.  Same size, same codegen.
class EMON_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() EMON_ACQUIRE() { m_.lock(); }
  void unlock() EMON_RELEASE() { m_.unlock(); }
  bool try_lock() EMON_TRY_ACQUIRE(true) { return m_.try_lock(); }

  /// The wrapped std::mutex, for adopt-lock interop (CondVar::wait).
  [[nodiscard]] std::mutex& native() noexcept { return m_; }

 private:
  std::mutex m_;
};

/// std::lock_guard equivalent over util::Mutex.
class EMON_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mu) EMON_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~LockGuard() EMON_RELEASE() { mu_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mu_;
};

/// std::unique_lock equivalent over util::Mutex: relockable, waitable.
/// Always owns on construction; the destructor releases iff still owned.
class EMON_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mu) EMON_ACQUIRE(mu) : mu_(&mu) {
    mu_->lock();
    owned_ = true;
  }
  ~UniqueLock() EMON_RELEASE() {
    if (owned_) {
      mu_->unlock();
    }
  }
  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() EMON_ACQUIRE() {
    mu_->lock();
    owned_ = true;
  }
  void unlock() EMON_RELEASE() {
    owned_ = false;
    mu_->unlock();
  }
  [[nodiscard]] bool owns_lock() const noexcept { return owned_; }
  [[nodiscard]] Mutex* mutex() const noexcept { return mu_; }

 private:
  friend class CondVar;
  Mutex* mu_;
  bool owned_ = false;
};

/// std::condition_variable over util::UniqueLock.  wait() releases and
/// reacquires the lock internally; from the analysis' point of view the
/// capability is held across the call (which is exactly the caller-visible
/// contract), so no annotation beyond the UniqueLock's own is needed.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  void wait(UniqueLock& lk) EMON_NO_THREAD_SAFETY_ANALYSIS {
    // Adopt the already-held native mutex so std::condition_variable can
    // release/reacquire it, then hand ownership straight back.
    std::unique_lock<std::mutex> native(lk.mutex()->native(),
                                        std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  template <typename Predicate>
  void wait(UniqueLock& lk, Predicate pred) EMON_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> native(lk.mutex()->native(),
                                        std::adopt_lock);
    cv_.wait(native, std::move(pred));
    native.release();
  }

 private:
  std::condition_variable cv_;
};

}  // namespace emon::util
