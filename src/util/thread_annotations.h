// Clang thread-safety annotation macros (AF_GUARDED_BY and friends).
//
// The simulator core is single-threaded by design, but its *edges* are not:
// the parallel repetition runner (src/scenario/parallel_runner.h) shards
// (scheme, repetition) cells across worker threads, and those workers all
// touch the named-counter registry (util/stats), the per-thread check hooks
// (util/check), the log level (util/logging) and the thread-local trace
// gate (src/obs/trace). Before this header, the locking and ownership rules
// of that surface lived in comments; these macros move them into the type
// system, where clang's -Wthread-safety analysis can verify every access
// (see https://clang.llvm.org/docs/ThreadSafetyAnalysis.html).
//
// Usage pattern (the counter registry in util/stats.cc is the canonical
// in-tree example):
//
//   class Registry {
//    public:
//     Counter& Get(const std::string& name) AF_EXCLUDES(mu_) {
//       MutexLock lock(&mu_);
//       return counters_[name];
//     }
//    private:
//     Mutex mu_;
//     std::map<std::string, Counter> counters_ AF_GUARDED_BY(mu_);
//   };
//
// The macros expand to clang attributes when the compiler supports them and
// to nothing otherwise (gcc builds the same code unannotated). The analysis
// itself is enabled with -DAIRFAIR_THREAD_SAFETY=ON (CMake), which adds
// -Wthread-safety -Werror under clang — the `thread-safety` preset and CI
// job build the whole tree that way, so an unguarded access to an annotated
// member is a compile error, not a review comment.
//
// std::mutex is not an annotated type in libstdc++, so the analysis cannot
// see through it; guarded state must hang off the annotated wrapper in
// src/util/mutex.h (Mutex / MutexLock). The lint rule
// guarded-field-discipline enforces exactly that: every std::mutex,
// std::atomic or mutable-static member in src/ either carries AF_GUARDED_BY
// or AF_ATOMIC, is declared through the annotated wrapper, or carries an
// explicit `airfair-lint: allow` with a reason.
//
// Only the macros the tree uses are defined; add clang's others
// (requires_capability, pt_guarded_by, ...) here when code needs them.

#ifndef AIRFAIR_SRC_UTIL_THREAD_ANNOTATIONS_H_
#define AIRFAIR_SRC_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && defined(__has_attribute)
#define AF_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define AF_THREAD_ANNOTATION_(x)  // No-op outside clang.
#endif

// Declares a type to be a capability ("mutex" for lockable types). The
// analysis tracks which capabilities are held at each program point.
#define AF_CAPABILITY(x) AF_THREAD_ANNOTATION_(capability(x))

// Declares an RAII type whose constructor acquires and destructor releases
// a capability (src/util/mutex.h's MutexLock).
#define AF_SCOPED_CAPABILITY AF_THREAD_ANNOTATION_(scoped_lockable)

// Data members: may only be read/written while holding the given capability.
#define AF_GUARDED_BY(x) AF_THREAD_ANNOTATION_(guarded_by(x))

// Functions: the caller must not hold the capability.
#define AF_EXCLUDES(...) AF_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

// Functions that acquire / release the capability themselves (the lock and
// unlock methods of a capability type).
#define AF_ACQUIRE(...) AF_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define AF_RELEASE(...) AF_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

// Documentation-only marker (expands to nothing everywhere) for members
// that are intentionally shared *without* a lock because every access is a
// std::atomic operation. clang has no attribute for this case; the lint
// rule guarded-field-discipline accepts it as the declared discipline for
// atomic members and statics. State the ordering contract in a comment
// next to the member (e.g. "relaxed: counter, carries no synchronisation").
#define AF_ATOMIC

#endif  // AIRFAIR_SRC_UTIL_THREAD_ANNOTATIONS_H_
