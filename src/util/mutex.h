// Annotated mutex wrapper for clang's thread-safety analysis.
//
// libstdc++'s std::mutex carries no capability attributes, so state guarded
// by a raw std::mutex is invisible to -Wthread-safety. This wrapper is the
// project's one lockable type: it is a capability, its Lock/Unlock methods
// carry acquire/release annotations, and the RAII MutexLock is a scoped
// capability — so `T member_ AF_GUARDED_BY(mu_);` is actually enforced at
// compile time under the thread-safety preset. The lint rule
// guarded-field-discipline bans raw std::mutex members/statics in src/ for
// the same reason. No code path holds two of these locks at once; taking a
// Mutex already held is a -Wthread-safety error.

#ifndef AIRFAIR_SRC_UTIL_MUTEX_H_
#define AIRFAIR_SRC_UTIL_MUTEX_H_

#include <mutex>

#include "src/util/thread_annotations.h"

namespace airfair {

class AF_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() AF_ACQUIRE() { mu_.lock(); }
  void Unlock() AF_RELEASE() { mu_.unlock(); }

 private:
  // airfair-lint: allow(guarded-field-discipline): the annotated wrapper around the raw mutex
  std::mutex mu_;
};

// RAII lock for Mutex; the scoped-capability annotation tells the analysis
// that the capability is held from construction to destruction.
class AF_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) AF_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() AF_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_UTIL_MUTEX_H_
