// CHECK/DCHECK-style runtime assertion macros with source location and
// simulated-timestamp context.
//
// AF_CHECK(cond) aborts (by default) when `cond` is false, printing the
// failing expression, file:line, the current simulated time (when a time
// provider is installed — the Auditor and Testbed install one), and any
// streamed context:
//
//   AF_CHECK(deficit <= quantum) << "station=" << s << " deficit=" << deficit;
//   AF_CHECK_EQ(enqueued, dequeued + dropped + resident);
//
// AF_DCHECK* are compiled out entirely in release builds unless the build
// defines AIRFAIR_AUDIT (the audit preset), so they are free on measurement
// hot paths but active wherever correctness is being machine-checked.
//
// The failure handler is replaceable (SetCheckFailureHandler) so tests can
// assert that a violation *is* detected without dying; the audit subsystem
// uses the same hook to convert hot-path check failures into recorded
// violations when running in non-fatal mode.
//
// The three hooks below are process-wide, like everything else a Testbed
// touches (DESIGN.md §8): a Testbed installs its clock and flight recorder
// and removes them again when it is destroyed.

#ifndef AIRFAIR_SRC_UTIL_CHECK_H_
#define AIRFAIR_SRC_UTIL_CHECK_H_

#include <functional>
#include <sstream>
#include <string>
#include <utility>

#include "src/util/time.h"

namespace airfair {

// Called with (file, line, message) when a CHECK fails. The default handler
// writes the message to stderr and calls std::abort(). A replacement handler
// may return, in which case execution continues past the failed check —
// only do this in tests / the non-fatal audit mode.
using CheckFailureHandler =
    std::function<void(const char* file, int line, const std::string& message)>;

// Installs `handler`; passing nullptr restores the default abort handler.
// Returns the previous handler.
CheckFailureHandler SetCheckFailureHandler(CheckFailureHandler handler);

// Installs a provider for the current simulated time, included in failure
// messages as "t=<n>us". Passing nullptr clears it. The Testbed and the
// Auditor install the owning Simulation's clock.
void SetCheckTimeProvider(std::function<TimeUs()> provider);

// Crash flight recorder: invoked (at most once, re-entrancy guarded) on
// the *fatal* check-failure path — after the message is printed, before
// std::abort() — so a dump of recent history accompanies the failure.
// Not invoked when a replacement failure handler is installed (tests and
// the non-fatal audit mode handle failures themselves). The Testbed
// installs a hook that dumps the tail of its trace buffer (src/obs).
// Passing nullptr clears it; returns the previous recorder.
using CheckFlightRecorder = std::function<void()>;
CheckFlightRecorder SetCheckFlightRecorder(CheckFlightRecorder recorder);

// RAII scope guards for the two hooks; used by tests and the Auditor so
// nested scopes restore the outer configuration.
class ScopedCheckFailureHandler {
 public:
  explicit ScopedCheckFailureHandler(CheckFailureHandler handler)
      : previous_(SetCheckFailureHandler(std::move(handler))) {}
  ~ScopedCheckFailureHandler() { SetCheckFailureHandler(std::move(previous_)); }

  ScopedCheckFailureHandler(const ScopedCheckFailureHandler&) = delete;
  ScopedCheckFailureHandler& operator=(const ScopedCheckFailureHandler&) = delete;

 private:
  CheckFailureHandler previous_;
};

namespace check_detail {

// Invokes the installed failure handler.
void FailCheck(const char* file, int line, const std::string& message);

// Streams extra context onto a failing check; fires the handler on
// destruction (end of the full expression).
class FailureStream {
 public:
  FailureStream(const char* file, int line, const char* condition);
  ~FailureStream();

  FailureStream(const FailureStream&) = delete;
  FailureStream& operator=(const FailureStream&) = delete;

  template <typename T>
  FailureStream& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

  std::ostringstream& stream() { return stream_; }

 private:
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

// Makes the conditional expression in AF_CHECK void-typed on both branches.
struct Voidify {
  void operator&(FailureStream&) const {}
};

// Builds the "a vs b" detail for binary comparison checks.
template <typename A, typename B>
std::string CompareDetail(const A& a, const B& b) {
  std::ostringstream os;
  os << " (" << a << " vs " << b << ")";
  return os.str();
}

}  // namespace check_detail
}  // namespace airfair

// Always-on check. Streams extra context: AF_CHECK(x) << "detail";
#define AF_CHECK(condition)                                  \
  (condition) ? (void)0                                      \
              : ::airfair::check_detail::Voidify() &         \
                    ::airfair::check_detail::FailureStream(__FILE__, __LINE__, #condition)

#define AF_CHECK_OP_IMPL(a, b, op)                                                     \
  (((a)op(b))) ? (void)0                                                               \
               : ::airfair::check_detail::Voidify() &                                  \
                     (::airfair::check_detail::FailureStream(__FILE__, __LINE__,       \
                                                             #a " " #op " " #b)        \
                      << ::airfair::check_detail::CompareDetail((a), (b)))

#define AF_CHECK_EQ(a, b) AF_CHECK_OP_IMPL(a, b, ==)
#define AF_CHECK_NE(a, b) AF_CHECK_OP_IMPL(a, b, !=)
#define AF_CHECK_LE(a, b) AF_CHECK_OP_IMPL(a, b, <=)
#define AF_CHECK_LT(a, b) AF_CHECK_OP_IMPL(a, b, <)
#define AF_CHECK_GE(a, b) AF_CHECK_OP_IMPL(a, b, >=)
#define AF_CHECK_GT(a, b) AF_CHECK_OP_IMPL(a, b, >)

// Debug checks: active in debug builds and in AIRFAIR_AUDIT builds; compiled
// to nothing (arguments unevaluated) otherwise.
#if !defined(NDEBUG) || defined(AIRFAIR_AUDIT)
#define AIRFAIR_DCHECK_ENABLED 1
#else
#define AIRFAIR_DCHECK_ENABLED 0
#endif

#if AIRFAIR_DCHECK_ENABLED
#define AF_DCHECK(condition) AF_CHECK(condition)
#define AF_DCHECK_EQ(a, b) AF_CHECK_EQ(a, b)
#define AF_DCHECK_NE(a, b) AF_CHECK_NE(a, b)
#define AF_DCHECK_LE(a, b) AF_CHECK_LE(a, b)
#define AF_DCHECK_LT(a, b) AF_CHECK_LT(a, b)
#define AF_DCHECK_GE(a, b) AF_CHECK_GE(a, b)
#define AF_DCHECK_GT(a, b) AF_CHECK_GT(a, b)
#else
#define AF_DCHECK(condition) \
  if (false) AF_CHECK(condition)
#define AF_DCHECK_EQ(a, b) \
  if (false) AF_CHECK_EQ(a, b)
#define AF_DCHECK_NE(a, b) \
  if (false) AF_CHECK_NE(a, b)
#define AF_DCHECK_LE(a, b) \
  if (false) AF_CHECK_LE(a, b)
#define AF_DCHECK_LT(a, b) \
  if (false) AF_CHECK_LT(a, b)
#define AF_DCHECK_GE(a, b) \
  if (false) AF_CHECK_GE(a, b)
#define AF_DCHECK_GT(a, b) \
  if (false) AF_CHECK_GT(a, b)
#endif

#endif  // AIRFAIR_SRC_UTIL_CHECK_H_
