#include "src/util/check.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace airfair {
namespace {

CheckFailureHandler& Handler() {
  static CheckFailureHandler handler;  // Empty = default abort behaviour.
  return handler;
}

std::function<TimeUs()>& TimeProvider() {
  static std::function<TimeUs()> provider;
  return provider;
}

CheckFlightRecorder& FlightRecorder() {
  static CheckFlightRecorder recorder;
  return recorder;
}

}  // namespace

CheckFailureHandler SetCheckFailureHandler(CheckFailureHandler handler) {
  CheckFailureHandler previous = std::move(Handler());
  Handler() = std::move(handler);
  return previous;
}

void SetCheckTimeProvider(std::function<TimeUs()> provider) {
  TimeProvider() = std::move(provider);
}

CheckFlightRecorder SetCheckFlightRecorder(CheckFlightRecorder recorder) {
  CheckFlightRecorder previous = std::move(FlightRecorder());
  FlightRecorder() = std::move(recorder);
  return previous;
}

namespace check_detail {

void FailCheck(const char* file, int line, const std::string& message) {
  if (Handler()) {
    Handler()(file, line, message);
    return;  // Non-fatal handler installed: continue past the check.
  }
  std::fprintf(stderr, "CHECK failed at %s:%d: %s\n", file, line, message.c_str());
  std::fflush(stderr);
  // Fatal path: give the flight recorder one shot at dumping recent
  // history (the Testbed hooks the trace buffer's tail here). The guard
  // stops a recorder that itself fails a check from recursing.
  if (FlightRecorder()) {
    static bool dumping = false;
    if (!dumping) {
      dumping = true;
      FlightRecorder()();
      dumping = false;
    }
  }
  std::abort();
}

FailureStream::FailureStream(const char* file, int line, const char* condition)
    : file_(file), line_(line) {
  stream_ << condition;
  if (TimeProvider()) {
    stream_ << " [t=" << TimeProvider()().us() << "us]";
  }
}

FailureStream::~FailureStream() { FailCheck(file_, line_, stream_.str()); }

}  // namespace check_detail
}  // namespace airfair
