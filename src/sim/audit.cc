#include "src/sim/audit.h"

#include <utility>

#include "src/util/check.h"
#include "src/util/env.h"
#include "src/util/logging.h"
#include "src/util/stats.h"

namespace airfair {

Auditor::Auditor(EventLoop* loop) : Auditor(loop, Config()) {}

Auditor::Auditor(EventLoop* loop, const Config& config) : loop_(loop), config_(config) {
  AF_CHECK(loop_ != nullptr) << " auditor needs an event loop";
  AF_CHECK_GT(config_.interval.us(), 0) << " audit interval must be positive";
}

Auditor::~Auditor() { Stop(); }

void Auditor::AddCheck(std::string name, CheckFn check) {
  checks_.emplace_back(std::move(name), std::move(check));
}

void Auditor::WatchEventLoop() {
  AddCheck("event_loop",
           [loop = loop_](const FailFn& fail) { loop->CheckInvariants(fail); });
}

void Auditor::Start() {
  if (timer_.pending()) {
    return;
  }
  timer_ = loop_->ScheduleAfter(config_.interval, [this] { Sweep(); });
}

void Auditor::Stop() { timer_.Cancel(); }

void Auditor::Sweep() {
  RunChecksNow();
  timer_ = loop_->ScheduleAfter(config_.interval, [this] { Sweep(); });
}

int Auditor::RunChecksNow() {
  int found = 0;
  const TimeUs now = loop_->now();
  for (const auto& [name, check] : checks_) {
    ++checks_run_;
    GetCounter("audit.checks").Increment();
    // Concrete lambda on this stack frame; handed to the check as a
    // non-owning FailFn, so recording costs no allocation per check.
    const auto record = [&](const std::string& message) {
      ++found;
      ++violations_;
      GetCounter("audit.violations").Increment();
      GetCounter("audit.violations." + name).Increment();
      if (recorded_.size() < config_.max_recorded) {
        recorded_.push_back(AuditViolation{name, message, now});
      }
      AF_LOG(kError) << "audit violation [" << name << "] at t=" << now.us() << "us: "
                     << message;
    };
    check(FailFn(record));
  }
  ++passes_;
  GetCounter("audit.passes").Increment();
  if (config_.fatal) {
    AF_CHECK_EQ(found, 0) << " invariant audit found violations; see log above";
  }
  return found;
}

bool AuditEnabledByDefault() {
#ifdef AIRFAIR_AUDIT
  constexpr bool kCompiledIn = true;
#else
  constexpr bool kCompiledIn = false;
#endif
  // The environment overrides the compile-time default in both directions.
  return EnvFlag("AIRFAIR_AUDIT", kCompiledIn);
}

}  // namespace airfair
