#include "src/aqm/codel.h"

#include <cmath>
#include <string>
#include <utility>

#include "src/obs/trace.h"

namespace airfair {

TimeUs CoDelState::ControlLaw(TimeUs t, TimeUs interval, uint32_t count) {
  if (count == 0) {
    count = 1;
  }
  const double next = static_cast<double>(interval.us()) / std::sqrt(static_cast<double>(count));
  return t + TimeUs(static_cast<int64_t>(next));
}

CoDelState::DodequeueResult CoDelState::Dodequeue(TimeUs now, const CoDelParams& params,
                                                  const PullFn& pull) {
  DodequeueResult r;
  r.packet = pull();
  if (r.packet == nullptr) {
    first_above_time_ = TimeUs::Zero();
    return r;
  }
  const TimeUs sojourn = now - r.packet->enqueued;
  if (sojourn < params.target) {
    // Below target: leave the dropping-decision window.
    first_above_time_ = TimeUs::Zero();
  } else {
    if (first_above_time_.IsZero()) {
      // Just crossed target: start the interval clock.
      first_above_time_ = now + params.interval;
    } else if (now >= first_above_time_) {
      r.ok_to_drop = true;
    }
  }
  return r;
}

PacketPtr CoDelState::Dequeue(TimeUs now, const CoDelParams& params, const PullFn& pull,
                              const DropFn& drop) {
  DodequeueResult r = Dodequeue(now, params, pull);
  if (r.packet == nullptr) {
    if (dropping_) {
      AF_TRACE_CODEL_STATE(now, 0, count_, drop_next_.us());
    }
    dropping_ = false;
    return nullptr;
  }
  if (dropping_) {
    if (!r.ok_to_drop) {
      dropping_ = false;
      AF_TRACE_CODEL_STATE(now, 0, count_, drop_next_.us());
    } else {
      while (now >= drop_next_ && dropping_) {
        drop(std::move(r.packet));
        ++drop_count_;
        ++count_;
        r = Dodequeue(now, params, pull);
        if (!r.ok_to_drop) {
          dropping_ = false;
          AF_TRACE_CODEL_STATE(now, 0, count_, drop_next_.us());
        } else {
          drop_next_ = ControlLaw(drop_next_, params.interval, count_);
        }
      }
    }
  } else if (r.ok_to_drop) {
    // Enter dropping state: drop this packet and dequeue the next.
    drop(std::move(r.packet));
    ++drop_count_;
    r = Dodequeue(now, params, pull);
    dropping_ = true;
    // If we were dropping recently, resume near the prior drop rate
    // (RFC 8289's count hysteresis).
    const uint32_t delta = count_ - lastcount_;
    if (delta > 1 && now - drop_next_ < 16 * params.interval) {
      count_ = delta;
    } else {
      count_ = 1;
    }
    lastcount_ = count_;
    drop_next_ = ControlLaw(now, params.interval, count_);
    AF_TRACE_CODEL_STATE(now, 1, count_, drop_next_.us());
  }
  return std::move(r.packet);
}

int CoDelState::CheckValid(AuditFailFn fail) const {
  int violations = 0;
  auto report = [&](const std::string& message) {
    ++violations;
    fail("codel: " + message);
  };
  if (dropping_) {
    if (drop_next_.IsZero()) {
      report("in dropping state but the next-drop clock is not armed");
    }
    if (count_ < 1) {
      report("in dropping state with count == 0");
    }
    if (count_ < lastcount_) {
      report("count hysteresis violated: count < lastcount while dropping");
    }
  }
  if (drop_next_.IsNegative()) {
    report("next-drop clock is negative");
  }
  if (first_above_time_.IsNegative()) {
    report("first-above-time clock is negative");
  }
  if (drop_count_ < 0) {
    report("cumulative drop counter is negative");
  }
  return violations;
}

}  // namespace airfair
