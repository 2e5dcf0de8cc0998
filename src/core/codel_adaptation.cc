#include "src/core/codel_adaptation.h"

#include <sstream>
#include <utility>

namespace airfair {

namespace {
// Section 3.1.1: stations whose expected rate is below 12 Mbit/s get the
// low-rate CoDel parameters, and a station's parameters change at most once
// every two seconds.
constexpr double kThresholdBps = 12e6;
constexpr TimeUs kHysteresis = TimeUs::FromSeconds(2);
}  // namespace

CodelAdaptation::CodelAdaptation(InlineFunction<TimeUs()> clock) : clock_(std::move(clock)) {}

void CodelAdaptation::UpdateExpectedThroughput(StationId station, double bps) {
  if (station < 0) {
    return;
  }
  if (station >= static_cast<StationId>(states_.size())) {
    states_.resize(static_cast<size_t>(station) + 1);
  }
  State& state = states_[static_cast<size_t>(station)];
  const bool want_low = bps < kThresholdBps;
  const TimeUs now = clock_();
  if (!state.initialized) {
    // First estimate applies immediately; the hysteresis clock starts now.
    state.low_rate = want_low;
    state.initialized = true;
    state.last_change = now;
    state.decided_bps = bps;
    return;
  }
  if (want_low == state.low_rate) {
    return;
  }
  if (now - state.last_change < kHysteresis) {
    return;  // Within the hysteresis window: hold the current setting.
  }
  min_change_gap_ = std::min(min_change_gap_, now - state.last_change);
  ++change_count_;
  state.low_rate = want_low;
  state.last_change = now;
  state.decided_bps = bps;
}

CoDelParams CodelAdaptation::ParamsFor(StationId station) const {
  if (IsLowRate(station)) {
    return CoDelParams::LowRate();
  }
  return CoDelParams::Default();
}

bool CodelAdaptation::IsLowRate(StationId station) const {
  if (station < 0 || station >= static_cast<StationId>(states_.size())) {
    return false;
  }
  return states_[static_cast<size_t>(station)].low_rate;
}

int CodelAdaptation::CheckInvariants(AuditFailFn fail) const {
  int violations = 0;
  auto report = [&](const std::string& message) {
    ++violations;
    fail("codel_adaptation: " + message);
  };

  // Hysteresis: switches observed closer together than the window mean the
  // 2 s rule regressed.
  if (change_count_ > 0 && min_change_gap_ < kHysteresis) {
    std::ostringstream os;
    os << "hysteresis violated: two parameter switches only " << min_change_gap_.us()
       << "us apart (window " << kHysteresis.us() << "us)";
    report(os.str());
  }

  for (size_t sid = 0; sid < states_.size(); ++sid) {
    const State& state = states_[sid];
    if (!state.initialized) {
      if (state.low_rate) {
        std::ostringstream os;
        os << "station " << sid << " holds low-rate params without any estimate";
        report(os.str());
      }
      continue;
    }
    // Low-rate params are only held when the deciding estimate was below the
    // threshold (and symmetrically for the normal set).
    const bool decided_low = state.decided_bps < kThresholdBps;
    if (state.low_rate != decided_low) {
      std::ostringstream os;
      os << "station " << sid << " parameter set disagrees with its deciding estimate ("
         << state.decided_bps << " bps vs threshold " << kThresholdBps << " bps)";
      report(os.str());
    }
  }
  return violations;
}

void CodelAdaptation::CorruptLowRateStateForTesting(StationId station) {
  if (station < 0 || station >= static_cast<StationId>(states_.size())) {
    return;
  }
  State& state = states_[static_cast<size_t>(station)];
  state.initialized = true;
  state.low_rate = true;
  state.decided_bps = kThresholdBps * 10;  // Contradicts low_rate.
}

}  // namespace airfair
