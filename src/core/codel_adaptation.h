// Per-station CoDel parameter adaptation (Section 3.1.1).
//
// CoDel's default 5 ms target is too aggressive for slow WiFi links, where a
// single aggregate can occupy the medium for several milliseconds. The paper
// uses "a simple threshold combined with an estimate of the station's
// current throughput, obtained from the rate selection algorithm, changing
// CoDel's target to 50 ms and interval to 300 ms when the expected rate
// drops below 12 Mbps", with hysteresis so values change at most once every
// two seconds.

#ifndef AIRFAIR_SRC_CORE_CODEL_ADAPTATION_H_
#define AIRFAIR_SRC_CORE_CODEL_ADAPTATION_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/aqm/codel.h"
#include "src/mac/frame.h"
#include "src/util/function_ref.h"
#include "src/util/inline_function.h"
#include "src/util/time.h"

namespace airfair {

class CodelAdaptation {
 public:
  explicit CodelAdaptation(InlineFunction<TimeUs()> clock);

  // Feeds the rate-selection throughput estimate for `station`. Parameter
  // switches obey the hysteresis window.
  void UpdateExpectedThroughput(StationId station, double bps);

  // Current parameters for `station`: CoDelParams::LowRate() (target 50 ms,
  // interval 300 ms) for low-rate stations, CoDelParams::Default() (5 ms /
  // 100 ms) otherwise, including unknown stations.
  CoDelParams ParamsFor(StationId station) const;

  bool IsLowRate(StationId station) const;

  // Number of post-initialisation parameter switches across all stations.
  int64_t change_count() const { return change_count_; }

  // Invariant audit (see src/sim/audit.h). Verifies, calling `fail` once per
  // violation and returning the violation count:
  //  * hysteresis: no two parameter switches for a station ever happened
  //    closer together than the 2 s window — the smallest observed gap is
  //    tracked at switch time;
  //  * the low-rate parameter set (50 ms / 300 ms) is only held by stations
  //    whose deciding throughput estimate was below the 12 Mbit/s
  //    threshold, and vice versa.
  int CheckInvariants(AuditFailFn fail) const;

  // Test-only corruption hooks for tests/sim_audit_test.cc.
  void CorruptHysteresisForTesting() {
    min_change_gap_ = TimeUs(1);
    change_count_ = std::max<int64_t>(change_count_, 1);
  }
  void CorruptLowRateStateForTesting(StationId station);

 private:
  struct State {
    bool low_rate = false;
    bool initialized = false;
    TimeUs last_change = TimeUs::Zero();
    // Throughput estimate that decided the current low_rate setting.
    double decided_bps = 0.0;
  };

  InlineFunction<TimeUs()> clock_;
  std::vector<State> states_;
  // Smallest gap ever observed between two parameter switches of one
  // station; TimeUs::Max() until the first post-init switch.
  TimeUs min_change_gap_ = TimeUs::Max();
  int64_t change_count_ = 0;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_CORE_CODEL_ADAPTATION_H_
