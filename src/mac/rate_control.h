// Minstrel-style rate selection.
//
// A compact model of the Linux Minstrel-HT algorithm the paper's stations
// use ("configured to select their rate in the usual way"): per-MCS EWMA of
// the MPDU delivery probability, a throughput-ordered rate pick, and
// periodic sampling of non-current rates. It also supplies the
// expected-throughput estimate that drives the per-station CoDel parameter
// adaptation of Section 3.1.1 ("obtained from the rate selection
// algorithm").

#ifndef AIRFAIR_SRC_MAC_RATE_CONTROL_H_
#define AIRFAIR_SRC_MAC_RATE_CONTROL_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/mac/phy_rate.h"
#include "src/util/rng.h"

namespace airfair {

class MinstrelRateControl {
 public:
  struct Config {
    double ewma_weight = 0.25;        // Weight of fresh observations.
    double sample_probability = 0.1;  // Fraction of TXOPs spent probing.
    bool short_gi = true;
  };

  MinstrelRateControl(uint64_t seed, const Config& config);
  explicit MinstrelRateControl(uint64_t seed);

  // Chooses the MCS for the next transmission (mostly the best-throughput
  // rate, occasionally a probe of a neighbouring rate).
  int PickMcs();
  PhyRate PickRate() { return McsRate(PickMcs(), config_.short_gi); }

  // Per-transmission feedback: how many MPDUs were attempted at `mcs` and
  // how many the block-ack confirmed.
  void ReportResult(int mcs, int attempted, int succeeded);

  // Expected MAC throughput at the current best rate: PHY rate times
  // delivery probability (the Section 3.1.1 estimate).
  double ExpectedThroughputBps() const;

  // The rate Minstrel currently considers best.
  int BestMcs() const;

 private:
  struct McsStats {
    double ewma_prob = 1.0;
    bool sampled = false;
    int64_t attempts = 0;
    int64_t successes = 0;
  };

  double GoodputBps(int mcs) const;

  Config config_;
  Rng rng_;
  std::array<McsStats, 16> stats_;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_MAC_RATE_CONTROL_H_
