// Minstrel-style rate selection.
//
// A compact model of the Linux Minstrel-HT algorithm the paper's stations
// use ("configured to select their rate in the usual way"): per-MCS EWMA of
// the MPDU delivery probability, a throughput-ordered rate pick, and
// periodic sampling of non-current rates. The rate it picks is written into
// the station table, where the MAC queue backend reads it for the
// per-station CoDel parameter adaptation of Section 3.1.1.

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
  explicit MinstrelRateControl(uint64_t seed);

  // Chooses the MCS for the next transmission (mostly the best-throughput
  // rate, occasionally a probe of a neighbouring rate).
  int PickMcs();
  PhyRate PickRate();

  // Per-transmission feedback: how many MPDUs were attempted at `mcs` and
  // how many the block-ack confirmed.
  void ReportResult(int mcs, int attempted, int succeeded);

  // The rate Minstrel currently considers best.
  int BestMcs() const;

 private:
  struct McsStats {
    double ewma_prob = 1.0;
    bool sampled = false;
  };

  double GoodputBps(int mcs) const;

  Rng rng_;
  std::array<McsStats, 16> stats_;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_MAC_RATE_CONTROL_H_
