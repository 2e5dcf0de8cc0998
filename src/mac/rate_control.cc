#include "src/mac/rate_control.h"

#include <algorithm>

namespace airfair {

MinstrelRateControl::MinstrelRateControl(uint64_t seed, const Config& config)
    : config_(config), rng_(seed) {}

MinstrelRateControl::MinstrelRateControl(uint64_t seed)
    : MinstrelRateControl(seed, Config()) {}

double MinstrelRateControl::GoodputBps(int mcs) const {
  const McsStats& s = stats_[static_cast<size_t>(mcs)];
  // Unsampled rates are treated optimistically at half credibility so that
  // probing is attracted upward but a proven rate wins ties.
  const double prob = s.sampled ? s.ewma_prob : 0.5;
  return McsRate(mcs, config_.short_gi).bps * prob;
}

int MinstrelRateControl::BestMcs() const {
  int best = 0;
  double best_goodput = -1;
  for (int mcs = 0; mcs <= 15; ++mcs) {
    const double goodput = GoodputBps(mcs);
    if (goodput > best_goodput) {
      best_goodput = goodput;
      best = mcs;
    }
  }
  return best;
}

int MinstrelRateControl::PickMcs() {
  const int best = BestMcs();
  if (rng_.Chance(config_.sample_probability)) {
    // Probe a neighbour of the current best (Minstrel-HT samples around the
    // working set rather than uniformly).
    const int delta = rng_.Chance(0.5) ? 1 : -1;
    return std::clamp(best + delta, 0, 15);
  }
  return best;
}

void MinstrelRateControl::ReportResult(int mcs, int attempted, int succeeded) {
  if (attempted <= 0 || mcs < 0 || mcs > 15) {
    return;
  }
  McsStats& s = stats_[static_cast<size_t>(mcs)];
  const double observed = static_cast<double>(succeeded) / attempted;
  if (!s.sampled) {
    s.ewma_prob = observed;
    s.sampled = true;
  } else {
    s.ewma_prob = (1.0 - config_.ewma_weight) * s.ewma_prob + config_.ewma_weight * observed;
  }
  s.attempts += attempted;
  s.successes += succeeded;
}

double MinstrelRateControl::ExpectedThroughputBps() const { return GoodputBps(BestMcs()); }

}  // namespace airfair
