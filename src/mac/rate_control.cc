#include "src/mac/rate_control.h"

#include <algorithm>

namespace airfair {

namespace {
// Every station uses the short guard interval (the paper's HT20 SGI rates).
constexpr bool kShortGi = true;
}  // namespace

MinstrelRateControl::MinstrelRateControl(uint64_t seed) : rng_(seed) {}

double MinstrelRateControl::GoodputBps(int mcs) const {
  const McsStats& s = stats_[static_cast<size_t>(mcs)];
  // Unsampled rates are treated optimistically at half credibility so that
  // probing is attracted upward but a proven rate wins ties.
  const double prob = s.sampled ? s.ewma_prob : 0.5;
  return McsRate(mcs, kShortGi).bps * prob;
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
  // Fraction of TXOPs spent probing a rate other than the best.
  constexpr double kSampleProbability = 0.1;
  const int best = BestMcs();
  if (rng_.Chance(kSampleProbability)) {
    // Probe a neighbour of the current best (Minstrel-HT samples around the
    // working set rather than uniformly).
    const int delta = rng_.Chance(0.5) ? 1 : -1;
    return std::clamp(best + delta, 0, 15);
  }
  return best;
}

PhyRate MinstrelRateControl::PickRate() { return McsRate(PickMcs(), kShortGi); }

void MinstrelRateControl::ReportResult(int mcs, int attempted, int succeeded) {
  if (attempted <= 0 || mcs < 0 || mcs > 15) {
    return;
  }
  // Weight of a fresh observation in the delivery-probability EWMA.
  constexpr double kEwmaWeight = 0.25;
  McsStats& s = stats_[static_cast<size_t>(mcs)];
  const double observed = static_cast<double>(succeeded) / attempted;
  if (!s.sampled) {
    s.ewma_prob = observed;
    s.sampled = true;
  } else {
    s.ewma_prob = (1.0 - kEwmaWeight) * s.ewma_prob + kEwmaWeight * observed;
  }
}

}  // namespace airfair
