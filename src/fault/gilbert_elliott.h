// Seeded Gilbert-Elliott two-state burst-loss chain.
//
// The channel alternates between a good state (no loss) and a bad state
// (loss probability p_bad), with exponentially distributed dwell times. This
// is the classic bursty-loss model layered on top of the medium's
// per-station error model by the fault injector: unlike independent
// per-MPDU errors, consecutive losses cluster, which is what exercises the
// retry/reorder/block-ack machinery and the schedulers' recovery behaviour.
//
// Determinism: the state trajectory is a pure function of the seed. Dwell
// times are drawn lazily from a dedicated RNG, in trajectory order only —
// never from query order — so StateAt(t)/LossAt(t) return identical answers
// regardless of when, how often, or in which interleaving the medium asks.

#ifndef AIRFAIR_SRC_FAULT_GILBERT_ELLIOTT_H_
#define AIRFAIR_SRC_FAULT_GILBERT_ELLIOTT_H_

#include <cstdint>
#include <vector>

#include "src/util/rng.h"
#include "src/util/time.h"

namespace airfair {

class GilbertElliottChain {
 public:
  struct Config {
    TimeUs mean_good = TimeUs::FromMilliseconds(200);
    TimeUs mean_bad = TimeUs::FromMilliseconds(20);
    double p_bad = 0.5;
  };

  GilbertElliottChain(uint64_t seed, const Config& config);

  // True when the chain is in the bad state at (chain-local) time `t`.
  // The chain starts in the good state at t = 0.
  bool BadAt(TimeUs t);

  // Loss probability at time `t` (0 in the good state, p_bad in the bad).
  double LossAt(TimeUs t) { return BadAt(t) ? config_.p_bad : 0.0; }

  // Number of state flips materialised so far (diagnostics/tests).
  size_t transitions() const { return flips_.size(); }

 private:
  void ExtendTo(TimeUs t);

  Rng rng_;
  Config config_;
  // Strictly increasing state-flip instants: the state at t is good iff an
  // even number of flips lie at or before t. Extended lazily, in order, so
  // the trajectory depends only on the seed.
  std::vector<int64_t> flips_;
  int64_t horizon_us_ = 0;  // Trajectory materialised up to here.
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_FAULT_GILBERT_ELLIOTT_H_
