// Deterministic pseudo-random number generation for simulations.
//
// Every simulation run owns a single Rng seeded from the scenario
// configuration, so that runs are exactly reproducible. The generator is
// xoshiro256** (Blackman & Vigna), which is fast, tiny, and has excellent
// statistical quality for simulation use.

#ifndef AIRFAIR_SRC_UTIL_RNG_H_
#define AIRFAIR_SRC_UTIL_RNG_H_

#include <cstdint>

namespace airfair {

class Rng {
 public:
  // Seeds the four 64-bit state words from `seed` with splitmix64 so that
  // nearby seeds (0, 1, 2, ...) still give uncorrelated streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  // Raw 64 random bits.
  uint64_t Next();

  // Uniform in [0, bound), bias-free (rejection sampling). bound must be > 0.
  uint64_t NextBelow(uint64_t bound);

  // Uniform integer in the closed range [lo, hi].
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double UniformDouble();

  // Bernoulli trial with probability p of returning true.
  bool Chance(double p);

 private:
  uint64_t state_[4];
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_UTIL_RNG_H_
