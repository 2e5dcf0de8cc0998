#include "src/util/rng.h"

namespace airfair {

namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& w : state_) {
    w = SplitMix64(sm);
  }
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  // Rejection to avoid modulo bias: draws below 2^64 mod bound are redrawn.
  // That threshold is below bound, so a draw at or above bound is always
  // kept, and the division that computes the threshold is paid only when
  // the draw falls below bound.
  uint64_t r = Next();
  if (r < bound) {
    const uint64_t threshold = -bound % bound;
    while (r < threshold) {
      r = Next();
    }
  }
  return r % bound;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBelow(span));
}

double Rng::UniformDouble() {
  // 53 high bits -> uniform in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::Chance(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return UniformDouble() < p;
}

}  // namespace airfair
