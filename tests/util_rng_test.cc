#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <vector>

namespace airfair {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.NextBelow(1), 0u);
  }
}

// Reference: the plain rejection loop, which computes the threshold on every
// draw. NextBelow must consume and return the same stream.
uint64_t ReferenceNextBelow(Rng& rng, uint64_t bound) {
  const uint64_t threshold = -bound % bound;
  for (;;) {
    const uint64_t r = rng.Next();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

TEST(Rng, NextBelowMatchesRejectionReference) {
  // At 2^63 + 1 about half the draws fall below bound and the threshold is
  // 2^63 - 1, so both the skip and the redraw branches run.
  const uint64_t bounds[] = {1,           2,           7,           17,
                             1000,        uint64_t{1} << 32,
                             (uint64_t{1} << 32) + 1,  (uint64_t{1} << 63) + 1,
                             ~uint64_t{0}};
  for (const uint64_t bound : bounds) {
    Rng rng(31);
    Rng reference(31);
    for (int i = 0; i < 10000; ++i) {
      ASSERT_EQ(rng.NextBelow(bound), ReferenceNextBelow(reference, bound))
          << "bound " << bound << " draw " << i;
    }
    EXPECT_EQ(rng.Next(), reference.Next()) << "bound " << bound;
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == -3;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
    EXPECT_FALSE(rng.Chance(-1.0));
    EXPECT_TRUE(rng.Chance(2.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) {
    if (rng.Chance(0.3)) {
      ++hits;
    }
  }
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

}  // namespace
}  // namespace airfair
