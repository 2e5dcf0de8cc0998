#include "src/util/stats.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string>
#include <vector>

namespace airfair {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.Add(5.0);
  EXPECT_EQ(s.count(), 1);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1: sum sq dev = 32, / 7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, HandlesNegativeValues) {
  RunningStats s;
  s.Add(-10.0);
  s.Add(10.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -10.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
}

TEST(SampleSet, QuantilesOfKnownData) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 100.0);
  EXPECT_NEAR(s.Median(), 50.5, 1e-9);
  EXPECT_NEAR(s.Quantile(0.25), 25.75, 1e-9);
}

TEST(SampleSet, QuantileEmptyIsZero) {
  SampleSet s;
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 0.0);
  EXPECT_TRUE(s.empty());
}

TEST(SampleSet, QuantileClampsArgument) {
  SampleSet s;
  s.Add(3.0);
  s.Add(7.0);
  EXPECT_DOUBLE_EQ(s.Quantile(-1.0), 3.0);
  EXPECT_DOUBLE_EQ(s.Quantile(2.0), 7.0);
}

TEST(SampleSet, MeanMatches) {
  SampleSet s;
  s.Add(1.0);
  s.Add(2.0);
  s.Add(6.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(SampleSet, AddTimeUsesMilliseconds) {
  SampleSet s;
  s.AddTime(TimeUs::FromMilliseconds(250));
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 250.0);
}

TEST(SampleSet, InterleavedAddAndQuery) {
  SampleSet s;
  s.Add(5.0);
  EXPECT_DOUBLE_EQ(s.Median(), 5.0);
  s.Add(1.0);
  EXPECT_DOUBLE_EQ(s.Median(), 3.0);
  s.Add(9.0);
  EXPECT_DOUBLE_EQ(s.Median(), 5.0);
}

TEST(Jain, PerfectFairnessIsOne) {
  const std::array<double, 4> shares = {0.25, 0.25, 0.25, 0.25};
  EXPECT_DOUBLE_EQ(JainFairnessIndex(shares), 1.0);
}

TEST(Jain, TotalUnfairnessIsOneOverN) {
  const std::array<double, 4> shares = {1.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(JainFairnessIndex(shares), 0.25);
}

TEST(Jain, ScaleInvariant) {
  const std::array<double, 3> a = {1.0, 2.0, 3.0};
  const std::array<double, 3> b = {10.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(JainFairnessIndex(a), JainFairnessIndex(b));
}

TEST(Jain, EmptyAndZeroInputsAreFair) {
  EXPECT_DOUBLE_EQ(JainFairnessIndex(std::span<const double>()), 1.0);
  const std::array<double, 3> zeros = {0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(JainFairnessIndex(zeros), 1.0);
}

TEST(Jain, PaperAnomalyExample) {
  // FIFO airtime shares from Table 1: roughly 10/11/79 percent.
  const std::array<double, 3> shares = {0.10, 0.11, 0.79};
  const double j = JainFairnessIndex(shares);
  EXPECT_LT(j, 0.6);
  EXPECT_GT(j, 0.33);
}

TEST(MedianOf, OddAndEven) {
  EXPECT_DOUBLE_EQ(MedianOf({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(MedianOf({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(MedianOf({}), 0.0);
  EXPECT_DOUBLE_EQ(MedianOf({7.0}), 7.0);
}

// ---------------------------------------------------------------------------
// The named-counter registry.

TEST(Counters, GetReturnsStableReferenceAndSnapshotSorts) {
  ResetCounters();
  Counter& a = GetCounter("zz.second");
  Counter& b = GetCounter("aa.first");
  a.Increment(2);
  b.Increment(3);
  EXPECT_EQ(&a, &GetCounter("zz.second"));
  const auto snapshot = CounterSnapshot();
  ASSERT_GE(snapshot.size(), 2u);
  // Sorted by name: aa.first before zz.second.
  int64_t first = -1, second = -1;
  for (size_t i = 0; i + 1 < snapshot.size(); ++i) {
    EXPECT_LT(snapshot[i].first, snapshot[i + 1].first);
  }
  for (const auto& [name, value] : snapshot) {
    if (name == "aa.first") first = value;
    if (name == "zz.second") second = value;
  }
  EXPECT_EQ(first, 3);
  EXPECT_EQ(second, 2);
  ResetCounters();
  EXPECT_EQ(GetCounter("zz.second").value(), 0);
}

}  // namespace
}  // namespace airfair
