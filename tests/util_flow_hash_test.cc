#include "src/util/flow_hash.h"

#include <gtest/gtest.h>

#include <set>

namespace airfair {
namespace {

TEST(FlowHash, DeterministicForEqualKeys) {
  const FlowKey k{1, 2, 1000, 80, 6};
  EXPECT_EQ(HashFlow(k), HashFlow(k));
}

TEST(FlowHash, DependsOnEveryField) {
  const FlowKey base{1, 2, 1000, 80, 6};
  FlowKey k = base;
  k.src_node = 9;
  EXPECT_NE(HashFlow(base), HashFlow(k));
  k = base;
  k.dst_node = 9;
  EXPECT_NE(HashFlow(base), HashFlow(k));
  k = base;
  k.src_port = 9;
  EXPECT_NE(HashFlow(base), HashFlow(k));
  k = base;
  k.dst_port = 9;
  EXPECT_NE(HashFlow(base), HashFlow(k));
  k = base;
  k.protocol = 17;
  EXPECT_NE(HashFlow(base), HashFlow(k));
}

TEST(FlowHash, SpreadsAcrossBuckets) {
  // 1000 distinct flows into 1024 buckets should occupy many buckets.
  std::set<uint64_t> buckets;
  for (uint16_t port = 0; port < 1000; ++port) {
    const FlowKey k{1, 2, port, 80, 6};
    buckets.insert(HashFlow(k) % 1024);
  }
  EXPECT_GT(buckets.size(), 550u);  // Expected ~. 1024*(1-e^-0.98) ~= 640.
}

TEST(FlowKey, EqualityOperator) {
  const FlowKey a{1, 2, 3, 4, 5};
  FlowKey b = a;
  EXPECT_EQ(a, b);
  b.dst_port = 9;
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace airfair
