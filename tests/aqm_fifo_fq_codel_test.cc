#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/aqm/fifo.h"
#include "src/aqm/fq_codel.h"
#include "src/util/check.h"
#include "src/util/flow_hash.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace airfair {
namespace {

using namespace time_literals;

TEST(Fifo, PreservesOrder) {
  FifoQdisc q(10);
  for (int i = 0; i < 5; ++i) {
    auto p = MakePacket();
    p->flow_seq = i;
    q.Enqueue(std::move(p));
  }
  for (int i = 0; i < 5; ++i) {
    PacketPtr p = q.Dequeue();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->flow_seq, i);
  }
  EXPECT_EQ(q.Dequeue(), nullptr);
}

TEST(Fifo, TailDropsAtLimit) {
  FifoQdisc q(3);
  for (int i = 0; i < 5; ++i) {
    q.Enqueue(MakePacket());
  }
  EXPECT_EQ(q.packet_count(), 3);
  EXPECT_EQ(q.drops(), 2);
}

TEST(Fifo, DefaultLimitMatchesKernelTxqueuelen) {
  FifoQdisc q;
  EXPECT_EQ(q.limit(), 1000);
}

class FqCodelTest : public ::testing::Test {
 protected:
  FqCodelQdisc Make(FqCodelConfig config = FqCodelConfig()) {
    return FqCodelQdisc([this] { return now_; }, config);
  }
  TimeUs now_;
};

TEST_F(FqCodelTest, SingleFlowFifoBehaviour) {
  FqCodelQdisc q = Make();
  for (int i = 0; i < 5; ++i) {
    auto p = MakePacket();
    p->flow_seq = i;
    q.Enqueue(std::move(p));
  }
  for (int i = 0; i < 5; ++i) {
    PacketPtr p = q.Dequeue();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->flow_seq, i);
  }
}

TEST_F(FqCodelTest, FlowsAreIsolatedIntoQueues) {
  FqCodelQdisc q = Make();
  for (int i = 0; i < 4; ++i) {
    q.Enqueue(MakePacket(1500, /*src_port=*/1000));
    q.Enqueue(MakePacket(1500, /*src_port=*/1001));
  }
  EXPECT_EQ(q.active_flows(), 2);
}

TEST_F(FqCodelTest, DrrSharesBandwidthByBytes) {
  FqCodelQdisc q = Make();
  // Flow A: big packets; flow B: small packets (five per big one, so both
  // offer equal bytes). DRR should serve roughly equal *bytes* from each.
  for (int i = 0; i < 60; ++i) {
    q.Enqueue(MakePacket(1500, 1000));
    for (int j = 0; j < 5; ++j) {
      q.Enqueue(MakePacket(300, 1001));
    }
  }
  int64_t bytes_a = 0;
  int64_t bytes_b = 0;
  for (int i = 0; i < 100; ++i) {
    PacketPtr p = q.Dequeue();
    ASSERT_NE(p, nullptr);
    (p->flow.src_port == 1000 ? bytes_a : bytes_b) += p->size_bytes;
  }
  EXPECT_NEAR(static_cast<double>(bytes_a) / bytes_b, 1.0, 0.35);
}

TEST_F(FqCodelTest, SparseFlowGetsPriority) {
  FqCodelQdisc q = Make();
  // Backlog a heavy flow past its new-list round: after ~two quantum's
  // worth of service it rotates onto the old list.
  for (int i = 0; i < 50; ++i) {
    q.Enqueue(MakePacket(1500, 1000));
  }
  (void)q.Dequeue();
  (void)q.Dequeue();
  (void)q.Dequeue();
  // A new sparse flow arrives: its packet should jump the backlog.
  auto sparse = MakePacket(100, 1001);
  sparse->flow_seq = 777;
  q.Enqueue(std::move(sparse));
  PacketPtr p = q.Dequeue();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->flow_seq, 777);
}

TEST_F(FqCodelTest, EmptiedNewFlowCannotRegainPriority) {
  FqCodelQdisc q = Make();
  for (int i = 0; i < 50; ++i) {
    q.Enqueue(MakePacket(1500, 1000));
  }
  (void)q.Dequeue();
  // Sparse flow sends one packet, gets served, empties.
  q.Enqueue(MakePacket(100, 1001));
  (void)q.Dequeue();
  // It immediately sends again: this time it must NOT preempt (anti-gaming:
  // the emptied queue moved to the old list).
  auto second = MakePacket(100, 1001);
  second->flow_seq = 888;
  q.Enqueue(std::move(second));
  PacketPtr p = q.Dequeue();
  ASSERT_NE(p, nullptr);
  EXPECT_NE(p->flow_seq, 888);
}

TEST_F(FqCodelTest, OverflowDropsFromFattestFlow) {
  FqCodelConfig config;
  config.limit_packets = 100;
  FqCodelQdisc q = Make(config);
  for (int i = 0; i < 90; ++i) {
    q.Enqueue(MakePacket(1500, 1000));  // Fat flow.
  }
  for (int i = 0; i < 20; ++i) {
    q.Enqueue(MakePacket(100, 1001));  // Thin flow.
  }
  EXPECT_EQ(q.packet_count(), 100);
  EXPECT_EQ(q.overflow_drops(), 10);
  // All drops must have come from the fat flow: the thin flow still has its
  // 20 packets.
  int thin = 0;
  while (PacketPtr p = q.Dequeue()) {
    if (p->flow.src_port == 1001) {
      ++thin;
    }
  }
  EXPECT_EQ(thin, 20);
}

TEST_F(FqCodelTest, OverflowTieBreaksOnLowerQueueIndex) {
  // Two flows with equal backlogs: the drop comes from the one hashed to the
  // lower queue index, whichever enqueued first.
  const FqCodelConfig defaults;
  auto index_of = [&](uint16_t port) {
    return HashFlow(MakePacket(1500, port)->flow) % static_cast<uint64_t>(defaults.flows);
  };
  uint16_t low = 1000;
  uint16_t high = 1001;
  while (index_of(low) == index_of(high)) {
    ++high;
  }
  if (index_of(low) > index_of(high)) {
    std::swap(low, high);
  }
  for (const bool low_first : {true, false}) {
    SCOPED_TRACE(low_first);
    FqCodelConfig config;
    config.limit_packets = 4;
    FqCodelQdisc q = Make(config);
    for (uint16_t port : low_first ? std::vector<uint16_t>{low, high}
                                   : std::vector<uint16_t>{high, low}) {
      q.Enqueue(MakePacket(1500, port));
      q.Enqueue(MakePacket(1500, port));
    }
    q.Enqueue(MakePacket(100, 3000));  // Pushes the qdisc over its limit.
    ASSERT_EQ(q.overflow_drops(), 1);
    int from_low = 0;
    int from_high = 0;
    while (PacketPtr p = q.Dequeue()) {
      from_low += p->flow.src_port == low ? 1 : 0;
      from_high += p->flow.src_port == high ? 1 : 0;
    }
    EXPECT_EQ(from_low, 1);
    EXPECT_EQ(from_high, 2);
  }
}

TEST_F(FqCodelTest, RejectsConfigsThatWouldHangOrFault) {
  // Each value would otherwise divide by zero, hang Enqueue (dropping from
  // an empty qdisc) or hang Dequeue (a deficit that never turns positive).
  struct Case {
    const char* field;
    void (*apply)(FqCodelConfig&);
  };
  const Case cases[] = {
      {"flows", [](FqCodelConfig& c) { c.flows = 0; }},
      {"limit_packets", [](FqCodelConfig& c) { c.limit_packets = -1; }},
      {"quantum_bytes", [](FqCodelConfig& c) { c.quantum_bytes = 0; }},
  };
  for (const Case& bad : cases) {
    FqCodelConfig config;
    bad.apply(config);
    std::vector<std::string> failures;
    {
      ScopedCheckFailureHandler guard(
          [&](const char*, int, const std::string& m) { failures.push_back(m); });
      FqCodelQdisc q = Make(config);
    }
    ASSERT_EQ(failures.size(), 1u) << bad.field;
    EXPECT_NE(failures[0].find(bad.field), std::string::npos) << failures[0];
  }
}

TEST_F(FqCodelTest, AuditHoldsUnderRandomOps) {
  // Property: across a random mix of flows, packet sizes, enqueues and
  // dequeues against a small limit, the invariant audit (conservation and
  // backlog-heap order included) holds after every operation.
  FqCodelConfig config;
  config.limit_packets = 48;
  FqCodelQdisc q = Make(config);
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    now_ += TimeUs(rng.UniformInt(0, 500));
    if (rng.Chance(0.6)) {
      q.Enqueue(MakePacket(static_cast<int>(rng.UniformInt(1, 3)) * 500,
                           static_cast<uint16_t>(1000 + rng.UniformInt(0, 11))));
    } else {
      (void)q.Dequeue();
    }
    std::vector<std::string> violations;
    q.CheckInvariants([&](const std::string& m) { violations.push_back(m); });
    ASSERT_TRUE(violations.empty()) << "after op " << i << ": " << violations.front();
  }
  EXPECT_GT(q.overflow_drops(), 0);
  EXPECT_LE(q.packet_count(), 48);
}

TEST_F(FqCodelTest, CodelAppliesPerFlow) {
  FqCodelQdisc q = Make();
  // One flow with persistently standing queue gets CoDel drops.
  for (int i = 0; i < 500; ++i) {
    q.Enqueue(MakePacket(1500, 1000));
    q.Enqueue(MakePacket(1500, 1000));
    now_ += 2_ms;
    (void)q.Dequeue();
  }
  EXPECT_GT(q.codel_drops(), 0);
}

TEST_F(FqCodelTest, DefaultsMatchLinuxQdisc) {
  FqCodelConfig config;
  EXPECT_EQ(config.flows, 1024);
  EXPECT_EQ(config.limit_packets, 10240);
  EXPECT_EQ(config.quantum_bytes, 1514);
}

TEST_F(FqCodelTest, DequeueEmptyReturnsNull) {
  FqCodelQdisc q = Make();
  EXPECT_EQ(q.Dequeue(), nullptr);
  q.Enqueue(MakePacket());
  (void)q.Dequeue();
  EXPECT_EQ(q.Dequeue(), nullptr);
}

}  // namespace
}  // namespace airfair
