#include "src/core/mac_queues.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/util/check.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace airfair {
namespace {

using namespace time_literals;

class MacQueuesTest : public ::testing::Test {
 protected:
  MacQueues Make(MacQueues::Config config = MacQueues::Config()) {
    return MacQueues([this] { return now_; }, config);
  }

  PacketPtr Flow(uint16_t src_port, int bytes = 1500) {
    return MakePacket(bytes, src_port);
  }

  TimeUs now_;
};

TEST_F(MacQueuesTest, EnqueueDequeueRoundTrip) {
  MacQueues q = Make();
  auto p = Flow(1000);
  p->flow_seq = 42;
  q.Enqueue(std::move(p), /*station=*/0, /*tid=*/0);
  EXPECT_EQ(q.TidBacklog(0, 0), 1);
  PacketPtr out = q.Dequeue(0, 0);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->flow_seq, 42);
  EXPECT_EQ(q.TidBacklog(0, 0), 0);
  EXPECT_EQ(q.Dequeue(0, 0), nullptr);
}

TEST_F(MacQueuesTest, TidsAreIndependent) {
  MacQueues q = Make();
  q.Enqueue(Flow(1000), 0, 0);
  q.Enqueue(Flow(1001), 1, 0);
  EXPECT_EQ(q.TidBacklog(0, 0), 1);
  EXPECT_EQ(q.TidBacklog(1, 0), 1);
  EXPECT_NE(q.Dequeue(0, 0), nullptr);
  EXPECT_EQ(q.Dequeue(0, 0), nullptr);  // Station 0 drained...
  EXPECT_NE(q.Dequeue(1, 0), nullptr);  // ...station 1 unaffected.
}

TEST_F(MacQueuesTest, DequeueUnknownTidIsNull) {
  MacQueues q = Make();
  EXPECT_EQ(q.Dequeue(5, 3), nullptr);
  EXPECT_EQ(q.TidBacklog(5, 3), 0);
  EXPECT_EQ(q.PeekBytes(5, 3), -1);
}

TEST_F(MacQueuesTest, CrossTidHashCollisionGoesToOverflowQueue) {
  // With a single flow queue in the pool, every flow collides. The first
  // TID owns the pool queue; a second TID's packet must land in that TID's
  // overflow queue and still be dequeueable from the second TID.
  MacQueues::Config config;
  config.flow_queues = 1;
  MacQueues q = Make(config);
  q.Enqueue(Flow(1000), 0, 0);
  auto other = Flow(2000);
  other->flow_seq = 7;
  q.Enqueue(std::move(other), 0, 1);  // Different TID, same (only) queue.
  EXPECT_EQ(q.TidBacklog(0, 0), 1);
  EXPECT_EQ(q.TidBacklog(0, 1), 1);
  PacketPtr p = q.Dequeue(0, 1);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->flow_seq, 7);
}

TEST_F(MacQueuesTest, QueueReleasedToPoolAfterDraining) {
  // Algorithm 2 lines 17-18: an emptied old-list queue detaches from its
  // TID (queue.tid <- NULL), so another TID can claim it afterwards.
  MacQueues::Config config;
  config.flow_queues = 1;
  MacQueues q = Make(config);
  q.Enqueue(Flow(1000), 0, 0);
  // Drain TID 0 fully: first dequeue returns the packet, the queue is still
  // on the new list; the next dequeue pass rotates and removes it.
  EXPECT_NE(q.Dequeue(0, 0), nullptr);
  EXPECT_EQ(q.Dequeue(0, 0), nullptr);
  // Now TID 1 enqueues a flow hashing to the same pool queue: since the
  // queue was released, it must NOT go to the overflow queue but own the
  // pool queue directly - observable as normal FIFO service.
  q.Enqueue(Flow(2000), 0, 1);
  EXPECT_EQ(q.TidBacklog(0, 1), 1);
  EXPECT_NE(q.Dequeue(0, 1), nullptr);
}

TEST_F(MacQueuesTest, GlobalLimitDropsFromLongestQueue) {
  MacQueues::Config config;
  config.global_limit_packets = 10;
  MacQueues q = Make(config);
  // Station 0 is the hog: 8 packets. Station 1 has 2.
  for (int i = 0; i < 8; ++i) {
    q.Enqueue(Flow(1000), 0, 0);
  }
  for (int i = 0; i < 2; ++i) {
    q.Enqueue(Flow(1001), 1, 0);
  }
  EXPECT_EQ(q.packet_count(), 10);
  // Next enqueue exceeds the limit; the drop must come from station 0's
  // (longest) queue, not from the enqueuing flow.
  q.Enqueue(Flow(1001), 1, 0);
  EXPECT_EQ(q.packet_count(), 10);
  EXPECT_EQ(q.overflow_drops(), 1);
  EXPECT_EQ(q.TidBacklog(0, 0), 7);
  EXPECT_EQ(q.TidBacklog(1, 0), 3);
}

TEST_F(MacQueuesTest, OverflowVictimTieBreaksOnJoinOrder) {
  // find_longest_queue() among equal backlogs picks the queue that became
  // backlogged first; a queue that drains and rejoins goes to the back.
  // Flows A, B, C and D sit on stations 0-3 so they never share a queue.
  MacQueues::Config config;
  config.global_limit_packets = 7;
  MacQueues q = Make(config);
  constexpr StationId kA = 0, kB = 1, kC = 2, kD = 3;
  for (int round = 0; round < 2; ++round) {
    for (StationId s : {kA, kB, kC}) {
      q.Enqueue(Flow(static_cast<uint16_t>(1000 + s)), s, 0);
    }
  }
  q.Enqueue(Flow(1003, 100), kD, 0);
  ASSERT_EQ(q.packet_count(), 7);
  ASSERT_EQ(q.overflow_drops(), 0);

  // A, B and C hold 3000 bytes each: the first overflow drop is A's.
  q.Enqueue(Flow(1003, 100), kD, 0);
  EXPECT_EQ(q.overflow_drops(), 1);
  EXPECT_EQ(q.TidBacklog(kA, 0), 1);
  EXPECT_EQ(q.TidBacklog(kB, 0), 2);
  EXPECT_EQ(q.TidBacklog(kC, 0), 2);

  // A drains (leaving the backlog) and rejoins behind B and C with the same
  // 3000 bytes; D drains to make room.
  EXPECT_NE(q.Dequeue(kA, 0), nullptr);
  EXPECT_EQ(q.Dequeue(kA, 0), nullptr);
  EXPECT_NE(q.Dequeue(kD, 0), nullptr);
  EXPECT_NE(q.Dequeue(kD, 0), nullptr);
  q.Enqueue(Flow(1000), kA, 0);
  q.Enqueue(Flow(1000), kA, 0);
  q.Enqueue(Flow(1003, 100), kD, 0);
  ASSERT_EQ(q.packet_count(), 7);
  ASSERT_EQ(q.overflow_drops(), 1);

  // Now B is the earliest joiner among the three equal queues.
  q.Enqueue(Flow(1003, 100), kD, 0);
  EXPECT_EQ(q.overflow_drops(), 2);
  EXPECT_EQ(q.TidBacklog(kA, 0), 2);
  EXPECT_EQ(q.TidBacklog(kB, 0), 1);
  EXPECT_EQ(q.TidBacklog(kC, 0), 2);
}

TEST_F(MacQueuesTest, RejectsConfigsThatWouldHangOrFault) {
  // Each value would otherwise hang Enqueue (no queue to drop from), hang
  // Dequeue (a deficit that never turns positive) or divide by zero.
  struct Case {
    const char* field;
    void (*apply)(MacQueues::Config&);
  };
  const Case cases[] = {
      {"flow_queues", [](MacQueues::Config& c) { c.flow_queues = 0; }},
      {"global_limit_packets", [](MacQueues::Config& c) { c.global_limit_packets = 0; }},
      {"global_limit_packets", [](MacQueues::Config& c) { c.global_limit_packets = -5; }},
      {"quantum_bytes", [](MacQueues::Config& c) { c.quantum_bytes = 0; }},
  };
  for (const Case& bad : cases) {
    MacQueues::Config config;
    bad.apply(config);
    std::vector<std::string> failures;
    {
      ScopedCheckFailureHandler guard(
          [&](const char*, int, const std::string& m) { failures.push_back(m); });
      MacQueues q = Make(config);
    }
    ASSERT_EQ(failures.size(), 1u) << bad.field;
    EXPECT_NE(failures[0].find(bad.field), std::string::npos) << failures[0];
  }
}

TEST_F(MacQueuesTest, GlobalLimitPreventsLockout) {
  // The paper's Section 4.1.2 mechanism: the slow station cannot occupy the
  // entire queueing space. Fill with a hog, then verify a newcomer can
  // still build backlog.
  MacQueues::Config config;
  config.global_limit_packets = 100;
  MacQueues q = Make(config);
  for (int i = 0; i < 100; ++i) {
    q.Enqueue(Flow(1000), 0, 0);
  }
  for (int i = 0; i < 30; ++i) {
    q.Enqueue(Flow(1001), 1, 0);
  }
  EXPECT_EQ(q.TidBacklog(1, 0), 30);
  EXPECT_EQ(q.TidBacklog(0, 0), 70);
}

TEST_F(MacQueuesTest, DefaultConfigMatchesFigure3) {
  MacQueues::Config config;
  EXPECT_EQ(config.global_limit_packets, 8192);  // The "8192 (Global limit)" box.
  EXPECT_EQ(config.flow_queues, 4096);
  EXPECT_EQ(config.quantum_bytes, 300);          // mac80211 fq default.
}

TEST_F(MacQueuesTest, SparseFlowJumpsBacklog) {
  MacQueues q = Make();
  for (int i = 0; i < 50; ++i) {
    q.Enqueue(Flow(1000), 0, 0);
  }
  (void)q.Dequeue(0, 0);  // Heavy flow rotates to the old list.
  auto sparse = Flow(2000, 100);
  sparse->flow_seq = 555;
  q.Enqueue(std::move(sparse), 0, 0);
  PacketPtr p = q.Dequeue(0, 0);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->flow_seq, 555);
}

TEST_F(MacQueuesTest, DrrSharesServiceBetweenFlows) {
  MacQueues q = Make();
  for (int i = 0; i < 40; ++i) {
    q.Enqueue(Flow(1000), 0, 0);
    q.Enqueue(Flow(1001), 0, 0);
  }
  int from_a = 0;
  int from_b = 0;
  for (int i = 0; i < 40; ++i) {
    PacketPtr p = q.Dequeue(0, 0);
    ASSERT_NE(p, nullptr);
    (p->flow.src_port == 1000 ? from_a : from_b)++;
  }
  EXPECT_NEAR(from_a, 20, 2);
  EXPECT_NEAR(from_b, 20, 2);
}

TEST_F(MacQueuesTest, PerStationCodelParamsAreConsulted) {
  MacQueues q = Make();
  std::vector<StationId> asked;
  q.set_codel_params_provider([&asked](StationId s) {
    asked.push_back(s);
    return CoDelParams::Default();
  });
  q.Enqueue(Flow(1000), 3, 0);
  (void)q.Dequeue(3, 0);
  ASSERT_FALSE(asked.empty());
  EXPECT_EQ(asked.front(), 3);
}

TEST_F(MacQueuesTest, LowRateParamsSuppressCodelDrops) {
  // Two stations with identical 30 ms standing queues; station 1 uses the
  // low-rate profile and must see no CoDel drops.
  MacQueues q = Make();
  q.set_codel_params_provider([](StationId s) {
    return s == 1 ? CoDelParams::LowRate() : CoDelParams::Default();
  });
  for (int i = 0; i < 300; ++i) {
    q.Enqueue(Flow(1000), 0, 0);
    q.Enqueue(Flow(2000), 1, 0);
    now_ += 2_ms;
    if (i >= 15) {
      (void)q.Dequeue(0, 0);
      (void)q.Dequeue(1, 0);
    }
  }
  EXPECT_GT(q.codel_drops(), 0);
  // Station 1's backlog should be intact minus services (no drops):
  EXPECT_EQ(q.TidBacklog(1, 0), 300 - 285);
}

TEST_F(MacQueuesTest, PeekMatchesHeadOfLine) {
  MacQueues q = Make();
  q.Enqueue(Flow(1000, 700), 0, 0);
  q.Enqueue(Flow(1000, 1500), 0, 0);
  EXPECT_EQ(q.PeekBytes(0, 0), 700);
  (void)q.Dequeue(0, 0);
  EXPECT_EQ(q.PeekBytes(0, 0), 1500);
  (void)q.Dequeue(0, 0);
  EXPECT_EQ(q.PeekBytes(0, 0), -1);
}

TEST_F(MacQueuesTest, PacketConservationUnderRandomOps) {
  // Property: enqueued == dequeued + dropped + still-queued, across a random
  // mix of stations, TIDs, flows and operations, and the invariant audit
  // (backlog-heap order included) holds after every operation.
  MacQueues::Config config;
  config.global_limit_packets = 64;
  MacQueues q = Make(config);
  Rng rng(99);
  int64_t enqueued = 0;
  int64_t dequeued = 0;
  for (int i = 0; i < 5000; ++i) {
    now_ += TimeUs(rng.UniformInt(0, 500));
    if (rng.Chance(0.6)) {
      const auto port = static_cast<uint16_t>(1000 + rng.UniformInt(0, 7));
      q.Enqueue(Flow(port), static_cast<StationId>(rng.UniformInt(0, 3)),
                static_cast<Tid>(rng.UniformInt(0, 3)));
      ++enqueued;
    } else {
      if (q.Dequeue(static_cast<StationId>(rng.UniformInt(0, 3)),
                    static_cast<Tid>(rng.UniformInt(0, 3))) != nullptr) {
        ++dequeued;
      }
    }
    std::vector<std::string> violations;
    q.CheckInvariants([&](const std::string& m) { violations.push_back(m); });
    ASSERT_TRUE(violations.empty()) << "after op " << i << ": " << violations.front();
  }
  EXPECT_EQ(enqueued, dequeued + q.drops() + q.packet_count());
  EXPECT_LE(q.packet_count(), 64);
}

TEST_F(MacQueuesTest, BacklogCountsConsistent) {
  MacQueues q = Make();
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < 5; ++i) {
      q.Enqueue(Flow(static_cast<uint16_t>(1000 + s)), s, 0);
    }
  }
  EXPECT_EQ(q.packet_count(), 15);
  int total = 0;
  for (int s = 0; s < 3; ++s) {
    total += q.TidBacklog(s, 0);
  }
  EXPECT_EQ(total, 15);
}

}  // namespace
}  // namespace airfair
