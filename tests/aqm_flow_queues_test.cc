// Tests for the shared FQ-CoDel flow-queue core (src/aqm/flow_queues.h),
// driven directly with two tins on one pool, as the MAC queues run it.

#include "src/aqm/flow_queues.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "tests/test_util.h"

namespace airfair {
namespace {

constexpr int kQuantum = 300;

class FlowQueuesTest : public ::testing::Test {
 protected:
  FlowQueues Make(int queues) {
    return FlowQueues([this] { return now_; }, queues, kQuantum);
  }

  // Audits the pool and both tins. Every audit's return value must equal
  // the number of messages it reported.
  std::vector<std::string> Audit(const FlowQueues& flows) const {
    std::vector<std::string> found;
    auto fail = [&found](const std::string& message) { found.push_back(message); };
    const int returned =
        flows.CheckInvariants(fail) + flows.CheckTin(a_, fail) + flows.CheckTin(b_, fail);
    EXPECT_EQ(returned, static_cast<int>(found.size()));
    return found;
  }

  TimeUs now_;
  FlowTin a_;
  FlowTin b_;
};

TEST_F(FlowQueuesTest, DrainedQueueMovesToOldListThenIsReleasedToTheOtherTin) {
  FlowQueues flows = Make(/*queues=*/2);
  FlowQueue& backlogged = flows.queue(0);
  FlowQueue& sparse = flows.queue(1);
  for (int i = 0; i < 5; ++i) {
    flows.Push(backlogged, a_, MakePacket(100, 1000), /*tie=*/0);
  }
  // Three 100-byte packets use up the 300-byte quantum; the fourth dequeue
  // moves the queue to the old list with a fresh quantum.
  for (int i = 0; i < 4; ++i) {
    ASSERT_NE(flows.Dequeue(a_, CoDelParams::Default()), nullptr);
  }
  ASSERT_EQ(a_.old_flows.Front(), &backlogged);

  auto packet = MakePacket(100, 1001);
  packet->flow_seq = 7;
  flows.Push(sparse, a_, std::move(packet), /*tie=*/1);
  PacketPtr out = flows.Dequeue(a_, CoDelParams::Default());  // New list first.
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->flow_seq, 7);

  // Drained on the new list: the queue moves behind the backlogged one on
  // the old list and stays a's.
  ASSERT_NE(flows.Dequeue(a_, CoDelParams::Default()), nullptr);
  EXPECT_EQ(sparse.tin, &a_);
  EXPECT_EQ(a_.old_flows.Back(), &sparse);

  // Drained on the old list: both queues go back to the pool.
  EXPECT_EQ(flows.Dequeue(a_, CoDelParams::Default()), nullptr);
  EXPECT_EQ(sparse.tin, nullptr);
  EXPECT_FALSE(sparse.node.linked());
  EXPECT_TRUE(a_.old_flows.empty());

  flows.Push(sparse, b_, MakePacket(1500, 2000), /*tie=*/2);
  EXPECT_EQ(sparse.tin, &b_);
  EXPECT_EQ(b_.new_flows.Front(), &sparse);
  EXPECT_TRUE(Audit(flows).empty());
  EXPECT_EQ(flows.Dequeue(a_, CoDelParams::Default()), nullptr);
  EXPECT_NE(flows.Dequeue(b_, CoDelParams::Default()), nullptr);
}

TEST_F(FlowQueuesTest, LowerTieIsDroppedAmongEqualBacklogs) {
  FlowQueues flows = Make(/*queues=*/4);
  // Equal backlogs in two tins. The tie is stamped when a queue joins the
  // backlog, so queue 3's later join still carries the lower tie.
  for (int i = 0; i < 2; ++i) {
    flows.Push(flows.queue(1), a_, MakePacket(1500, 1000), /*tie=*/9);
    flows.Push(flows.queue(3), b_, MakePacket(1500, 1001), /*tie=*/4);
  }
  flows.DropFattest();
  EXPECT_EQ(flows.overflow_drops(), 1);
  EXPECT_EQ(flows.queue(3).packets.size(), 1u);
  EXPECT_EQ(b_.backlog_packets, 1);
  EXPECT_EQ(a_.backlog_packets, 2);

  // Queue 1 is now the longest, whatever its tie.
  flows.DropFattest();
  EXPECT_EQ(flows.queue(1).packets.size(), 1u);
  EXPECT_EQ(flows.packet_count(), 2);
  EXPECT_TRUE(Audit(flows).empty());
}

TEST_F(FlowQueuesTest, FlushKeepsConservation) {
  FlowQueues flows = Make(/*queues=*/8);
  for (int i = 0; i < 3; ++i) {
    flows.Push(flows.queue(2), a_, MakePacket(1500, 1000), /*tie=*/2);
  }
  flows.Push(flows.queue(5), b_, MakePacket(1500, 1001), /*tie=*/5);
  flows.Push(flows.queue(5), b_, MakePacket(1500, 1001), /*tie=*/5);
  ASSERT_NE(flows.Dequeue(a_, CoDelParams::Default()), nullptr);

  EXPECT_EQ(flows.Flush(flows.queue(2)), 2);
  EXPECT_EQ(flows.flushed_total(), 2);
  EXPECT_EQ(flows.packet_count(), 2);
  EXPECT_EQ(a_.backlog_packets, 0);
  EXPECT_EQ(flows.queue(2).tin, nullptr);
  EXPECT_FALSE(flows.queue(2).node.linked());
  EXPECT_EQ(flows.enqueued_total(),
            flows.dequeued_total() + flows.drops() + flows.flushed_total() +
                flows.packet_count());
  EXPECT_TRUE(Audit(flows).empty());

  // The flushed queue is free for the other tin.
  flows.Push(flows.queue(2), b_, MakePacket(1500, 1002), /*tie=*/6);
  EXPECT_EQ(b_.backlog_packets, 3);
  EXPECT_TRUE(Audit(flows).empty());
}

TEST_F(FlowQueuesTest, CheckTinFlagsACorruptedTinCounter) {
  FlowQueues flows = Make(/*queues=*/4);
  flows.Push(flows.queue(0), a_, MakePacket(), /*tie=*/0);
  flows.Push(flows.queue(1), b_, MakePacket(), /*tie=*/1);
  ASSERT_TRUE(Audit(flows).empty());

  a_.backlog_packets += 7;
  std::vector<std::string> found;
  auto fail = [&found](const std::string& message) { found.push_back(message); };
  EXPECT_EQ(flows.CheckTin(a_, fail), 1);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_NE(found[0].find("tin backlog counter mismatch"), std::string::npos) << found[0];
  EXPECT_EQ(flows.CheckTin(b_, fail), 0);
  EXPECT_EQ(flows.CheckInvariants(fail), 0);
}

TEST_F(FlowQueuesTest, NestedAuditFailuresAreCountedOnce) {
  FlowQueues flows = Make(/*queues=*/16);
  for (uint64_t i = 0; i < 8; ++i) {
    for (uint64_t n = 0; n <= i; ++n) {
      flows.Push(flows.queue(i), i % 2 == 0 ? a_ : b_, MakePacket(), /*tie=*/i);
    }
  }
  ASSERT_TRUE(Audit(flows).empty());
  flows.CorruptBacklogHeapForTesting();
  const std::vector<std::string> found = Audit(flows);  // Asserts the count.
  ASSERT_FALSE(found.empty());
  EXPECT_NE(found[0].find("backlog heap order violated"), std::string::npos) << found[0];
}

}  // namespace
}  // namespace airfair
