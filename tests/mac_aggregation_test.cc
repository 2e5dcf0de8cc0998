#include "src/mac/aggregation.h"

#include <gtest/gtest.h>

#include <deque>

#include "src/mac/airtime.h"
#include "src/mac/reorder.h"
#include "src/mac/wifi_constants.h"
#include "tests/test_util.h"

namespace airfair {
namespace {

AggregationSource SourceFrom(std::deque<PacketPtr>* queue) {
  AggregationSource source;
  source.peek_bytes = [queue]() -> int {
    return queue->empty() ? -1 : queue->front()->size_bytes;
  };
  source.pop = [queue]() -> Mpdu {
    Mpdu m;
    m.packet = std::move(queue->front());
    queue->pop_front();
    return m;
  };
  return source;
}

std::deque<PacketPtr> Packets(int n, int bytes = 1500) {
  std::deque<PacketPtr> q;
  for (int i = 0; i < n; ++i) {
    q.push_back(MakePacket(bytes));
  }
  return q;
}

TEST(Aggregation, EmptySourceGivesEmptyDescriptor) {
  std::deque<PacketPtr> q;
  const TxDescriptor tx =
      BuildAggregate(1, 2, 0, 0, FastStationRate(), true, SourceFrom(&q));
  EXPECT_TRUE(tx.empty());
}

TEST(Aggregation, FrameCountCap) {
  auto q = Packets(100);
  const TxDescriptor tx =
      BuildAggregate(1, 2, 0, 0, FastStationRate(), true, SourceFrom(&q));
  EXPECT_EQ(tx.frame_count(), kMaxMpdusPerAmpdu);
  EXPECT_EQ(static_cast<int>(q.size()), 100 - kMaxMpdusPerAmpdu);
  EXPECT_TRUE(tx.aggregated);
}

TEST(Aggregation, DurationCapBindsAtLowRates) {
  // MCS0: only 2 full-size MPDUs fit in the 4 ms cap.
  auto q = Packets(100);
  const TxDescriptor tx =
      BuildAggregate(1, 2, 0, 0, SlowStationRate(), true, SourceFrom(&q));
  EXPECT_EQ(tx.frame_count(), 2);
  EXPECT_LE(tx.duration, kMaxAmpduDuration + BlockAckDuration(SlowStationRate()));
}

TEST(Aggregation, OneMbpsFitsOneMpdu) {
  // Two 1500-byte MPDUs at 1 Mbit/s take ~25 ms, far past the 4 ms cap.
  auto q = Packets(5);
  const TxDescriptor tx = BuildAggregate(1, 2, 0, 0, OneMbpsRate(), true, SourceFrom(&q));
  EXPECT_EQ(tx.frame_count(), 1);
}

TEST(Aggregation, DurationIsEquationTwoPlusAck) {
  auto q = Packets(10);
  const TxDescriptor agg =
      BuildAggregate(1, 2, 0, 0, FastStationRate(), true, SourceFrom(&q));
  EXPECT_EQ(agg.duration, AmpduDataDuration(10 * PaddedMpduBytes(1500), FastStationRate()) +
                              BlockAckDuration(FastStationRate()));
  auto one = Packets(1);
  const TxDescriptor single =
      BuildAggregate(1, 2, 0, kVoiceTid, FastStationRate(), false, SourceFrom(&one));
  EXPECT_EQ(single.duration, SingleMpduDuration(1500, FastStationRate()) + LegacyAckDuration());
}

TEST(Aggregation, SingleOversizedFrameStillSent) {
  // Even when one frame alone exceeds the cap (legacy would), at least one
  // frame must go out so the queue cannot stall. Use a tiny rate via HT for
  // the aggregated path.
  PhyRate crawl{0.5e6, /*ht=*/true};
  auto q = Packets(5);
  const TxDescriptor tx = BuildAggregate(1, 2, 0, 0, crawl, true, SourceFrom(&q));
  EXPECT_EQ(tx.frame_count(), 1);
}

TEST(Aggregation, NonAggregatedPathTakesOnePacket) {
  auto q = Packets(10);
  const TxDescriptor tx =
      BuildAggregate(1, 2, 0, kVoiceTid, FastStationRate(), false, SourceFrom(&q));
  EXPECT_EQ(tx.frame_count(), 1);
  EXPECT_FALSE(tx.aggregated);
  EXPECT_EQ(tx.ac, AccessCategory::kVoice);
  EXPECT_EQ(q.size(), 9u);
}

TEST(Aggregation, DescriptorFieldsFilled) {
  auto q = Packets(3);
  const TxDescriptor tx =
      BuildAggregate(1, 2, 7, 0, FastStationRate(), true, SourceFrom(&q));
  EXPECT_EQ(tx.src_node, 1u);
  EXPECT_EQ(tx.dst_node, 2u);
  EXPECT_EQ(tx.station, 7);
  EXPECT_EQ(tx.tid, 0);
  EXPECT_EQ(tx.ac, AccessCategory::kBestEffort);
  EXPECT_GT(tx.duration, TimeUs::Zero());
  EXPECT_EQ(tx.payload_bytes(), 3 * 1500);
}

TEST(Aggregation, DurationGrowsWithFrames) {
  auto q1 = Packets(1);
  auto q8 = Packets(8);
  const TxDescriptor tx1 =
      BuildAggregate(1, 2, 0, 0, FastStationRate(), true, SourceFrom(&q1));
  const TxDescriptor tx8 =
      BuildAggregate(1, 2, 0, 0, FastStationRate(), true, SourceFrom(&q8));
  EXPECT_GT(tx8.duration, tx1.duration);
}

TEST(Aggregation, NullPopsAreSkipped) {
  // A source whose peek promises a packet but whose pop returns null
  // (CoDel dropped the backlog) must not crash or produce null MPDUs.
  int peeks_left = 3;
  AggregationSource source;
  source.peek_bytes = [&peeks_left]() -> int { return peeks_left-- > 0 ? 1500 : -1; };
  source.pop = []() -> Mpdu { return Mpdu{}; };
  const TxDescriptor tx = BuildAggregate(1, 2, 0, 0, FastStationRate(), true, source);
  EXPECT_TRUE(tx.empty());
  // And the non-aggregated path:
  peeks_left = 3;
  const TxDescriptor single = BuildAggregate(1, 2, 0, 0, FastStationRate(), false, source);
  EXPECT_TRUE(single.empty());
}

TEST(Aggregation, AllowedMatrix) {
  EXPECT_TRUE(AggregationAllowed(AccessCategory::kBestEffort, FastStationRate()));
  EXPECT_TRUE(AggregationAllowed(AccessCategory::kVideo, FastStationRate()));
  EXPECT_TRUE(AggregationAllowed(AccessCategory::kBackground, FastStationRate()));
  // VO is never aggregated (802.11e, and Table 2's VO throughput cost).
  EXPECT_FALSE(AggregationAllowed(AccessCategory::kVoice, FastStationRate()));
  // Legacy rates predate aggregation.
  EXPECT_FALSE(AggregationAllowed(AccessCategory::kBestEffort, OneMbpsRate()));
}

// A source that numbers MPDUs on pop, the way the AP's backend sources do.
AggregationSource SequencedSourceFrom(std::deque<PacketPtr>* queue, MacSequencer* seq,
                                      uint32_t receiver_node) {
  AggregationSource source;
  source.peek_bytes = [queue]() -> int {
    return queue->empty() ? -1 : queue->front()->size_bytes;
  };
  source.pop = [queue, seq, receiver_node]() -> Mpdu {
    Mpdu m;
    m.packet = std::move(queue->front());
    queue->pop_front();
    seq->AssignIfNeeded(m.packet.get(), receiver_node, 0);
    return m;
  };
  return source;
}

std::vector<int64_t> SeqsOf(const TxDescriptor& tx) {
  std::vector<int64_t> seqs;
  for (const Mpdu& m : tx.mpdus) {
    seqs.push_back(m.packet->mac_seq);
  }
  return seqs;
}

TEST(Aggregation, SessionCloseRestartsAggregateSequenceSpace) {
  // Block-ack session close (churn teardown, transmitter half): after
  // ResetReceiver, aggregates built toward the rejoined receiver must number
  // from 0 again — the receiver's ReorderBuffer::FlushStation reset expects
  // a fresh space, and stale continuation would look like far-future frames.
  MacSequencer seq;
  auto q1 = Packets(3);
  const TxDescriptor first =
      BuildAggregate(1, 2, 0, 0, FastStationRate(), true, SequencedSourceFrom(&q1, &seq, 2));
  EXPECT_EQ(SeqsOf(first), (std::vector<int64_t>{0, 1, 2}));
  auto q2 = Packets(2);
  const TxDescriptor second =
      BuildAggregate(1, 2, 0, 0, FastStationRate(), true, SequencedSourceFrom(&q2, &seq, 2));
  EXPECT_EQ(SeqsOf(second), (std::vector<int64_t>{3, 4}));

  seq.ResetReceiver(2);
  auto q3 = Packets(3);
  const TxDescriptor rejoined =
      BuildAggregate(1, 2, 0, 0, FastStationRate(), true, SequencedSourceFrom(&q3, &seq, 2));
  EXPECT_EQ(SeqsOf(rejoined), (std::vector<int64_t>{0, 1, 2}));
}

TEST(Aggregation, SessionCloseLeavesOtherReceiversNumbering) {
  MacSequencer seq;
  auto q1 = Packets(2);
  BuildAggregate(1, 2, 0, 0, FastStationRate(), true, SequencedSourceFrom(&q1, &seq, 2));
  auto q2 = Packets(2);
  BuildAggregate(1, 3, 1, 0, FastStationRate(), true, SequencedSourceFrom(&q2, &seq, 3));
  seq.ResetReceiver(2);
  // Receiver 3's space is untouched: its next aggregate continues at 2.
  auto q3 = Packets(1);
  const TxDescriptor tx =
      BuildAggregate(1, 3, 1, 0, FastStationRate(), true, SequencedSourceFrom(&q3, &seq, 3));
  EXPECT_EQ(SeqsOf(tx), (std::vector<int64_t>{2}));
}

TEST(Aggregation, MixedSizesRespectDurationCap) {
  std::deque<PacketPtr> q;
  for (int i = 0; i < 50; ++i) {
    q.push_back(MakePacket(i % 2 == 0 ? 1500 : 300));
  }
  const TxDescriptor tx =
      BuildAggregate(1, 2, 0, 0, SlowStationRate(), true, SourceFrom(&q));
  // Whatever the mix, the data portion must fit 4 ms.
  EXPECT_LE(tx.duration - BlockAckDuration(SlowStationRate()), kMaxAmpduDuration);
  EXPECT_GE(tx.frame_count(), 2);
}

}  // namespace
}  // namespace airfair
