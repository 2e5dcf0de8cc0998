#include "src/aqm/codel.h"

#include <gtest/gtest.h>

#include <deque>
#include <utility>

#include "tests/test_util.h"

namespace airfair {
namespace {

using namespace time_literals;

// One FIFO under the CoDel control law, pulled through CoDelState the way
// FQ-CoDel and MacQueues pull their flow queues: enqueue stamps the sojourn
// clock, dequeue runs the law and counts the packets it drops.
struct CodelFifo {
  explicit CodelFifo(const CoDelParams& p = CoDelParams::Default()) : params(p) {}

  void Enqueue(TimeUs now) {
    PacketPtr packet = MakePacket();
    packet->enqueued = now;
    queue.push_back(std::move(packet));
  }

  PacketPtr Dequeue(TimeUs now) {
    return state.Dequeue(
        now, params,
        [this]() -> PacketPtr {
          if (queue.empty()) {
            return nullptr;
          }
          PacketPtr p = std::move(queue.front());
          queue.pop_front();
          return p;
        },
        [this](PacketPtr) { ++drops; });
  }

  CoDelParams params;
  std::deque<PacketPtr> queue;
  CoDelState state;
  int64_t drops = 0;
};

class CodelTest : public ::testing::Test {
 protected:
  void Enqueue() { fifo_.Enqueue(now_); }
  PacketPtr Dequeue() { return fifo_.Dequeue(now_); }

  TimeUs now_;
  CodelFifo fifo_;
};

TEST_F(CodelTest, PassesThroughWhenIdle) {
  Enqueue();
  PacketPtr p = Dequeue();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(fifo_.drops, 0);
}

TEST_F(CodelTest, NoDropsBelowTarget) {
  // Sojourn always < 5 ms target: no drops regardless of volume.
  for (int i = 0; i < 1000; ++i) {
    Enqueue();
    now_ += 1_ms;
    EXPECT_NE(Dequeue(), nullptr);
  }
  EXPECT_EQ(fifo_.drops, 0);
  EXPECT_FALSE(fifo_.state.dropping());
}

TEST_F(CodelTest, NoDropUntilIntervalElapses) {
  // Sojourn above target but for less than one interval (100 ms).
  for (int i = 0; i < 9; ++i) {
    Enqueue();
  }
  now_ += 10_ms;  // All packets now 10 ms old (> 5 ms target).
  for (int i = 0; i < 5; ++i) {
    EXPECT_NE(Dequeue(), nullptr);
    now_ += 10_ms;
  }
  EXPECT_EQ(fifo_.drops, 0);
}

TEST_F(CodelTest, DropsAfterSustainedExcess) {
  // Keep the queue standing above target past the interval: CoDel must
  // enter dropping mode.
  for (int i = 0; i < 200; ++i) {
    Enqueue();
    now_ += 1_ms;
    if (i % 2 == 0) {
      // Drain at half the enqueue rate: the queue builds.
      (void)Dequeue();
    }
  }
  EXPECT_GT(fifo_.drops, 0);
  EXPECT_EQ(fifo_.state.drop_count(), fifo_.drops);
}

TEST_F(CodelTest, DropRateAccelerates) {
  // With a persistently bad queue the control law drops more and more
  // frequently (interval / sqrt(count)).
  int drops_first_half = 0;
  int drops_second_half = 0;
  for (int phase = 0; phase < 2; ++phase) {
    for (int i = 0; i < 500; ++i) {
      Enqueue();
      Enqueue();
      now_ += 2_ms;
      const int before = static_cast<int>(fifo_.drops);
      (void)Dequeue();
      const int dropped = static_cast<int>(fifo_.drops) - before;
      (phase == 0 ? drops_first_half : drops_second_half) += dropped;
    }
  }
  EXPECT_GT(drops_second_half, drops_first_half);
}

TEST_F(CodelTest, ExitsDroppingWhenQueueRecovers) {
  // Build a bad queue.
  for (int i = 0; i < 300; ++i) {
    Enqueue();
    Enqueue();
    now_ += 2_ms;
    (void)Dequeue();
  }
  EXPECT_GT(fifo_.drops, 0);
  EXPECT_TRUE(fifo_.state.dropping());
  // Drain completely; fresh packets then see an empty queue.
  while (Dequeue() != nullptr) {
  }
  EXPECT_FALSE(fifo_.state.dropping());
  const int64_t drops_after_drain = fifo_.drops;
  for (int i = 0; i < 100; ++i) {
    Enqueue();
    now_ += 100_us;
    EXPECT_NE(Dequeue(), nullptr);
  }
  EXPECT_EQ(fifo_.drops, drops_after_drain);
}

TEST_F(CodelTest, EmptyDequeueReturnsNull) {
  EXPECT_EQ(Dequeue(), nullptr);
}

TEST(CodelParams, LowRateValuesMatchPaper) {
  const CoDelParams low = CoDelParams::LowRate();
  EXPECT_EQ(low.target, 50_ms);
  EXPECT_EQ(low.interval, 300_ms);
  const CoDelParams normal = CoDelParams::Default();
  EXPECT_EQ(normal.target, 5_ms);
  EXPECT_EQ(normal.interval, 100_ms);
}

TEST(CodelState, LargerTargetToleratesMoreSojourn) {
  TimeUs now;
  CodelFifo normal(CoDelParams::Default());
  CodelFifo low(CoDelParams::LowRate());
  // Steady 30 ms sojourn: above the 5 ms target, below the 50 ms one.
  for (int i = 0; i < 400; ++i) {
    normal.Enqueue(now);
    low.Enqueue(now);
    now += 2_ms;
    if (i >= 15) {  // Keep ~15 packets standing (30 ms at this rate).
      (void)normal.Dequeue(now);
      (void)low.Dequeue(now);
    }
  }
  EXPECT_GT(normal.drops, 0);
  EXPECT_EQ(low.drops, 0);
}

}  // namespace
}  // namespace airfair
