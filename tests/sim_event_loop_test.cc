#include "src/sim/event_loop.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/trace.h"
#include "src/sim/simulation.h"
#include "src/util/rng.h"

namespace airfair {
namespace {

using namespace time_literals;

TEST(EventLoop, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  (void)loop.ScheduleAt(30_us, [&] { order.push_back(3); });
  (void)loop.ScheduleAt(10_us, [&] { order.push_back(1); });
  (void)loop.ScheduleAt(20_us, [&] { order.push_back(2); });
  loop.RunUntil(100_us);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 100_us);
}

TEST(EventLoop, SameTimeEventsRunInScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    (void)loop.ScheduleAt(5_us, [&order, i] { order.push_back(i); });
  }
  loop.RunUntil(10_us);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventLoop, ClockAdvancesToEventTime) {
  EventLoop loop;
  TimeUs seen;
  (void)loop.ScheduleAt(42_us, [&] { seen = loop.now(); });
  loop.RunUntil(100_us);
  EXPECT_EQ(seen, 42_us);
}

TEST(EventLoop, EventsBeyondEndStayPending) {
  EventLoop loop;
  bool ran = false;
  (void)loop.ScheduleAt(200_us, [&] { ran = true; });
  loop.RunUntil(100_us);
  EXPECT_FALSE(ran);
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.RunUntil(300_us);
  EXPECT_TRUE(ran);
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  EventHandle h = loop.ScheduleAt(10_us, [&] { ran = true; });
  EXPECT_TRUE(h.pending());
  h.Cancel();
  EXPECT_FALSE(h.pending());
  loop.RunUntil(100_us);
  EXPECT_FALSE(ran);
}

TEST(EventLoop, HandleReportsFiredAsNotPending) {
  EventLoop loop;
  EventHandle h = loop.ScheduleAt(10_us, [] {});
  loop.RunUntil(100_us);
  EXPECT_FALSE(h.pending());
  h.Cancel();  // Harmless after firing.
}

TEST(EventLoop, EventsCanScheduleEvents) {
  EventLoop loop;
  std::vector<int64_t> times;
  std::function<void()> tick = [&] {
    times.push_back(loop.now().us());
    if (times.size() < 3) {
      (void)loop.ScheduleAfter(10_us, tick);
    }
  };
  (void)loop.ScheduleAt(0_us, tick);
  loop.RunUntil(1_ms);
  EXPECT_EQ(times, (std::vector<int64_t>{0, 10, 20}));
}

TEST(EventLoop, ScheduleAfterUsesCurrentTime) {
  EventLoop loop;
  TimeUs fired;
  (void)loop.ScheduleAt(50_us, [&] {
    (void)loop.ScheduleAfter(25_us, [&] { fired = loop.now(); });
  });
  loop.RunUntil(1_ms);
  EXPECT_EQ(fired, 75_us);
}

TEST(EventLoop, RunOneExecutesSingleEvent) {
  EventLoop loop;
  int count = 0;
  (void)loop.ScheduleAt(1_us, [&] { ++count; });
  (void)loop.ScheduleAt(2_us, [&] { ++count; });
  EXPECT_TRUE(loop.RunOne());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(loop.RunOne());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(loop.RunOne());
}

TEST(EventLoop, RunOneSkipsCancelled) {
  EventLoop loop;
  bool ran = false;
  EventHandle h = loop.ScheduleAt(1_us, [] {});
  (void)loop.ScheduleAt(2_us, [&] { ran = true; });
  h.Cancel();
  EXPECT_TRUE(loop.RunOne());
  EXPECT_TRUE(ran);
}

TEST(EventLoop, StaleHandleDoesNotSeeOrCancelTheSlotsNextEvent) {
  EventLoop loop;
  EventHandle fired = loop.ScheduleAt(1_us, [] {});
  loop.RunUntil(2_us);
  EventHandle cancelled = loop.ScheduleAt(5_us, [] {});
  cancelled.Cancel();
  // Both freed slots are reused by the next two events.
  int runs = 0;
  EventHandle a = loop.ScheduleAt(10_us, [&] { ++runs; });
  EventHandle b = loop.ScheduleAt(10_us, [&] { ++runs; });
  EXPECT_EQ(loop.tokens_created(), 2);
  EXPECT_FALSE(fired.pending());
  EXPECT_FALSE(cancelled.pending());
  fired.Cancel();
  cancelled.Cancel();
  EXPECT_TRUE(a.pending());
  EXPECT_TRUE(b.pending());
  EXPECT_EQ(loop.pending_events(), 2u);
  loop.RunUntil(20_us);
  EXPECT_EQ(runs, 2);
}

TEST(EventLoop, CancelDropsPendingEventsAtOnce) {
  EventLoop loop;
  EventHandle early = loop.ScheduleAt(10_us, [] {});
  EventHandle late = loop.ScheduleAt(1_ms, [] {});
  loop.PostAt(20_us, [] {});
  EXPECT_EQ(loop.pending_events(), 3u);
  late.Cancel();
  EXPECT_EQ(loop.pending_events(), 2u);
  early.Cancel();
  EXPECT_EQ(loop.pending_events(), 1u);
  late.Cancel();  // Twice is harmless.
  EXPECT_EQ(loop.pending_events(), 1u);
  EXPECT_EQ(loop.CheckInvariants([](const std::string& m) { ADD_FAILURE() << m; }), 0);
}

TEST(EventLoop, CancelOfTheRunningEventIsANoOp) {
  EventLoop loop;
  EventHandle self;
  bool pending_inside = true;
  int runs = 0;
  self = loop.ScheduleAt(10_us, [&] {
    ++runs;
    pending_inside = self.pending();
    self.Cancel();
  });
  (void)loop.ScheduleAt(10_us, [&] { ++runs; });
  loop.RunUntil(20_us);
  EXPECT_FALSE(pending_inside);
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(EventLoop, CallbackCancelsASameTimeSibling) {
  EventLoop loop;
  std::vector<int> order;
  EventHandle sibling;
  (void)loop.ScheduleAt(10_us, [&] {
    order.push_back(1);
    sibling.Cancel();
  });
  sibling = loop.ScheduleAt(10_us, [&] { order.push_back(2); });
  loop.PostAt(10_us, [&] { order.push_back(3); });
  loop.RunUntil(20_us);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_FALSE(sibling.pending());
}

TEST(EventLoop, CallbackThatGrowsTheSlabKeepsRunningInPlace) {
  EventLoop loop;
  int children = 0;
  std::string seen;
  // The captures live in the running slot. Were the callable moved while it
  // runs (the slab relocating its slots), reading them after the growth
  // would be a use-after-free.
  (void)loop.ScheduleAt(1_us, [&loop, &children, &seen, tag = std::string(64, 'x')] {
    for (int i = 0; i < 1000; ++i) {
      loop.PostAt(2_us, [&children] { ++children; });
    }
    seen = tag;
  });
  loop.RunUntil(1_us);
  EXPECT_EQ(seen, std::string(64, 'x'));
  EXPECT_EQ(loop.tokens_created(), 1001);
  EXPECT_EQ(loop.pending_events(), 1000u);
  loop.RunUntil(2_us);
  EXPECT_EQ(children, 1000);
}

// The delays (from now) a LoopModel schedules at and the spans it runs
// RunUntil for, each drawn uniformly.
struct LoopMix {
  std::vector<int64_t> delays;
  std::vector<int64_t> run_spans;
};

// Short delays with many same-time ties, all inside the wheel's window.
const LoopMix kNarrowMix = {{0, 0, 0, 1, 3, 10, 100, 1000}, {0, 1, 5, 20}};

// Delays and spans on both sides of the window's edge, so events are
// scheduled into both tiers, far events move into the wheel as the clock
// jumps, and RunUntil crosses whole windows.
constexpr int64_t kW = EventLoop::kWheelUs;
const LoopMix kWindowEdgeMix = {{0, 1, kW - 1, kW, kW + 1, 3 * kW}, {0, 5, kW, 2 * kW + 7}};

// Seeded differential test: the loop against a std::set<(when, seq)> model
// under a random mix of ScheduleAt, PostAt, Cancel, RunOne and RunUntil with
// many same-time ties. Callbacks check they are the model's earliest event
// and may themselves schedule or cancel. Handles stay held after their events
// fire or are cancelled, so stale handles to reused slots are exercised too.
class LoopModel {
 public:
  LoopModel(uint64_t seed, LoopMix mix) : mix_(std::move(mix)), rng_(seed) {}

  void Step() {
    switch (rng_.NextBelow(8)) {
      case 0:
      case 1:
      case 2:
        Schedule();
        break;
      case 3:
      case 4:
        CancelRandom();
        break;
      case 5: {
        const bool had_pending = !model_.empty();
        const int64_t before = dispatched_;
        EXPECT_EQ(loop_.RunOne(), had_pending);
        EXPECT_EQ(dispatched_ - before, had_pending ? 1 : 0);
        break;
      }
      default: {
        const int64_t end =
            loop_.now().us() + mix_.run_spans[rng_.NextBelow(mix_.run_spans.size())];
        loop_.RunUntil(TimeUs(end));
        EXPECT_TRUE(model_.empty() || model_.begin()->first > end);
        EXPECT_EQ(loop_.now().us(), end);
        break;
      }
    }
    Check();
  }

  int64_t dispatched() const { return dispatched_; }
  int64_t cancelled() const { return cancelled_; }
  // Dispatched events that were scheduled kWheelUs or more ahead.
  int64_t far_dispatched() const { return far_dispatched_; }

 private:
  struct Held {
    EventHandle handle;
    int64_t when;
    uint64_t seq;
  };

  void Schedule() {
    const int64_t delay = mix_.delays[rng_.NextBelow(mix_.delays.size())];
    const int64_t when = loop_.now().us() + delay;
    const uint64_t seq = next_seq_++;
    model_.emplace(when, seq);
    EventFn fn = [this, when, seq, far = delay >= kW] { Fire(when, seq, far); };
    if (rng_.Chance(0.3)) {
      loop_.PostAt(TimeUs(when), std::move(fn));
      return;
    }
    Held held{loop_.ScheduleAt(TimeUs(when), std::move(fn)), when, seq};
    if (held_.size() < 64) {
      held_.push_back(held);
    } else {
      held_[rng_.NextBelow(held_.size())] = held;
    }
  }

  void CancelRandom() {
    if (held_.empty()) {
      return;
    }
    Held& held = held_[rng_.NextBelow(held_.size())];
    held.handle.Cancel();
    cancelled_ += static_cast<int64_t>(model_.erase({held.when, held.seq}));
  }

  void Fire(int64_t when, uint64_t seq, bool far) {
    EXPECT_EQ(loop_.now().us(), when);
    EXPECT_FALSE(model_.empty());
    if (!model_.empty()) {
      EXPECT_EQ(*model_.begin(), std::make_pair(when, seq)) << "dispatch order diverged";
    }
    model_.erase({when, seq});
    ++dispatched_;
    far_dispatched_ += far ? 1 : 0;
    const uint64_t action = rng_.NextBelow(4);
    if (action == 0) {
      Schedule();
    } else if (action == 1) {
      CancelRandom();
    }
  }

  void Check() {
    ASSERT_EQ(loop_.pending_events(), model_.size());
    for (const Held& held : held_) {
      EXPECT_EQ(held.handle.pending(), model_.count({held.when, held.seq}) == 1)
          << "handle of seq " << held.seq;
    }
    EXPECT_EQ(loop_.CheckInvariants([](const std::string& m) { ADD_FAILURE() << m; }), 0);
  }

  const LoopMix mix_;
  EventLoop loop_;
  Rng rng_;
  std::set<std::pair<int64_t, uint64_t>> model_;
  uint64_t next_seq_ = 0;
  std::vector<Held> held_;
  int64_t dispatched_ = 0;
  int64_t cancelled_ = 0;
  int64_t far_dispatched_ = 0;
};

TEST(EventLoop, MatchesAnOrderedSetModel) {
  for (const uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    LoopModel model(seed, kNarrowMix);
    for (int op = 0; op < 20000; ++op) {
      model.Step();
      if (::testing::Test::HasFailure()) {
        FAIL() << "diverged at op " << op;
      }
    }
    ASSERT_GT(model.dispatched(), 5000);
    ASSERT_GT(model.cancelled(), 300);
  }
}

TEST(EventLoop, MatchesAnOrderedSetModelAcrossTheWheelWindow) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    LoopModel model(seed, kWindowEdgeMix);
    for (int op = 0; op < 20000; ++op) {
      model.Step();
      if (::testing::Test::HasFailure()) {
        FAIL() << "diverged at op " << op;
      }
    }
    // Its own floors: the long delays and spans drain the queue more often,
    // leaving fewer pending events to cancel (199-246 per seed).
    ASSERT_GT(model.dispatched(), 8000);
    ASSERT_GT(model.cancelled(), 150);
    ASSERT_GT(model.far_dispatched(), 4000);
  }
}

// Each dispatch trace record carries the number of events still pending
// once the dispatched one is popped, whichever tier they wait in.
TEST(EventLoop, DispatchTraceRecordsThePendingCountAfterThePop) {
  TraceBuffer buffer;
  ScopedTraceBuffer installed(&buffer);
  EventLoop loop;
  std::vector<int64_t> seen;  // pending_events() as each callback starts.
  auto note = [&loop, &seen] { seen.push_back(static_cast<int64_t>(loop.pending_events())); };
  for (const int64_t when : std::vector<int64_t>{0, 1, 1, kW - 1, kW, kW + 1, 3 * kW, 50 * kW}) {
    loop.PostAt(TimeUs(when), note);
  }
  (void)loop.ScheduleAt(TimeUs(5), [&loop, note] {
    note();
    loop.PostAfter(TimeUs(3), note);       // Near.
    loop.PostAfter(TimeUs(2 * kW), note);  // Far.
  });
  EventHandle cancelled = loop.ScheduleAt(TimeUs(2 * kW), note);
  cancelled.Cancel();
  loop.RunUntil(TimeUs(100 * kW));

  std::vector<int64_t> recorded;
  buffer.ForEach([&recorded](const TraceRecord& record) {
    if (record.type == static_cast<uint16_t>(TraceEventType::kDispatch)) {
      recorded.push_back(record.a0);
    }
  });
  ASSERT_EQ(seen.size(), 11u);
  EXPECT_EQ(seen.front(), 8);  // 9 pending, less the one popped.
  EXPECT_EQ(recorded, seen);
}

TEST(Simulation, RunForAdvancesRelativeToNow) {
  Simulation sim(1);
  sim.RunFor(5_ms);
  EXPECT_EQ(sim.now(), 5_ms);
  sim.RunFor(5_ms);
  EXPECT_EQ(sim.now(), 10_ms);
}

TEST(Simulation, SeedControlsRngStream) {
  Simulation a(42);
  Simulation b(42);
  EXPECT_EQ(a.rng().Next(), b.rng().Next());
}

}  // namespace
}  // namespace airfair
