// Allocation-accounting tests for the hot-path overhaul: after warmup, the
// steady state of the packet pool and of the event loop performs zero heap
// allocations per packet / per event. Verified with a counting replacement
// of the global operator new/delete, measured as deltas across the steady-
// state window (so gtest's own allocations outside the window don't count).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <vector>

// GCC tracks which allocation routine produced a pointer and warns when one
// from our malloc-backed counting operator new reaches std::free inside our
// replacement operator delete. That pairing is exactly the contract the
// replacements below implement, so the warning is a false positive here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

#include "src/net/packet_pool.h"
#include "src/net/udp.h"
#include "src/net/wired_link.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"
#include "src/scenario/experiments.h"
#include "src/sim/event_loop.h"
#include "src/util/stats.h"

namespace {

std::atomic<std::int64_t> g_allocations{0};

std::int64_t AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace

// --- Counting global allocator -------------------------------------------
// Replacement functions must live at global scope. They count every
// allocation in the process; the tests below only look at deltas over
// single-threaded windows that execute nothing but the code under test.

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace airfair {
namespace {

TEST(PerfAllocTest, PacketPoolSteadyStateIsAllocationFree) {
  PacketPool pool;
  // Warmup: force two chunks into existence, then return everything.
  {
    std::vector<PacketPtr> warm;
    warm.reserve(PacketPool::kChunkPackets + 8);
    for (int i = 0; i < PacketPool::kChunkPackets + 8; ++i) {
      warm.push_back(pool.Allocate());
    }
  }
  EXPECT_EQ(pool.chunks(), 2);
  EXPECT_EQ(pool.outstanding(), 0);

  const std::int64_t before = AllocationCount();
  const std::int64_t recycled_before = pool.total_recycled();
  for (int i = 0; i < 10000; ++i) {
    PacketPtr p = pool.Allocate();
    p->size_bytes = 1500;
    p.reset();
  }
  EXPECT_EQ(AllocationCount() - before, 0)
      << "pool Allocate/Release cycle touched the heap";
  EXPECT_EQ(pool.total_recycled() - recycled_before, 10000);
  EXPECT_EQ(pool.chunks(), 2);
}

TEST(PerfAllocTest, PacketPoolReleaseOrderIsLifoFriendly) {
  // Interleaved alloc/release with several packets in flight still stays on
  // the free list once the chunk exists.
  PacketPool pool;
  std::vector<PacketPtr> live;
  live.reserve(64);
  for (int i = 0; i < 64; ++i) {
    live.push_back(pool.Allocate());
  }
  const std::int64_t before = AllocationCount();
  for (int round = 0; round < 1000; ++round) {
    live[static_cast<size_t>(round % 64)] = pool.Allocate();
  }
  live.clear();
  EXPECT_EQ(AllocationCount() - before, 0);
  EXPECT_EQ(pool.outstanding(), 0);
}

// Self-reposting detached event: the fire-and-forget fast path.
struct Repost {
  EventLoop* loop;
  std::int64_t* fired;
  int remaining;
  void operator()() {
    ++*fired;
    if (--remaining > 0) {
      loop->PostAfter(TimeUs(10), Repost{loop, fired, remaining});
    }
  }
};

TEST(PerfAllocTest, DetachedEventSteadyStateIsAllocationFree) {
  EventLoop loop;
  std::int64_t fired = 0;
  // Warmup: grow the slot slab and the heap array to their steady size.
  loop.PostAfter(TimeUs(10), Repost{&loop, &fired, 64});
  loop.RunUntil(TimeUs::FromSeconds(1));
  ASSERT_EQ(fired, 64);

  const std::int64_t before = AllocationCount();
  loop.PostAfter(TimeUs(10), Repost{&loop, &fired, 10000});
  loop.RunUntil(TimeUs::FromSeconds(10));
  EXPECT_EQ(fired, 64 + 10000);
  EXPECT_EQ(AllocationCount() - before, 0)
      << "detached Post/dispatch cycle touched the heap";
}

// Self-rescheduling timer that keeps an EventHandle: each tick schedules
// the next one while its own slot is still running.
struct Tick {
  EventLoop* loop;
  EventHandle* handle;
  std::int64_t* fired;
  int* remaining;
  void operator()() {
    ++*fired;
    if (--*remaining > 0) {
      *handle = loop->ScheduleAfter(TimeUs(10), Tick{loop, handle, fired, remaining});
    }
  }
};

TEST(PerfAllocTest, HandleTimerSteadyStateReusesSlots) {
  EventLoop loop;
  EventHandle handle;
  std::int64_t fired = 0;
  int remaining = 10064;
  handle = loop.ScheduleAfter(TimeUs(10), Tick{&loop, &handle, &fired, &remaining});
  // Warmup: a timer chain needs two slots, the running tick's and the next
  // tick's. The event fires every 10 us, so running to t=645 us dispatches 64.
  loop.RunUntil(TimeUs(645));
  ASSERT_EQ(fired, 64);
  ASSERT_EQ(loop.tokens_created(), 2);

  // The window runs the chain to its end, last tick (which frees its slot
  // and schedules nothing) included.
  const std::int64_t before = AllocationCount();
  loop.RunUntil(TimeUs::FromSeconds(10));
  EXPECT_EQ(fired, 10064);
  EXPECT_EQ(AllocationCount() - before, 0)
      << "handle-carrying timer reschedule touched the heap";
  EXPECT_EQ(loop.tokens_created(), 2) << "a reschedule created a slot instead of reusing one";
  EXPECT_EQ(loop.pending_events(), 0u);
  EXPECT_FALSE(handle.pending());
}

// The TCP RTO pattern (TcpSocket::ArmRto): every ACK cancels the
// retransmission timer and arms it again, `timeout` out, so the timers
// almost never fire. Each ACK tick re-arms all of them.
struct AckTick {
  EventLoop* loop;
  std::vector<EventHandle>* timers;
  std::int64_t* timer_fires;
  TimeUs timeout;
  int remaining;
  void operator()() {
    for (EventHandle& timer : *timers) {
      timer.Cancel();
      timer = loop->ScheduleAfter(timeout, [fires = timer_fires] { ++*fires; });
    }
    if (--remaining > 0) {
      loop->PostAfter(TimeUs(10), AckTick{loop, timers, timer_fires, timeout, remaining});
    }
  }
};

// Runs 10,064 ACK ticks re-arming 64 timers `timeout` out, and checks the
// cycle after warmup.
void ExpectCancelRearmCycleIsAllocationFree(TimeUs timeout) {
  constexpr int kTicks = 10064;
  EventLoop loop;
  std::vector<EventHandle> timers(64);
  std::int64_t timer_fires = 0;
  loop.PostAfter(TimeUs(10), AckTick{&loop, &timers, &timer_fires, timeout, kTicks});
  // Warmup: an ACK ticks every 10 us; 64 ticks grow the slab to 64 timers
  // plus the running and the next ACK tick.
  loop.RunUntil(TimeUs(645));
  const std::int64_t slots = loop.tokens_created();
  EXPECT_EQ(slots, 66);

  // Between ticks the queue holds the 64 live timers and the next tick,
  // never a cancelled timer. Counted, not EXPECTed, inside the window so
  // that gtest does not allocate in it.
  const std::int64_t before = AllocationCount();
  int off_count = 0;
  for (int tick = 65; tick < kTicks; ++tick) {
    loop.RunUntil(TimeUs(10 * tick + 5));
    if (loop.pending_events() != 65) {
      ++off_count;
    }
  }
  EXPECT_EQ(AllocationCount() - before, 0) << "cancel + re-arm touched the heap";
  EXPECT_EQ(off_count, 0) << "pending_events() != 65 between some ticks";
  EXPECT_EQ(loop.tokens_created(), slots);
  EXPECT_EQ(timer_fires, 0);

  // After the last ACK tick the timers run out and fire once each.
  loop.RunUntil(TimeUs::FromSeconds(1));
  EXPECT_EQ(timer_fires, 64);
  EXPECT_EQ(loop.pending_events(), 0u);
}

// 1 ms timers wait in the event queue's wheel.
TEST(PerfAllocTest, CancelledTimersLeaveTheQueueAtOnce) {
  ExpectCancelRearmCycleIsAllocationFree(TimeUs(1000));
}

// TCP's real timeouts (at least 200 ms) wait in the far heap, beyond the
// wheel's window.
TEST(PerfAllocTest, CancelledFarTimersLeaveTheQueueAtOnce) {
  static_assert(200'000 >= EventLoop::kWheelUs);
  ExpectCancelRearmCycleIsAllocationFree(TimeUs::FromMilliseconds(200));
}

// A backlogged wired link: each burst of 256 packets leaves 255 of them
// waiting for the transmitter. The buffer of their start times is a ring
// sized once, at construction, so a burst allocates nothing.
constexpr int kBurstPackets = 256;
constexpr TimeUs kBurstPeriod = TimeUs::FromMicroseconds(6400);

struct WiredBurst {
  Simulation* sim;
  PacketPool* pool;
  WiredLink::Direction* link;
  int remaining;
  void operator()() {
    for (int i = 0; i < kBurstPackets; ++i) {
      PacketPtr packet = pool->Allocate();
      packet->size_bytes = 1500;
      link->Send(std::move(packet));
    }
    if (--remaining > 0) {
      sim->PostAfter(kBurstPeriod, WiredBurst{sim, pool, link, remaining});
    }
  }
};

TEST(PerfAllocTest, BackloggedWiredLinkIsAllocationFree) {
  constexpr int kWarmupBursts = 4;
  constexpr int kMeasuredBursts = 32;
  PacketPool pool;  // Outlives the loop: queued deliveries hold its packets.
  Simulation sim;
  // 1 Gbit/s: a burst serializes in 256 x 12 us = 3.07 ms, half the period.
  WiredLink link(&sim, WiredLink::Config());
  std::int64_t delivered = 0;
  link.forward().set_deliver([&delivered](PacketPtr) { ++delivered; });
  sim.PostAfter(TimeUs::Zero(),
                WiredBurst{&sim, &pool, &link.forward(), kWarmupBursts + kMeasuredBursts});
  // Warmup: the pool, the slot slab and the heap array reach their size.
  sim.RunUntil(TimeUs::FromMicroseconds(kWarmupBursts * kBurstPeriod.us() - 100));
  ASSERT_EQ(delivered, kWarmupBursts * kBurstPackets);

  const std::int64_t before = AllocationCount();
  sim.RunUntil(TimeUs::FromSeconds(1));
  EXPECT_EQ(AllocationCount() - before, 0) << "a backlogged wired link touched the heap";
  EXPECT_EQ(delivered, (kWarmupBursts + kMeasuredBursts) * kBurstPackets);
  EXPECT_EQ(link.forward().drops(), 0);
}

// --- Observability-layer discipline (src/obs) ----------------------------
// The tracing subsystem's steady state must be allocation-free: the ring
// is pre-sized, Append is a slot store, and a Timeseries Record within its
// reservation is a push into pre-reserved storage.

TEST(PerfAllocTest, TraceBufferAppendIsAllocationFree) {
  TraceBuffer::Config config;
  config.capacity = 1 << 10;
  TraceBuffer buffer(config);
  ScopedTraceBuffer scope(&buffer);

  const std::int64_t before = AllocationCount();
  for (int i = 0; i < 100000; ++i) {
    // Through the macro (buffer load + store) and past several ring wraps.
    AF_TRACE_ENQUEUE(TimeUs(i), 1, 0, 1500, i & 63);
    buffer.Append(TimeUs(i), TraceEventType::kTxEnd, 1, -1, 2800, 32, 0);
  }
  EXPECT_EQ(AllocationCount() - before, 0) << "trace append cycle touched the heap";
  EXPECT_GT(buffer.overwritten(), 0u);
}

TEST(PerfAllocTest, TimeseriesRecordWithinReservationIsAllocationFree) {
  Timeseries ts;
  const int a = ts.Series("airtime_share.fast0");
  const int b = ts.Series("airtime_jain");

  const std::int64_t before = AllocationCount();
  for (int i = 0; i < 4000; ++i) {
    ts.Record(a, TimeUs(i * 10000), 0.33);
    ts.Record(b, TimeUs(i * 10000), 0.99);
  }
  EXPECT_EQ(AllocationCount() - before, 0)
      << "recording points within the reservation touched the heap";
}

// Steady-state window of a full traced testbed run must allocate exactly as
// much as the identical untraced run: the sampler (sliding airtime window,
// latency-quantile scan, series records) and every AF_TRACE_* site add zero
// heap traffic. Seeded identically, the two runs execute the same event
// sequence, so any difference is the observability layer's doing.
namespace {

std::int64_t MeasuredWindowAllocations(bool trace) {
  TestbedConfig config;
  config.seed = 11;
  config.scheme = QueueScheme::kAirtimeFair;
  config.trace = trace;
  Testbed tb(config);

  UdpSink sink(tb.station_host(0), 6001);
  UdpSource::Config down;
  down.rate_bps = 20e6;
  UdpSource source(tb.server_host(), tb.station_node(0), 6001, down);
  source.Start();

  // Warmup: pool chunks, event-heap capacity, sampler scratch first-growth.
  tb.sim().RunFor(TimeUs::FromMilliseconds(300));
  const std::int64_t before = AllocationCount();
  tb.sim().RunFor(TimeUs::FromMilliseconds(2000));
  const std::int64_t delta = AllocationCount() - before;
  EXPECT_GT(sink.packets_received(), 0);
  if (trace) {
    EXPECT_NE(tb.trace_buffer(), nullptr);
    EXPECT_GT(tb.trace_buffer()->total_appended(), 0u);
  }
  return delta;
}

}  // namespace

TEST(PerfAllocTest, TracedTestbedSteadyStateAllocatesNoMoreThanUntraced) {
  const std::int64_t untraced = MeasuredWindowAllocations(false);
  const std::int64_t traced = MeasuredWindowAllocations(true);
  EXPECT_EQ(traced, untraced)
      << "tracing enabled changed steady-state allocation behaviour "
      << "(traced=" << traced << " untraced=" << untraced << ")";
}

TEST(PerfAllocTest, TestbedPacketsAllComeFromThePool) {
  ResetCounters();
  {
    TestbedConfig config;
    config.seed = 42;
    config.scheme = QueueScheme::kAirtimeFair;
    ExperimentTiming timing;
    timing.warmup = TimeUs::FromMilliseconds(200);
    timing.measure = TimeUs::FromMilliseconds(800);
    const StationMeasurements m = RunUdpDownload(config, timing);
    EXPECT_GT(m.total_throughput_mbps, 0);
  }
  // Counters publish when the Testbed (pool + hosts) is destroyed inside
  // RunUdpDownload.
  EXPECT_GT(GetCounter("packets.pool.allocated").value(), 0);
  EXPECT_EQ(GetCounter("packets.heap").value(), 0)
      << "some call site still allocates packets on the heap";
  // Recycling dominates: far more packets flowed than chunk capacity.
  EXPECT_GT(GetCounter("packets.pool.recycled").value(),
            GetCounter("packets.pool.chunks").value() * PacketPool::kChunkPackets);
}

}  // namespace
}  // namespace airfair
