// Micro-benchmarks (google-benchmark) for the hot paths of the paper's
// algorithms: enqueue/dequeue of the per-TID MAC queue structure, overflow-
// victim selection in the MAC queues and the FQ-CoDel qdisc, the CoDel
// control-law step, airtime computation, the scheduler round, the medium
// grant and flow hashing. These are the per-packet costs the kernel
// implementation cares about.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "src/aqm/codel.h"
#include "src/aqm/fq_codel.h"
#include "src/core/airtime_scheduler.h"
#include "src/core/mac_queues.h"
#include "src/mac/airtime.h"
#include "src/mac/medium.h"
#include "src/net/packet_pool.h"
#include "src/obs/trace.h"
#include "src/sim/event_loop.h"
#include "src/sim/simulation.h"
#include "src/util/flow_hash.h"
#include "tests/test_util.h"

namespace airfair {
namespace {

void BM_FlowHash(benchmark::State& state) {
  FlowKey key{1, 2, 1000, 80, 6};
  uint64_t sink = 0;
  for (auto _ : state) {
    key.src_port++;
    sink ^= HashFlow(key);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_FlowHash);

void BM_MacQueuesEnqueueDequeue(benchmark::State& state) {
  TimeUs now;
  MacQueues queues([&now] { return now; }, MacQueues::Config());
  const int flows = static_cast<int>(state.range(0));
  uint16_t port = 0;
  for (auto _ : state) {
    now += TimeUs(10);
    auto p = MakePacket(1500, static_cast<uint16_t>(1000 + (port++ % flows)));
    queues.Enqueue(std::move(p), 0, 0);
    benchmark::DoNotOptimize(queues.Dequeue(0, 0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MacQueuesEnqueueDequeue)->Arg(1)->Arg(16)->Arg(256);

// Overflow-victim selection with `range(0)` backlogged queues held at the
// global limit (four packets each): every enqueue first drops from the
// longest queue (Algorithm 1, lines 2-4). One station per queue, so no two
// flows share one.
void BM_MacQueuesOverflowDrop(benchmark::State& state) {
  const int queues_backlogged = static_cast<int>(state.range(0));
  TimeUs now;
  MacQueues::Config config;
  config.global_limit_packets = 4 * queues_backlogged;
  MacQueues queues([&now] { return now; }, config);
  for (int i = 0; i < config.global_limit_packets; ++i) {
    const int s = i % queues_backlogged;
    queues.Enqueue(MakePacket(1500, static_cast<uint16_t>(1000 + s)), s, 0);
  }
  int s = 0;
  for (auto _ : state) {
    now += TimeUs(10);
    queues.Enqueue(MakePacket(1500, static_cast<uint16_t>(1000 + s)), s, 0);
    s = (s + 1) % queues_backlogged;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MacQueuesOverflowDrop)->Arg(64)->Arg(1024);

// The same for the FQ-CoDel qdisc: `range(0)` flows, each hashed to its own
// queue of the default 1024, at the packet limit; every enqueue then drops
// from the fattest queue.
void BM_FqCodelOverflowDrop(benchmark::State& state) {
  const size_t queues_backlogged = static_cast<size_t>(state.range(0));
  TimeUs now;
  FqCodelConfig config;
  config.limit_packets = 4 * static_cast<int>(queues_backlogged);
  FqCodelQdisc qdisc([&now] { return now; }, config);
  std::vector<uint16_t> ports;
  std::vector<bool> taken(static_cast<size_t>(config.flows), false);
  for (uint16_t port = 1000; ports.size() < queues_backlogged; ++port) {
    const uint64_t index = HashFlow(MakePacket(1500, port)->flow) % taken.size();
    if (!taken[index]) {
      taken[index] = true;
      ports.push_back(port);
    }
  }
  for (int i = 0; i < config.limit_packets; ++i) {
    qdisc.Enqueue(MakePacket(1500, ports[static_cast<size_t>(i) % ports.size()]));
  }
  size_t next = 0;
  for (auto _ : state) {
    now += TimeUs(10);
    qdisc.Enqueue(MakePacket(1500, ports[next]));
    next = (next + 1) % ports.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FqCodelOverflowDrop)->Arg(64)->Arg(1024);

// One CoDel step over a FIFO, pulled through CoDelState as FQ-CoDel and
// MacQueues pull their flow queues.
void BM_CodelDequeue(benchmark::State& state) {
  TimeUs now;
  std::deque<PacketPtr> queue;
  CoDelState codel;
  const CoDelParams params = CoDelParams::Default();
  for (auto _ : state) {
    now += TimeUs(100);
    PacketPtr packet = MakePacket();
    packet->enqueued = now;
    queue.push_back(std::move(packet));
    benchmark::DoNotOptimize(codel.Dequeue(
        now, params,
        [&queue]() -> PacketPtr {
          if (queue.empty()) {
            return nullptr;
          }
          PacketPtr head = std::move(queue.front());
          queue.pop_front();
          return head;
        },
        [](PacketPtr) {}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CodelDequeue);

// Eq. (2) on an n-MPDU A-MPDU plus its block ack, as BuildAggregate
// charges a transmission.
void BM_AirtimeComputation(benchmark::State& state) {
  const PhyRate rate = FastStationRate();
  const int64_t mpdu_bytes = PaddedMpduBytes(1500);
  int n = 1;
  for (auto _ : state) {
    n = n % 32 + 1;
    benchmark::DoNotOptimize(AmpduDataDuration(n * mpdu_bytes, rate) + BlockAckDuration(rate));
  }
}
BENCHMARK(BM_AirtimeComputation);

void BM_SchedulerRound(benchmark::State& state) {
  AirtimeScheduler sched;
  const int stations = static_cast<int>(state.range(0));
  for (StationId s = 0; s < stations; ++s) {
    sched.MarkBacklogged(s, AccessCategory::kBestEffort);
  }
  const auto has_data = [](StationId) { return true; };
  for (auto _ : state) {
    const StationId s = sched.NextStation(AccessCategory::kBestEffort, has_data);
    sched.ChargeAirtime(s, AccessCategory::kBestEffort, TimeUs(2800));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerRound)->Arg(3)->Arg(30)->Arg(300);

// One medium grant (contention round, grant and completion) with
// `range(0)` registered contenders of which one is saturated: the
// udp_overload shape, where 256 stations and the AP register four
// contenders each (1,028) and about one is backlogged per grant. The passes
// visit only backlogged contenders, so both sizes should time alike.
void BM_MediumGrant(benchmark::State& state) {
  class Idle : public MediumClient {
   public:
    bool HasPending() override { return false; }
    TxDescriptor BuildTransmission() override { return TxDescriptor{}; }
    void OnTxComplete(TxDescriptor, bool) override {}
  };
  class Saturated : public MediumClient {
   public:
    bool HasPending() override { return true; }
    TxDescriptor BuildTransmission() override {
      TxDescriptor tx;
      tx.station = 0;
      tx.duration = TimeUs(300);
      tx.mpdus.push_back(Mpdu{pool_.Allocate(), 0});
      return tx;
    }
    void OnTxComplete(TxDescriptor, bool) override { ++grants; }
    int64_t grants = 0;

   private:
    PacketPool pool_;  // Delivered packets return here: no steady-state allocation.
  };
  // Declared before the simulation, so the clients and the packet pool
  // outlive every event the loop still holds when it is destroyed.
  Idle idle;
  Saturated saturated;
  Simulation sim(1);
  WifiMedium medium(&sim);
  const auto id =
      medium.Register(&saturated, EdcaFor(AccessCategory::kBestEffort), /*from_ap=*/true);
  for (int64_t i = 1; i < state.range(0); ++i) {
    medium.Register(&idle, EdcaFor(AccessCategory::kBestEffort), /*from_ap=*/false);
  }
  medium.NotifyBacklog(id);
  for (auto _ : state) {
    const int64_t before = saturated.grants;
    while (saturated.grants == before) {
      sim.loop().RunOne();
    }
  }
  benchmark::DoNotOptimize(medium.busy_time());
  state.SetItemsProcessed(saturated.grants);
  state.SetLabel("grants");
}
BENCHMARK(BM_MediumGrant)->Arg(16)->Arg(1028);

// Event-loop schedule+dispatch cycle: the fire-and-forget path (PostAt) vs
// the handle-keeping path (ScheduleAt, whose handle is a slot pointer and a
// generation). Both reuse a free slot, so both are allocation-free at steady
// state; the difference is building and storing the handle.
void BM_EventLoopScheduleFire(benchmark::State& state) {
  const bool keep_handle = state.range(0) != 0;
  EventLoop loop;
  int64_t fired = 0;
  EventHandle handle;
  for (auto _ : state) {
    if (keep_handle) {
      handle = loop.ScheduleAfter(TimeUs(10), [&fired] { ++fired; });
    } else {
      loop.PostAfter(TimeUs(10), [&fired] { ++fired; });
    }
    loop.RunOne();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(keep_handle ? "handle" : "detached");
}
BENCHMARK(BM_EventLoopScheduleFire)->Arg(0)->Arg(1);

// The RTO path (TcpSocket::ArmRto cancels and re-arms the retransmission
// timer on every ACK): N live timers; each iteration cancels and re-arms one
// of them and dispatches one detached event, the ACK. Timers are re-armed
// 1 ms out and revisited every N us, so none fires and the queue holds the N
// timers plus the ACK.
void BM_EventLoopCancelRearm(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  EventLoop loop;
  int64_t fired = 0;
  std::vector<EventHandle> timers(n);
  for (EventHandle& timer : timers) {
    timer = loop.ScheduleAfter(TimeUs(1000), [&fired] { ++fired; });
  }
  size_t next = 0;
  for (auto _ : state) {
    EventHandle& timer = timers[next];
    timer.Cancel();
    timer = loop.ScheduleAfter(TimeUs(1000), [&fired] { ++fired; });
    loop.PostAfter(TimeUs(1), [&fired] { ++fired; });
    loop.RunOne();
    next = next + 1 == n ? 0 : next + 1;
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(loop.pending_events()) + " pending");
}
BENCHMARK(BM_EventLoopCancelRearm)->Arg(16)->Arg(256);

// The udp_overload shape: N detached self-reposting CBR timers with a common
// 6,400 us period, started 1 us apart, each posting a delivery through one
// FIFO chain, a 1 Gbit/s wired link (12 us per 1,500-byte packet, then
// 100 us of propagation). At N = 256 each period's burst queues about 3 ms
// of deliveries behind the transmitter, so a few hundred events are live.
// One iteration dispatches one event, a tick or a delivery.
constexpr TimeUs kCbrPeriod = TimeUs::FromMicroseconds(6400);
constexpr TimeUs kWireTx = TimeUs::FromMicroseconds(12);
constexpr TimeUs kWireDelay = TimeUs::FromMicroseconds(100);

struct CbrFanIn {
  EventLoop loop;
  TimeUs link_free;
  int64_t delivered = 0;
};

struct CbrTick {
  CbrFanIn* fan;
  void operator()() const {
    EventLoop& loop = fan->loop;
    fan->link_free = std::max(loop.now(), fan->link_free) + kWireTx;
    loop.PostAt(fan->link_free + kWireDelay, [fan = fan] { ++fan->delivered; });
    loop.PostAfter(kCbrPeriod, *this);
  }
};

void BM_EventLoopCbrFanIn(benchmark::State& state) {
  CbrFanIn fan;
  for (int64_t i = 0; i < state.range(0); ++i) {
    fan.loop.PostAt(TimeUs(i), CbrTick{&fan});
  }
  // Two periods grow the slot slab and the queue to their steady size.
  fan.loop.RunUntil(2 * kCbrPeriod);
  for (auto _ : state) {
    fan.loop.RunOne();
  }
  benchmark::DoNotOptimize(fan.delivered);
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(fan.loop.pending_events()) + " pending");
}
BENCHMARK(BM_EventLoopCbrFanIn)->Arg(16)->Arg(256);

// Per-event cost of the tracing layer with a ring installed: current-buffer
// load + 48-byte record write through the AF_TRACE_* macro (the same
// path every instrumented hot-path site takes in a traced run). The ring
// wraps many times over a benchmark run; overwrite is the steady state.
void BM_TraceEventAppend(benchmark::State& state) {
  TraceBuffer::Config config;
  config.capacity = 1 << 12;
  TraceBuffer buffer(config);
  ScopedTraceBuffer scope(&buffer);
  TimeUs now;
  int depth = 0;
  for (auto _ : state) {
    now += TimeUs(10);
    depth = (depth + 1) & 63;
    AF_TRACE_ENQUEUE(now, 3, 0, 1500, depth);
  }
  benchmark::DoNotOptimize(buffer.total_appended());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceEventAppend);

// The same macro with no buffer installed: what every untraced run pays at
// each instrumentation site (one load + branch). This is the
// number the "tracing disabled must not slow the simulator" guarantee
// rests on; bench_diff gates it like any other hot-path cost.
void BM_TraceDisabledOverhead(benchmark::State& state) {
  ScopedTraceBuffer scope(nullptr);  // Explicitly no buffer installed.
  TimeUs now;
  int depth = 0;
  for (auto _ : state) {
    now += TimeUs(10);
    depth = (depth + 1) & 63;
    AF_TRACE_ENQUEUE(now, 3, 0, 1500, depth);
    benchmark::DoNotOptimize(depth);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceDisabledOverhead);

void BM_PacketPoolAllocFree(benchmark::State& state) {
  const bool pooled = state.range(0) != 0;
  PacketPool pool;
  // Warm the free list so the measurement sees the steady state.
  { auto warm = pool.Allocate(); }
  for (auto _ : state) {
    PacketPtr p = pooled ? pool.Allocate() : NewHeapPacket();
    p->size_bytes = 1500;
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(pooled ? "pool" : "heap");
}
BENCHMARK(BM_PacketPoolAllocFree)->Arg(1)->Arg(0);

// One timeseries sampler tick at N stations — the Testbed sampler's
// per-tick work after the accumulator rewrite: the medium's deliver callback
// appends one latency value per delivered packet (O(1) each, modeled by the
// fill loop), and the tick drains each station's accumulator with a sort +
// three quantile reads. The delivery count per tick is what the channel yields in
// one 10 ms interval, so it does NOT grow with N — the old ring-scan
// sampler paid O(trace ring) per station per tick instead, which is the
// collapse this benchmark guards against at N=256.
void BM_TimeseriesSample(benchmark::State& state) {
  const size_t stations = static_cast<size_t>(state.range(0));
  constexpr int kDeliveriesPerTick = 512;  // ~saturated 10 ms at MCS 15.
  std::vector<std::vector<double>> accum(stations);
  for (auto& samples : accum) {
    samples.reserve(4096);
  }
  const auto quantile = [](const std::vector<double>& sorted, double q) {
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = lo + 1 < sorted.size() ? lo + 1 : sorted.size() - 1;
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
  };
  uint64_t x = 1;
  for (auto _ : state) {
    for (int i = 0; i < kDeliveriesPerTick; ++i) {
      x = x * 6364136223846793005ULL + 1;
      accum[static_cast<size_t>(i) % stations].push_back(
          static_cast<double>(x >> 40));
    }
    double sink = 0;
    for (auto& samples : accum) {
      if (samples.empty()) {
        continue;
      }
      std::sort(samples.begin(), samples.end());
      sink += quantile(samples, 0.50) + quantile(samples, 0.95) +
              quantile(samples, 0.99);
      samples.clear();
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * kDeliveriesPerTick);
}
BENCHMARK(BM_TimeseriesSample)->Arg(8)->Arg(64)->Arg(256);

}  // namespace
}  // namespace airfair

BENCHMARK_MAIN();
