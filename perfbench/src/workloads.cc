#include "perfbench/src/workloads.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <memory>
#include <utility>

#include "src/aqm/fifo.h"
#include "src/aqm/fq_codel.h"
#include "src/core/mac_queue_backend.h"
#include "src/mac/qdisc_backend.h"
#include "src/net/tcp.h"
#include "src/net/udp.h"
#include "src/scenario/experiments.h"
#include "src/util/stats.h"

namespace perfbench {

using airfair::QueueScheme;
using airfair::TimeUs;

namespace {

constexpr uint16_t kBulkPort = 5001;
constexpr uint16_t kUdpPort = 6001;
const TimeUs kPingInterval = TimeUs::FromMilliseconds(100);  // 10 Hz.

// udp_overload: fig_scale's largest point. 480 Mbit/s split over 256
// stations is far above what the channel carries at any scheme, so every
// enqueue past the warmup takes the overflow-victim path.
constexpr int kOverloadStations = 256;
constexpr double kOverloadOfferedBps = 480e6;
// Every 17th station is pinged: 16 stations covering the MCS spread and the
// 1 Mbit/s legacy station (index 255), enough RTT samples for a p99.
constexpr int kOverloadPingStride = 17;

// churn_observed: fig_churn's 8-station wave (stations 5 and 6 leave and
// rejoin in turn) under 60 Mbit/s of UDP per station.
constexpr int kChurnStations = 8;
constexpr int kChurnA = 5;
constexpr int kChurnB = 6;
constexpr double kChurnOfferedBpsPerStation = 60e6;

struct Shape {
  TimeUs warmup;
  TimeUs measure;
};

TimeUs Scaled(double seconds, double scale) {
  return TimeUs(std::max<int64_t>(
      1000, static_cast<int64_t>(seconds * scale * 1e6)));
}

Shape ShapeOf(WorkloadId workload, double scale) {
  switch (workload) {
    case WorkloadId::kUdpOverload:
      return {Scaled(2, scale), Scaled(8, scale)};
    case WorkloadId::kTcpLatency:
      // 3 pinged stations x 10 Hz x 20 s = 600 RTT samples per cell; the
      // model outputs pool several inputs, so well over 10 lie above the p99.
      return {Scaled(5, scale), Scaled(20, scale)};
    case WorkloadId::kChurnObserved:
      return {Scaled(5, scale), Scaled(16, scale)};
  }
  return {};
}

airfair::FaultPlan ChurnWave(const Shape& shape) {
  const auto at = [&](double fraction) {
    return shape.warmup + TimeUs(static_cast<int64_t>(
                              static_cast<double>(shape.measure.us()) * fraction));
  };
  airfair::FaultPlan plan;
  plan.Leave(kChurnA, at(0.125))
      .Join(kChurnA, at(0.3125))
      .Leave(kChurnB, at(0.5))
      .Join(kChurnB, at(0.6875));
  return plan;
}

airfair::TestbedConfig ConfigFor(WorkloadId workload, QueueScheme scheme, uint64_t seed,
                                 const Shape& shape, bool program_trace) {
  airfair::TestbedConfig config;
  switch (workload) {
    case WorkloadId::kUdpOverload:
      config = airfair::ScaleConfig(kOverloadStations, scheme, seed);
      break;
    case WorkloadId::kTcpLatency:
      config.stations = airfair::ThreeStationSetup();
      break;
    case WorkloadId::kChurnObserved:
      config.stations.clear();
      for (int i = 0; i < kChurnStations - 1; ++i) {
        config.stations.push_back(airfair::FastStation("fast" + std::to_string(i)));
      }
      config.stations.push_back(airfair::SlowStation("slow0"));
      config.faults = ChurnWave(shape);
      break;
  }
  config.seed = seed;
  config.scheme = scheme;
  // Pin every setting that otherwise defaults from the environment, so the
  // seed alone decides what is simulated.
  config.audit = false;
  config.packet_pool = true;
  config.shards = 1;
  config.host_bus_delay = TimeUs::Zero();
  config.churn_seed = seed * 2 + 1;
  if (workload != WorkloadId::kChurnObserved) {
    config.faults = airfair::FaultPlan();
  }
  config.trace = program_trace;
  return config;
}

// The apps of one cell. Declared after the Testbed it uses so it is
// destroyed first (sockets and sinks unbind from live hosts).
struct Apps {
  std::vector<std::unique_ptr<airfair::UdpSink>> sinks;  // Index = station.
  std::vector<std::unique_ptr<airfair::UdpSource>> sources;
  std::vector<std::unique_ptr<airfair::TcpListener>> listeners;
  std::vector<airfair::TcpSocket*> receivers;  // Accepted station-side sockets.
  std::vector<std::unique_ptr<airfair::TcpSocket>> senders;
  std::vector<std::unique_ptr<airfair::PingSender>> pings;  // Null: not pinged.
};

void WireUdp(airfair::Testbed& tb, double bps_per_station, Apps* apps) {
  for (int i = 0; i < tb.station_count(); ++i) {
    apps->sinks.push_back(std::make_unique<airfair::UdpSink>(tb.station_host(i), kUdpPort));
    airfair::UdpSource::Config src;
    src.rate_bps = bps_per_station;
    apps->sources.push_back(std::make_unique<airfair::UdpSource>(
        tb.server_host(), tb.station_node(i), kUdpPort, src));
    apps->sources.back()->Start();
  }
}

void WireTcp(airfair::Testbed& tb, Apps* apps) {
  const int n = tb.station_count();
  apps->receivers.assign(static_cast<size_t>(n), nullptr);
  for (int i = 0; i < n; ++i) {
    apps->listeners.push_back(std::make_unique<airfair::TcpListener>(
        tb.station_host(i), kBulkPort, airfair::TcpConfig()));
    std::vector<airfair::TcpSocket*>* receivers = &apps->receivers;
    apps->listeners.back()->on_accept = [receivers, i](airfair::TcpSocket* s) {
      (*receivers)[static_cast<size_t>(i)] = s;
    };
    auto sender = std::make_unique<airfair::TcpSocket>(tb.server_host(), airfair::TcpConfig());
    sender->Connect(tb.station_node(i), kBulkPort);
    sender->WriteForever();
    apps->senders.push_back(std::move(sender));
  }
}

void WirePings(airfair::Testbed& tb, int stride, Apps* apps) {
  apps->pings.resize(static_cast<size_t>(tb.station_count()));
  for (int i = 0; i < tb.station_count(); i += stride) {
    airfair::PingSender::Config cfg;
    cfg.interval = kPingInterval;
    auto ping = std::make_unique<airfair::PingSender>(tb.server_host(), tb.station_node(i), cfg);
    ping->Start();
    apps->pings[static_cast<size_t>(i)] = std::move(ping);
  }
}

void Wire(WorkloadId workload, airfair::Testbed& tb, Apps* apps) {
  switch (workload) {
    case WorkloadId::kUdpOverload:
      WireUdp(tb, kOverloadOfferedBps / kOverloadStations, apps);
      WirePings(tb, kOverloadPingStride, apps);
      break;
    case WorkloadId::kTcpLatency:
      WireTcp(tb, apps);
      WirePings(tb, 1, apps);
      break;
    case WorkloadId::kChurnObserved:
      WireUdp(tb, kChurnOfferedBpsPerStation, apps);
      WirePings(tb, 1, apps);
      break;
  }
}

// Replaces the backend the Testbed built with an identical one wrapped in
// the timing decorators (Testbed::BuildBackend, rebuilt from the public
// constructors). Only valid with audit and program trace off: the testbed's
// auditor and depth sampler keep raw pointers to the backend it built.
void InstallTimedBackend(airfair::Testbed& tb, const airfair::TestbedConfig& config,
                         SeamTimings* seams) {
  std::unique_ptr<airfair::ApQueueBackend> backend;
  airfair::Simulation* sim = &tb.sim();
  switch (config.scheme) {
    case QueueScheme::kFifo:
    case QueueScheme::kFqCodel: {
      std::unique_ptr<airfair::Qdisc> qdisc;
      if (config.scheme == QueueScheme::kFifo) {
        qdisc = std::make_unique<airfair::FifoQdisc>(config.fifo_limit_packets);
      } else {
        qdisc = std::make_unique<airfair::FqCodelQdisc>([sim] { return sim->now(); },
                                                         airfair::FqCodelConfig());
      }
      backend = std::make_unique<airfair::QdiscBackend>(
          std::make_unique<TimedQdisc>(std::move(qdisc), seams), &tb.stations(), tb.ap_node(),
          config.qdisc_backend);
      break;
    }
    case QueueScheme::kFqMac:
    case QueueScheme::kAirtimeFair: {
      airfair::MacQueueBackend::Config be = config.mac_backend;
      be.airtime_fairness = config.scheme == QueueScheme::kAirtimeFair;
      backend = std::make_unique<airfair::MacQueueBackend>(sim, &tb.stations(), tb.ap_node(), be);
      break;
    }
  }
  tb.ap().SetBackend(std::make_unique<TimedBackend>(std::move(backend), seams));
}

// The backend doing the queueing, seen through the decorator if present.
const airfair::ApQueueBackend* InnerBackend(const airfair::AccessPoint& ap) {
  const airfair::ApQueueBackend* backend = ap.backend();
  if (const auto* timed = dynamic_cast<const TimedBackend*>(backend); timed != nullptr) {
    return &timed->inner();
  }
  return backend;
}

void ReadQueueDrops(const airfair::AccessPoint& ap, CellResult* out) {
  const airfair::ApQueueBackend* backend = InnerBackend(ap);
  if (const auto* mac = dynamic_cast<const airfair::MacQueueBackend*>(backend); mac != nullptr) {
    out->overflow_drops = mac->queues().overflow_drops();
    out->codel_drops = mac->queues().codel_drops();
    return;
  }
  const auto* qb = dynamic_cast<const airfair::QdiscBackend*>(backend);
  if (qb == nullptr) {
    return;
  }
  const airfair::Qdisc* qdisc = &qb->qdisc();
  if (const auto* timed = dynamic_cast<const TimedQdisc*>(qdisc); timed != nullptr) {
    qdisc = &timed->inner();
  }
  if (const auto* fq = dynamic_cast<const airfair::FqCodelQdisc*>(qdisc); fq != nullptr) {
    out->overflow_drops = fq->overflow_drops();
    out->codel_drops = fq->codel_drops();
  } else {
    out->overflow_drops = qdisc->drops();  // PFIFO: tail drops only.
  }
}

int64_t CounterValue(const char* name) { return airfair::GetCounter(name).value(); }

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

void Collect(airfair::Testbed& tb, const Apps& apps, const Shape& shape, CellResult* out) {
  const int n = tb.station_count();
  out->delivered_bytes.assign(static_cast<size_t>(n), 0);
  out->ping_sum_ms.assign(static_cast<size_t>(n), 0.0);
  out->ping_count.assign(static_cast<size_t>(n), 0);
  int64_t measured_bytes = 0;
  airfair::SampleSet& rtts = out->rtts;
  for (int i = 0; i < n; ++i) {
    const auto s = static_cast<size_t>(i);
    if (s < apps.sinks.size()) {
      out->delivered_bytes[s] += apps.sinks[s]->bytes_received();
      measured_bytes += apps.sinks[s]->measured_bytes();
    }
    if (s < apps.receivers.size() && apps.receivers[s] != nullptr) {
      out->delivered_bytes[s] += apps.receivers[s]->bytes_delivered();
      measured_bytes += apps.receivers[s]->measured_delivered_bytes();
    }
    if (s < apps.pings.size() && apps.pings[s] != nullptr) {
      const airfair::SampleSet& samples = apps.pings[s]->rtt_ms();
      for (const double x : samples.samples()) {
        out->ping_sum_ms[s] += x;
      }
      out->ping_count[s] = static_cast<int64_t>(samples.count());
      rtts.Merge(samples);
    }
  }
  rtts.Sort();
  out->ping_samples = static_cast<int64_t>(rtts.count());
  out->ping_p50_ms = rtts.Quantile(0.50);
  out->ping_p99_ms = rtts.Quantile(0.99);
  out->goodput_mbps =
      static_cast<double>(measured_bytes) * 8.0 / shape.measure.ToSeconds() / 1e6;
  out->jain = tb.JainAirtimeIndex();

  const airfair::EventLoop& loop = tb.sim().loop();
  out->events = loop.dispatched_events();
  out->scheduled = loop.scheduled_events();
  out->tokens_created = loop.tokens_created();

  const airfair::WifiMedium& medium = tb.medium();
  out->mac_tx = medium.transmissions();
  out->mac_collisions = medium.collisions();
  out->mac_mpdu_errors = medium.mpdu_errors();
  out->air_busy_s = medium.busy_time().ToSeconds();
  for (int i = 0; i < n; ++i) {
    const airfair::RunningStats& agg = tb.ap().AggregationStats(i);
    out->ampdu_mpdus += agg.sum();
    out->ampdu_count += agg.count();
  }
  out->retry_drops = tb.ap().retry_drops();

  for (const auto& sender : apps.senders) {
    out->tcp_retransmits += sender->retransmits();
    out->tcp_timeouts += sender->timeouts();
  }
  if (airfair::PacketLedger* ledger = tb.ledger(); ledger != nullptr) {
    const airfair::LedgerTallies tally = ledger->Tally();
    out->ledger_imbalance = tally.Imbalance();
    out->packets = tally.injected;
    out->link_drops = tally.link_drops;
    out->drained = tally.drained;
  } else {
    out->ledger_imbalance = -1;  // No ledger to balance: counts as a failure.
  }
  if (const airfair::TraceBuffer* trace = tb.trace_buffer(); trace != nullptr) {
    out->obs_records = static_cast<int64_t>(trace->total_appended());
    out->obs_overwritten = static_cast<int64_t>(trace->overwritten());
  }
  if (const airfair::FaultInjector* fault = tb.fault_injector(); fault != nullptr) {
    out->fault_leaves = fault->leaves_applied();
    out->fault_joins = fault->joins_applied();
  }
  ReadQueueDrops(tb.ap(), out);
}

}  // namespace

bool ParseWorkload(const std::string& name, WorkloadId* out) {
  if (name == "udp_overload") {
    *out = WorkloadId::kUdpOverload;
  } else if (name == "tcp_latency") {
    *out = WorkloadId::kTcpLatency;
  } else if (name == "churn_observed") {
    *out = WorkloadId::kChurnObserved;
  } else {
    return false;
  }
  return true;
}

const char* CellName(QueueScheme scheme) {
  switch (scheme) {
    case QueueScheme::kFifo:
      return "fifo";
    case QueueScheme::kFqCodel:
      return "fq_codel";
    case QueueScheme::kFqMac:
      return "fq_mac";
    case QueueScheme::kAirtimeFair:
      return "airtime";
  }
  return "?";
}

bool WorkloadTracesByDefault(WorkloadId workload) {
  return workload == WorkloadId::kChurnObserved;
}

uint64_t InputSeed(uint64_t seed, int input) {
  // splitmix64 finaliser over (seed, input); never 0.
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(input) + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

double TimeSetup(WorkloadId workload, QueueScheme scheme, uint64_t seed,
                 const CellOptions& options) {
  const airfair::TestbedConfig config = ConfigFor(
      workload, scheme, seed, ShapeOf(workload, options.sim_scale), options.program_trace);
  const auto start = std::chrono::steady_clock::now();
  airfair::Testbed tb(config);
  Apps apps;
  Wire(workload, tb, &apps);
  return SecondsSince(start);
}

CellResult RunCell(WorkloadId workload, QueueScheme scheme, uint64_t seed,
                   const CellOptions& options) {
  AF_CHECK(!(options.decorate && options.program_trace))
      << " the timing decorators replace the backend the traced testbed samples";
  const Shape shape = ShapeOf(workload, options.sim_scale);
  const airfair::TestbedConfig config =
      ConfigFor(workload, scheme, seed, shape, options.program_trace);

  CellResult out;
  out.decorated = options.decorate;
  // Published by the event loop and packet pool destructors.
  const int64_t detached_before = CounterValue("sim.events.detached");
  const int64_t chunks_before = CounterValue("packets.pool.chunks");
  {
    const auto setup_start = std::chrono::steady_clock::now();
    airfair::Testbed tb(config);
    if (options.decorate) {
      InstallTimedBackend(tb, config, &out.seams);
    }
    Apps apps;
    Wire(workload, tb, &apps);
    out.setup_s = SecondsSince(setup_start);

    const auto run_start = std::chrono::steady_clock::now();
    tb.sim().RunFor(shape.warmup);
    tb.StartMeasurement();
    const TimeUs now = tb.sim().now();
    for (const auto& sink : apps.sinks) {
      sink->StartMeasuring(now);
    }
    for (airfair::TcpSocket* receiver : apps.receivers) {
      if (receiver != nullptr) {
        receiver->StartMeasuring(now);
      }
    }
    for (const auto& ping : apps.pings) {
      if (ping != nullptr) {
        ping->StartMeasuring(now);
      }
    }
    tb.sim().RunFor(shape.measure);
    out.run_s = SecondsSince(run_start);
    out.sim_s = (shape.warmup + shape.measure).ToSeconds();
    Collect(tb, apps, shape, &out);
  }
  out.detached = CounterValue("sim.events.detached") - detached_before;
  out.pool_chunks = CounterValue("packets.pool.chunks") - chunks_before;
  return out;
}

uint64_t ModelHash(const CellResult& cell) {
  uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (size_t i = 0; i < cell.delivered_bytes.size(); ++i) {
    mix(static_cast<uint64_t>(cell.delivered_bytes[i]));
    mix(std::bit_cast<uint64_t>(cell.ping_sum_ms[i]));
    mix(static_cast<uint64_t>(cell.ping_count[i]));
  }
  return h;
}

}  // namespace perfbench
