#include "src/scenario/testbed.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "src/aqm/fifo.h"
#include "src/aqm/fq_codel.h"
#include "src/obs/export.h"
#include "src/util/check.h"
#include "src/util/env.h"
#include "src/util/stats.h"

namespace airfair {

const char* SchemeName(QueueScheme scheme) {
  switch (scheme) {
    case QueueScheme::kFifo:
      return "FIFO";
    case QueueScheme::kFqCodel:
      return "FQ-CoDel";
    case QueueScheme::kFqMac:
      return "FQ-MAC";
    case QueueScheme::kAirtimeFair:
      return "Airtime";
  }
  return "?";
}

StationSpec FastStation(const std::string& name) {
  return StationSpec{FastStationRate(), name};
}

StationSpec SlowStation(const std::string& name) {
  return StationSpec{SlowStationRate(), name};
}

StationSpec LegacyStation(const std::string& name) {
  return StationSpec{OneMbpsRate(), name};
}

StationSpec AutoRateStation(const std::string& name, double snr_db) {
  StationSpec spec;
  spec.name = name;
  spec.auto_rate = true;
  spec.snr_db = snr_db;
  // Start conservatively; Minstrel probes upward from here.
  spec.rate = McsRate(0, /*short_gi=*/true);
  return spec;
}

std::vector<StationSpec> ThreeStationSetup() {
  return {FastStation("fast-1"), FastStation("fast-2"), SlowStation("slow")};
}

namespace {

// Packet-pool chunk size scaled with the topology: the default 256-packet
// chunk is right for the paper's 3-30 station setups, but a 256-station
// warmup at 256/chunk pays thousands of chunk growth steps. 16
// packets of headroom per station keeps small scenarios exactly as before
// (max() floors at the default) and amortises growth at large N.
int DerivedChunkPackets(const TestbedConfig& config) {
  return std::max(PacketPool::kChunkPackets,
                  16 * static_cast<int>(config.stations.size()));
}

}  // namespace

Testbed::Testbed(const TestbedConfig& config)
    : packet_pool_(DerivedChunkPackets(config)), sim_(config.seed), medium_(&sim_) {
  AF_CHECK(config.packet_pool) << " every testbed pools its packets";
  AF_CHECK_EQ(config.shards, 1) << " a run is one event loop";
  AF_CHECK_EQ(config.host_bus_delay.us(), 0) << " station hosts have no bus delay";

  // Server.
  server_host_ = std::make_unique<Host>(&sim_, server_node());
  server_host_->set_packet_pool(&packet_pool_);

  // Stations: table entries, per-station hosts and MACs.
  for (size_t i = 0; i < config.stations.size(); ++i) {
    const StationSpec& spec = config.stations[i];
    const uint32_t node = station_node(static_cast<int>(i));
    const StationId id = station_table_.Add(StationInfo{node, spec.rate, spec.name});
    if (spec.auto_rate) {
      // SNR-based channel plus Minstrel-style rate selection.
      const double snr = spec.snr_db;
      medium_.SetErrorModel(id, [snr](const PhyRate& rate) {
        if (rate.mcs < 0) {
          return 0.0;  // Legacy rates are assumed robust.
        }
        return MpduErrorProbability(snr, rate.mcs);
      });
      rate_controls_.push_back(
          std::make_unique<MinstrelRateControl>(config.seed * 977 + i + 1));
      station_table_.GetMutable(id).rate =
          rate_controls_.back()->PickRate();
    } else {
      medium_.SetErrorRate(id, spec.error_rate);
      rate_controls_.push_back(nullptr);
    }
    station_hosts_.push_back(std::make_unique<Host>(&sim_, node));
    station_hosts_.back()->set_packet_pool(&packet_pool_);
  }

  ap_ = std::make_unique<AccessPoint>(&sim_, &medium_, &station_table_, ap_node());
  BuildBackend(config);

  for (size_t i = 0; i < config.stations.size(); ++i) {
    auto station = std::make_unique<WifiStation>(&sim_, &medium_, &station_table_,
                                                 static_cast<StationId>(i), ap_node());
    WifiStation* raw = station.get();
    station_hosts_[i]->set_egress(
        [raw](PacketPtr packet) { raw->SendUplink(std::move(packet)); });
    wifi_stations_.push_back(std::move(station));
  }

  // Wired hop: server <-> AP.
  link_ = std::make_unique<WiredLink>(&sim_, config.wire);
  server_host_->set_egress(
      [this](PacketPtr packet) { link_->forward().Send(std::move(packet)); });
  link_->forward().set_deliver([this](PacketPtr packet) { ap_->FromWire(std::move(packet)); });
  ap_->set_wire_egress([this](PacketPtr packet) { link_->reverse().Send(std::move(packet)); });
  link_->reverse().set_deliver(
      [this](PacketPtr packet) { server_host_->Deliver(std::move(packet)); });

  // Radio delivery runs through per-receiver block-ack reorder buffers so
  // MAC retries do not surface as transport-level reordering.
  for (size_t i = 0; i < config.stations.size(); ++i) {
    Host* host = station_hosts_[i].get();
    reorder_.push_back(std::make_unique<ReorderBuffer>(
        &sim_, [host](PacketPtr packet) { host->Deliver(std::move(packet)); }));
  }
  reorder_.push_back(std::make_unique<ReorderBuffer>(
      &sim_, [this](PacketPtr packet) { ap_->FromWifi(std::move(packet)); }));
  medium_.set_deliver([this](PacketPtr packet, uint32_t src_node, uint32_t dst_node) {
    const Tid tid = packet->tid;
    if (dst_node == ap_node()) {
      reorder_.back()->Receive(std::move(packet), src_node, tid);
      return;
    }
    const StationId id = station_table_.FromNode(dst_node);
    if (id != kNoStation) {
      if (!station_table_.IsActive(id)) {
        // Straggler from a transmission that was on the air when the
        // station churned out: drain it where the ledger already looks.
        reorder_[static_cast<size_t>(id)]->DrainInactive(std::move(packet));
        return;
      }
      reorder_[static_cast<size_t>(id)]->Receive(std::move(packet), src_node, tid);
    }
  });
  medium_.set_rx_airtime_handler([this](StationId station, AccessCategory ac, TimeUs airtime) {
    ap_->OnRxAirtime(station, ac, airtime);
  });

  // Rate-control feedback loop: block-ack results update Minstrel, which
  // re-picks the station's current rate in the shared table.
  ap_->set_tx_observer([this](const TxDescriptor& tx, int succeeded) {
    if (tx.station < 0 || tx.station >= static_cast<StationId>(rate_controls_.size())) {
      return;
    }
    MinstrelRateControl* control = rate_controls_[static_cast<size_t>(tx.station)].get();
    if (control == nullptr || tx.rate.mcs < 0) {
      return;
    }
    control->ReportResult(tx.rate.mcs, tx.frame_count(), succeeded);
    station_table_.GetMutable(tx.station).rate = control->PickRate();
  });

  BuildLedger();
  BuildAuditor(config);
  BuildTrace(config);
  BuildFault(config);
}

void Testbed::BuildFault(const TestbedConfig& config) {
  if (config.faults.empty()) {
    return;
  }
  FaultInjectorContext ctx;
  ctx.sim = &sim_;
  ctx.stations = &station_table_;
  ctx.medium = &medium_;
  ctx.ap = ap_.get();
  ctx.ap_node = ap_node();
  for (const auto& station : wifi_stations_) {
    ctx.wifi.push_back(station.get());
  }
  for (const auto& reorder : reorder_) {
    ctx.reorder.push_back(reorder.get());
  }
  ctx.timeseries = timeseries_.get();
  // Base error models, rebuilt to match what the constructor installed on
  // the medium, so burst windows layer over the configured channel instead
  // of replacing it.
  for (const StationSpec& spec : config.stations) {
    if (spec.auto_rate) {
      const double snr = spec.snr_db;
      ctx.base_error.push_back([snr](const PhyRate& rate) {
        return rate.mcs < 0 ? 0.0 : MpduErrorProbability(snr, rate.mcs);
      });
    } else {
      const double p = spec.error_rate;
      ctx.base_error.push_back([p](const PhyRate&) { return p; });
    }
  }
  const uint64_t seed =
      config.churn_seed != 0 ? config.churn_seed : ChurnSeedFromEnv(config.seed);
  fault_ = std::make_unique<FaultInjector>(std::move(ctx), config.faults, seed);
  fault_->Arm();
}

void Testbed::BuildLedger() {
  ledger_ = std::make_unique<PacketLedger>();
  ledger_->set_pool(&packet_pool_);
  ledger_->set_access_point(ap_.get());
  ledger_->set_link(link_.get());
  ledger_->AddHost(server_host_.get());
  for (const auto& host : station_hosts_) {
    ledger_->AddHost(host.get());
  }
  for (const auto& station : wifi_stations_) {
    ledger_->AddStation(station.get());
  }
  for (const auto& reorder : reorder_) {
    ledger_->AddReorder(reorder.get());
  }
}

Testbed::~Testbed() {
  if (auditor_ != nullptr) {
    // The CHECK time provider points at this testbed's clock; detach it
    // before the simulation is torn down.
    SetCheckTimeProvider(nullptr);
  }
  if (trace_ != nullptr) {
    ExportTraceArtifacts();
    // Uninstall this testbed's observability hooks before trace_ is freed
    // (members destroy after this body runs), restoring whatever was
    // installed before — nested testbeds in tests stack correctly.
    if (flight_recorder_installed_) {
      SetCheckFlightRecorder(std::move(prev_flight_recorder_));
    }
    SetCurrentTraceBuffer(prev_trace_);
  }
}

namespace {

// Trace events dumped to stderr by the crash flight recorder.
constexpr size_t kFlightRecorderTail = 64;

// Timeseries sampling cadence (airtime shares, Jain index, queue depth,
// per-station latency quantiles); the auditor's default sweep interval.
constexpr TimeUs kSampleInterval = TimeUs::FromMilliseconds(10);

// Airtime shares and Jain are computed over a sliding window of this many
// sample ticks (20 x 10 ms = 200 ms). One tick is too coarse: a single 3 ms
// A-MPDU dominates a 10 ms window and the Jain index whipsaws; 200 ms
// matches the averaging the paper's airtime figures use.
constexpr size_t kAirtimeWindowSamples = 20;

// Quantile over a sorted scratch vector (linear interpolation, matching
// util/stats semantics without materialising a SampleSet per sample tick).
double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

// Expands "{scheme}" in an export path so one bench run writing several
// testbeds (one per scheme) keeps every artifact instead of overwriting.
std::string ExpandExportPath(const std::string& path, const std::string& scheme) {
  const std::string token = "{scheme}";
  const size_t at = path.find(token);
  if (at == std::string::npos) {
    return path;
  }
  std::string expanded = path;
  expanded.replace(at, token.size(), scheme);
  return expanded;
}

}  // namespace

void Testbed::BuildTrace(const TestbedConfig& config) {
  if (!config.trace) {
    return;
  }
  TraceBuffer::Config trace_config = config.trace_config;
  // Intern slots scale with the topology instead of a hard 256: every
  // per-station instrumentation site that labels records gets a slot with
  // headroom, so a 256-station run cannot silently exhaust the table
  // (Intern returns 0 = unlabelled when full).
  trace_config.intern_capacity =
      std::max(trace_config.intern_capacity, 64 + 2 * config.stations.size());
  trace_ = std::make_unique<TraceBuffer>(trace_config);
  Simulation* sim = &sim_;
  trace_->set_clock([sim] { return sim->now(); });
  prev_trace_ = SetCurrentTraceBuffer(trace_.get());
  // Crash flight recorder: a fatal AF_CHECK / audit failure dumps the tail
  // of the ring before aborting, so the post-mortem shows the packet and
  // scheduler events leading up to the violation.
  TraceBuffer* buffer = trace_.get();
  prev_flight_recorder_ =
      SetCheckFlightRecorder([buffer] { buffer->DumpTail(kFlightRecorderTail); });
  flight_recorder_installed_ = true;

  // Metrics timelines, sampled on a fixed cadence below.
  timeseries_ = std::make_unique<Timeseries>();
  run_label_ = std::string(SchemeName(config.scheme)) + " n=" +
               std::to_string(config.stations.size()) + " seed=" +
               std::to_string(config.seed);
  const size_t n = config.stations.size();
  latency_accum_.resize(n);
  share_scratch_.assign(n, 0.0);
  jain_scratch_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    latency_accum_[i].reserve(4096);
    const std::string& name = config.stations[i].name;
    airtime_series_.push_back(timeseries_->Series("airtime_share." + name));
    latency_p50_series_.push_back(timeseries_->Series("latency_p50_us." + name));
    latency_p95_series_.push_back(timeseries_->Series("latency_p95_us." + name));
    latency_p99_series_.push_back(timeseries_->Series("latency_p99_us." + name));
  }
  jain_series_ = timeseries_->Series("airtime_jain");
  depth_series_ = timeseries_->Series("queue_depth_packets");
  airtime_history_.assign(
      kAirtimeWindowSamples,
      std::vector<TimeUs>(static_cast<size_t>(station_table_.size()), TimeUs::Zero()));

  // Incremental latency accumulation: every kDeliver append lands in the
  // station's accumulator as it happens, so the sample tick below only
  // sorts and drains — the former per-tick ForEachSince ring scan was
  // O(ring capacity) per sample regardless of how few records were new,
  // which dominated the run at large station counts.
  trace_->set_deliver_sink(&Testbed::DeliverSinkThunk, this);
  ScheduleSample();
}

void Testbed::DeliverSinkThunk(void* ctx, const TraceRecord& rec) {
  static_cast<Testbed*>(ctx)->OnDeliverRecord(rec);
}

void Testbed::ScheduleSample() {
  // Detached (fire-and-forget) rescheduling: the handle-keeping path mints
  // a cancellation token per tick, which would be the sampler's only
  // steady-state allocation (tests/perf_alloc_test.cc holds the traced
  // testbed window to exactly the untraced window's count). The event dies
  // with the loop, so no cancellation is needed at destruction.
  sim_.PostAfter(kSampleInterval, [this] {
    SampleTimeseries();
    ScheduleSample();
  });
}

void Testbed::SampleTimeseries() {
  const TimeUs now = sim_.now();

  // Sliding-window airtime shares: the share of airtime each station used
  // over the last kAirtimeWindowSamples ticks. This is the convergence
  // signal of Figs. 5/9 — end-of-run aggregates hide how quickly the
  // scheduler reaches fairness.
  const std::vector<TimeUs>& airtime = medium_.airtime_by_station();
  std::vector<TimeUs>& base_slot = airtime_history_[airtime_history_pos_];
  const size_t n = share_scratch_.size();
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const TimeUs current = i < airtime.size() ? airtime[i] : TimeUs::Zero();
    const TimeUs base = i < base_slot.size() ? base_slot[i] : TimeUs::Zero();
    share_scratch_[i] = (current - base).ToSeconds();
    total += share_scratch_[i];
  }
  // Recycle the oldest snapshot slot as the newest (no allocation: the slot
  // was pre-sized to the station count and the ledger never shrinks).
  base_slot.assign(airtime.begin(), airtime.end());
  base_slot.resize(static_cast<size_t>(station_table_.size()), TimeUs::Zero());
  airtime_history_pos_ = (airtime_history_pos_ + 1) % airtime_history_.size();
  if (total > 0.0) {
    for (size_t i = 0; i < n; ++i) {
      share_scratch_[i] /= total;
      timeseries_->Record(airtime_series_[i], now, share_scratch_[i]);
    }
    // Jain over stations present at the sample instant: a churned-out
    // station is absent, not unfairly starved, so it must not count as a
    // zero share (7 fair stations of 7 score 1.0, not 7/8 = 0.875). Jain is
    // scale-invariant, so the subset needs no renormalisation.
    jain_scratch_.clear();
    for (size_t i = 0; i < n; ++i) {
      if (station_table_.IsActive(static_cast<StationId>(i))) {
        jain_scratch_.push_back(share_scratch_[i]);
      }
    }
    timeseries_->Record(jain_series_, now, JainFairnessIndex(jain_scratch_));
  }

  // Backend standing queue (whichever backend this scheme uses).
  if (mac_backend_ != nullptr) {
    timeseries_->Record(depth_series_, now,
                        static_cast<double>(mac_backend_->packet_count()));
  } else if (qdisc_backend_ != nullptr) {
    timeseries_->Record(depth_series_, now,
                        static_cast<double>(qdisc_backend_->packet_count()));
  }

  // Per-station end-to-end latency quantiles over the window. The deliver
  // sink (OnDeliverRecord) accumulated every kDeliver since the previous
  // tick in append order — identical contents to the retired ring re-scan,
  // without its O(ring) cost — so this pass only sorts, records and drains.
  // Clearing keeps each vector's capacity: steady state allocates nothing.
  for (size_t i = 0; i < latency_accum_.size(); ++i) {
    std::vector<double>& samples = latency_accum_[i];
    if (samples.empty()) {
      continue;
    }
    std::sort(samples.begin(), samples.end());
    timeseries_->Record(latency_p50_series_[i], now, QuantileSorted(samples, 0.50));
    timeseries_->Record(latency_p95_series_[i], now, QuantileSorted(samples, 0.95));
    timeseries_->Record(latency_p99_series_[i], now, QuantileSorted(samples, 0.99));
    samples.clear();
  }
}

void Testbed::ExportTraceArtifacts() {
  const char* trace_path = std::getenv("AIRFAIR_TRACE_JSON");
  const char* series_path = std::getenv("AIRFAIR_TIMESERIES_JSON");
  if ((trace_path == nullptr || *trace_path == '\0') &&
      (series_path == nullptr || *series_path == '\0')) {
    return;
  }
  // Sanitised scheme token for {scheme} path expansion.
  std::string scheme;
  for (const char c : run_label_.substr(0, run_label_.find(' '))) {
    scheme.push_back(c == '-' ? '_' : c);
  }
  if (trace_path != nullptr && *trace_path != '\0') {
    const std::string path = ExpandExportPath(trace_path, scheme);
    ChromeTraceMetadata meta;
    meta.process_name = "medium0 " + run_label_;
    for (int i = 0; i < station_table_.size(); ++i) {
      meta.station_names.push_back(station_table_.Get(i).name);
    }
    if (WriteChromeTraceFile(*trace_, meta, path)) {
      std::fprintf(stderr, "[trace] wrote Chrome trace (%llu events) to %s\n",
                   static_cast<unsigned long long>(trace_->size()), path.c_str());
    } else {
      std::fprintf(stderr, "[trace] failed to open %s\n", path.c_str());
    }
  }
  if (series_path != nullptr && *series_path != '\0') {
    const std::string path = ExpandExportPath(series_path, scheme);
    if (WriteTimeseriesJsonlFile(*timeseries_, run_label_, path)) {
      std::fprintf(stderr, "[trace] wrote timeseries (%llu points) to %s\n",
                   static_cast<unsigned long long>(timeseries_->total_points()),
                   path.c_str());
    } else {
      std::fprintf(stderr, "[trace] failed to open %s\n", path.c_str());
    }
  }
}

void Testbed::BuildAuditor(const TestbedConfig& config) {
  if (!config.audit) {
    return;
  }
  Auditor::Config audit_config = config.audit_config;
  // Runtime cadence override for spot-auditing long bench runs without a
  // Debug/audit build (the benches map AIRFAIR_BENCH_AUDIT onto this).
  if (const int64_t ms = EnvWholeNumber("AIRFAIR_AUDIT_INTERVAL_MS", /*fallback=*/0, /*min=*/1);
      ms > 0) {
    audit_config.interval = TimeUs::FromMilliseconds(static_cast<double>(ms));
  }
  auditor_ = std::make_unique<Auditor>(&sim_.loop(), audit_config);
  // Failure messages gain simulated-timestamp context while this testbed is
  // alive (cleared in the destructor).
  Simulation* sim = &sim_;
  SetCheckTimeProvider([sim] { return sim->now(); });

  auditor_->WatchEventLoop();
  PacketLedger* ledger = ledger_.get();
  auditor_->AddCheck("conservation", [ledger](const Auditor::FailFn& fail) {
    ledger->CheckInvariants(fail);
  });
  if (mac_backend_ != nullptr) {
    mac_backend_->RegisterAudits(auditor_.get());
  }
  if (qdisc_backend_ != nullptr) {
    if (const auto* fq = dynamic_cast<const FqCodelQdisc*>(&qdisc_backend_->qdisc());
        fq != nullptr) {
      auditor_->AddCheck("fq_codel", [fq](const Auditor::FailFn& fail) {
        fq->CheckInvariants(fail);
      });
    }
  }
  for (size_t i = 0; i < reorder_.size(); ++i) {
    const ReorderBuffer* buffer = reorder_[i].get();
    const std::string name =
        i + 1 == reorder_.size() ? std::string("reorder.ap") : "reorder." + std::to_string(i);
    auditor_->AddCheck(name, [buffer](const Auditor::FailFn& fail) {
      buffer->CheckInvariants(fail);
    });
  }
  auditor_->Start();
}

void Testbed::BuildBackend(const TestbedConfig& config) {
  switch (config.scheme) {
    case QueueScheme::kFifo: {
      auto qdisc = std::make_unique<FifoQdisc>(config.fifo_limit_packets);
      auto backend = std::make_unique<QdiscBackend>(std::move(qdisc), &station_table_,
                                                    ap_node(), config.qdisc_backend);
      qdisc_backend_ = backend.get();
      ap_->SetBackend(std::move(backend));
      break;
    }
    case QueueScheme::kFqCodel: {
      FqCodelConfig fq;
      Simulation* sim = &sim_;
      auto qdisc = std::make_unique<FqCodelQdisc>([sim] { return sim->now(); }, fq);
      auto backend = std::make_unique<QdiscBackend>(std::move(qdisc), &station_table_,
                                                    ap_node(), config.qdisc_backend);
      qdisc_backend_ = backend.get();
      ap_->SetBackend(std::move(backend));
      break;
    }
    case QueueScheme::kFqMac: {
      MacQueueBackend::Config be = config.mac_backend;
      be.airtime_fairness = false;
      auto backend = std::make_unique<MacQueueBackend>(&sim_, &station_table_, ap_node(), be);
      mac_backend_ = backend.get();
      ap_->SetBackend(std::move(backend));
      break;
    }
    case QueueScheme::kAirtimeFair: {
      MacQueueBackend::Config be = config.mac_backend;
      be.airtime_fairness = true;
      auto backend = std::make_unique<MacQueueBackend>(&sim_, &station_table_, ap_node(), be);
      mac_backend_ = backend.get();
      ap_->SetBackend(std::move(backend));
      break;
    }
  }
}

void Testbed::StartMeasurement() {
  measurement_start_ = sim_.now();
  airtime_baseline_ = medium_.AirtimeSnapshot();
  airtime_baseline_.resize(static_cast<size_t>(station_table_.size()), TimeUs::Zero());
}

std::vector<double> Testbed::AirtimeShares() const {
  std::vector<TimeUs> current = medium_.AirtimeSnapshot();
  current.resize(static_cast<size_t>(station_table_.size()), TimeUs::Zero());
  std::vector<double> shares(current.size(), 0.0);
  double total = 0;
  for (size_t i = 0; i < current.size(); ++i) {
    const TimeUs base =
        i < airtime_baseline_.size() ? airtime_baseline_[i] : TimeUs::Zero();
    shares[i] = (current[i] - base).ToSeconds();
    total += shares[i];
  }
  if (total > 0) {
    for (auto& s : shares) {
      s /= total;
    }
  }
  return shares;
}

double Testbed::JainAirtimeIndex() const {
  const std::vector<double> shares = AirtimeShares();
  return JainFairnessIndex(shares);
}

}  // namespace airfair
