// The paper's testbed as a reusable simulation scenario.
//
// Topology (Section 4): a server one Gigabit-Ethernet hop from the access
// point, plus wireless stations. The canonical setup has two fast stations
// (MCS 15, 144.4 Mbit/s), one slow station (MCS 0, 7.2 Mbit/s) and
// optionally a fourth "sparse" station used for the sparse-station
// optimisation experiments; the scaling setup has 30 stations.
//
// Node ids: 0 = server, 1 = access point, 2+i = station i.

#ifndef AIRFAIR_SRC_SCENARIO_TESTBED_H_
#define AIRFAIR_SRC_SCENARIO_TESTBED_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/mac_queue_backend.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_schedule.h"
#include "src/mac/access_point.h"
#include "src/mac/medium.h"
#include "src/mac/channel_model.h"
#include "src/mac/qdisc_backend.h"
#include "src/mac/rate_control.h"
#include "src/mac/reorder.h"
#include "src/mac/station.h"
#include "src/mac/station_table.h"
#include "src/net/host.h"
#include "src/net/packet_pool.h"
#include "src/net/wired_link.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"
#include "src/scenario/conservation.h"
#include "src/sim/audit.h"
#include "src/sim/simulation.h"
#include "src/util/check.h"

namespace airfair {

// The four queue-management schemes of the evaluation (Section 4).
enum class QueueScheme {
  kFifo,         // Default kernel: PFIFO qdisc above the driver queues.
  kFqCodel,      // FQ-CoDel qdisc above the driver queues.
  kFqMac,        // The paper's intermediate MAC queues (Algorithms 1-2).
  kAirtimeFair,  // FQ-MAC plus the airtime scheduler (Algorithm 3).
};

const char* SchemeName(QueueScheme scheme);

struct StationSpec {
  PhyRate rate;
  std::string name;
  double error_rate = 0.0;  // Per-MPDU loss probability on the air.

  // Dynamic rate selection: when enabled, the station's rate is chosen by a
  // Minstrel-style controller against an SNR-based channel model (`rate` is
  // only the starting point). This also drives the Section 3.1.1 CoDel
  // adaptation from a live rate-selection estimate, as in the paper.
  bool auto_rate = false;
  double snr_db = 30.0;
};

// A station whose rate is selected dynamically for the given channel SNR.
StationSpec AutoRateStation(const std::string& name, double snr_db);

StationSpec FastStation(const std::string& name);   // MCS 15, 144.4 Mbit/s.
StationSpec SlowStation(const std::string& name);   // MCS 0, 7.2 Mbit/s.
StationSpec LegacyStation(const std::string& name); // 1 Mbit/s, no HT.

// The paper's standard 3-station setup (two fast, one slow).
std::vector<StationSpec> ThreeStationSetup();

struct TestbedConfig {
  uint64_t seed = 1;
  QueueScheme scheme = QueueScheme::kFifo;
  std::vector<StationSpec> stations = ThreeStationSetup();
  WiredLink::Config wire;  // Defaults: 1 Gbit/s, 100 us one-way.
  int fifo_limit_packets = 1000;
  QdiscBackend::Config qdisc_backend;
  // Settings for the FQ-MAC / airtime backends (ablation switches live
  // here; `airtime_fairness` is overridden by `scheme`).
  MacQueueBackend::Config mac_backend;

  // Runtime invariant auditing (src/sim/audit.h). Defaults to on for
  // AIRFAIR_AUDIT builds or AIRFAIR_AUDIT=1 environments; the auditor then
  // sweeps every component's invariants, the packet-conservation ledger
  // included, on audit.interval cadence and, with audit.fatal (the default),
  // fails hard on the first violation. The auditor's interval can be
  // overridden at runtime with AIRFAIR_AUDIT_INTERVAL_MS (used by the
  // benches' spot-audit mode).
  bool audit = AuditEnabledByDefault();
  Auditor::Config audit_config;

  // Packet-lifecycle tracing + metrics timelines (src/obs). Off unless a
  // run opts in: AIRFAIR_TRACE=1, or one of the export paths
  // (AIRFAIR_TRACE_JSON / AIRFAIR_TIMESERIES_JSON) is set, or a test flips
  // this flag. When on, the Testbed owns a TraceBuffer, installs it as the
  // process's current buffer, arms the crash flight recorder, and samples
  // the timeseries every 10 ms of simulated time. Tracing never changes
  // simulation results (tests/obs_trace_test.cc holds this bit-identical).
  bool trace = TraceEnabledByDefault();
  TraceBuffer::Config trace_config;

  // Must stay true, 1 and zero: every Testbed pools its packets (the
  // conservation ledger counts in-flight packets through the pool), a run
  // is one event loop, and station hosts hand packets straight to their
  // MACs. The fields remain only because perfbench/src/workloads.cc assigns
  // them; the Testbed checks all three.
  bool packet_pool = true;
  int shards = 1;
  TimeUs host_bus_delay = TimeUs::Zero();
  // Fault-injection perturbation schedule (src/fault): station churn,
  // Gilbert-Elliott burst loss and rate fades, replayed as events on the
  // simulation's loop. Defaults to the AIRFAIR_FAULT_SCHEDULE environment
  // schedule; empty = no injection.
  FaultPlan faults = FaultPlanFromEnv();
  // Seed for the burst-loss chains. 0 = AIRFAIR_CHURN_SEED, falling back to
  // a derivation from `seed` (see ChurnSeedFromEnv).
  uint64_t churn_seed = 0;
};

class Testbed {
 public:
  explicit Testbed(const TestbedConfig& config);
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  Simulation& sim() { return sim_; }
  WifiMedium& medium() { return medium_; }
  AccessPoint& ap() { return *ap_; }
  const StationTable& stations() const { return station_table_; }
  int station_count() const { return static_cast<int>(wifi_stations_.size()); }

  Host* server_host() { return server_host_.get(); }
  Host* station_host(int i) { return station_hosts_[static_cast<size_t>(i)].get(); }
  WifiStation* wifi_station(int i) { return wifi_stations_[static_cast<size_t>(i)].get(); }

  uint32_t server_node() const { return 0; }
  uint32_t ap_node() const { return 1; }
  uint32_t station_node(int i) const { return 2 + static_cast<uint32_t>(i); }

  // Snapshots the airtime ledger; shares/indices are computed over airtime
  // used after this point (skipping warmup).
  void StartMeasurement();
  TimeUs measurement_start() const { return measurement_start_; }

  // Per-station airtime used since StartMeasurement, normalised to sum 1
  // over stations that used any airtime.
  std::vector<double> AirtimeShares() const;
  double JainAirtimeIndex() const;

  // Rate controller for an auto-rate station (nullptr otherwise).
  MinstrelRateControl* rate_control(StationId station) {
    return rate_controls_[static_cast<size_t>(station)].get();
  }

  // The invariant auditor, or nullptr when auditing is disabled.
  Auditor* auditor() { return auditor_.get(); }

  // The packet-conservation ledger; never null. The auditor sweeps it when
  // auditing is on; tests and perfbench tally it directly.
  PacketLedger* ledger() { return ledger_.get(); }

  // The lifecycle trace ring and metrics timelines, or nullptr when tracing
  // is disabled (TestbedConfig::trace).
  TraceBuffer* trace_buffer() { return trace_.get(); }
  Timeseries* timeseries() { return timeseries_.get(); }

  // The fault injector, or nullptr when the config carries no fault plan.
  FaultInjector* fault_injector() { return fault_.get(); }

 private:
  void BuildBackend(const TestbedConfig& config);
  void BuildLedger();
  void BuildAuditor(const TestbedConfig& config);
  void BuildTrace(const TestbedConfig& config);
  void BuildFault(const TestbedConfig& config);
  void ScheduleSample();
  void SampleTimeseries();
  void ExportTraceArtifacts();

  // TraceBuffer deliver sink (set_deliver_sink): feeds the per-station
  // latency accumulators at append time, O(1) per delivered packet.
  static void DeliverSinkThunk(void* ctx, const TraceRecord& rec);
  void OnDeliverRecord(const TraceRecord& rec) {
    if (rec.station >= 0 &&
        rec.station < static_cast<int32_t>(latency_accum_.size())) {
      latency_accum_[static_cast<size_t>(rec.station)].push_back(
          static_cast<double>(rec.a0));
    }
  }

  // Declared before sim_ on purpose: members destroy in reverse order, so
  // the pool outlives the event loop — closures still holding PacketPtrs
  // release them into a live pool. The pool's destructor checks that no
  // packet is outstanding.
  PacketPool packet_pool_;
  Simulation sim_;
  StationTable station_table_;
  WifiMedium medium_;
  std::unique_ptr<Host> server_host_;
  std::vector<std::unique_ptr<Host>> station_hosts_;
  std::vector<std::unique_ptr<WifiStation>> wifi_stations_;
  std::unique_ptr<AccessPoint> ap_;
  std::unique_ptr<WiredLink> link_;
  // Block-ack reorder buffers: one per receiving node (index 0..n-1 =
  // stations, last = AP).
  std::vector<std::unique_ptr<ReorderBuffer>> reorder_;
  std::vector<std::unique_ptr<MinstrelRateControl>> rate_controls_;
  std::unique_ptr<Auditor> auditor_;
  std::unique_ptr<PacketLedger> ledger_;
  // Non-owning over everything above (stations, AP, medium, reorder); holds
  // only bookkeeping of its own at destruction time.
  std::unique_ptr<FaultInjector> fault_;
  // Non-owning views of the backend for audit registration.
  MacQueueBackend* mac_backend_ = nullptr;
  QdiscBackend* qdisc_backend_ = nullptr;
  TimeUs measurement_start_;
  std::vector<TimeUs> airtime_baseline_;

  // --- observability (src/obs) ---
  // Declared last (destroyed first): the destructor uninstalls the
  // current buffer / flight recorder before trace_ itself is freed.
  // The sample timer is a detached self-reposting event that dies with the
  // loop, so no handle needs to outlive anything.
  std::unique_ptr<TraceBuffer> trace_;
  std::unique_ptr<Timeseries> timeseries_;
  TraceBuffer* prev_trace_ = nullptr;          // Restored on destruction.
  CheckFlightRecorder prev_flight_recorder_;   // Likewise.
  bool flight_recorder_installed_ = false;
  std::string run_label_;  // "<scheme> n=<stations> seed=<seed>" for exports.
  // Sampler state: a ring of airtime-ledger snapshots implementing the
  // sliding share window, per-station latency accumulators fed at trace
  // append time by the deliver sink (drained and re-used every sample
  // tick), and pre-reserved scratch (steady-state sampling performs no
  // allocation).
  std::vector<std::vector<TimeUs>> airtime_history_;
  size_t airtime_history_pos_ = 0;
  std::vector<std::vector<double>> latency_accum_;
  std::vector<double> share_scratch_;
  std::vector<double> jain_scratch_;
  // Registered series ids (setup-path; index = station).
  std::vector<int> airtime_series_;
  std::vector<int> latency_p50_series_;
  std::vector<int> latency_p95_series_;
  std::vector<int> latency_p99_series_;
  int jain_series_ = -1;
  int depth_series_ = -1;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_SCENARIO_TESTBED_H_
