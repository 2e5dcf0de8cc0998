// Experiment runners: each function reproduces one of the paper's evaluation
// workloads against a Testbed and returns the measured quantities. The bench
// binaries print them in the papers' table/figure formats; the integration
// tests assert the qualitative shapes.

#ifndef AIRFAIR_SRC_SCENARIO_EXPERIMENTS_H_
#define AIRFAIR_SRC_SCENARIO_EXPERIMENTS_H_

#include <vector>

#include "src/apps/emodel.h"
#include "src/apps/web.h"
#include "src/scenario/testbed.h"
#include "src/util/stats.h"

namespace airfair {

struct ExperimentTiming {
  TimeUs warmup = TimeUs::FromSeconds(3);
  TimeUs measure = TimeUs::FromSeconds(12);
};

// Shared per-station measurements.
struct StationMeasurements {
  std::vector<double> throughput_mbps;    // Downstream goodput per station.
  std::vector<double> airtime_share;      // Fraction of used airtime per station.
  std::vector<double> mean_aggregation;   // Mean A-MPDU size per station.
  std::vector<SampleSet> ping_rtt_ms;     // ICMP RTT samples per station.
  double jain_airtime = 0;                // Over stations carrying bulk traffic.
  double total_throughput_mbps = 0;
};

// --- One-way UDP saturation (Figure 5, Table 1 measured columns) ---
StationMeasurements RunUdpDownload(const TestbedConfig& config,
                                   const ExperimentTiming& timing = ExperimentTiming(),
                                   double offered_bps_per_station = 60e6);

// --- Bulk TCP (Figures 4, 6, 7, 9, 10) ---
struct TcpOptions {
  bool bidirectional = false;       // Simultaneous upload from every bulk station.
  std::vector<bool> bulk;           // Which stations receive bulk TCP; default: all.
  std::vector<bool> ping;           // Which stations are pinged; default: all.
};

StationMeasurements RunTcpDownload(const TestbedConfig& config,
                                   const ExperimentTiming& timing = ExperimentTiming(),
                                   const TcpOptions& options = TcpOptions());

// --- Sparse-station optimisation (Figure 8) ---
// Three bulk stations plus a fourth that only receives pings; airtime-fair
// scheme with the optimisation on or off.
struct SparseStationResult {
  SampleSet sparse_ping_rtt_ms;
};
SparseStationResult RunSparseStation(uint64_t seed, bool sparse_optimization, bool tcp_bulk,
                                     const ExperimentTiming& timing = ExperimentTiming());

// --- VoIP (Table 2) ---
struct VoipResult {
  double mos = 0;
  EModelInput quality;
  double total_throughput_mbps = 0;  // Sum of bulk goodput.
};
VoipResult RunVoip(QueueScheme scheme, uint64_t seed, bool vo_marking, TimeUs base_one_way_delay,
                   const ExperimentTiming& timing = ExperimentTiming());

// --- Web page-load time (Figure 11) ---
struct WebResult {
  double mean_plt_s = 0;
  int completed_fetches = 0;
};
// `slow_client` false: the fast station fetches while the slow station runs a
// bulk transfer (the paper's Figure 11). true: the slow station fetches while
// the fast stations run bulk transfers (the online-appendix variant).
WebResult RunWeb(QueueScheme scheme, uint64_t seed, const WebPage& page, bool slow_client,
                 TimeUs max_duration = TimeUs::FromSeconds(60), int max_fetches = 5);

// --- 30-station scaling setup (Figures 9-10) ---
// 28 rate-diverse fast stations + one 1 Mbit/s station, all with bulk TCP
// download, plus one ping-only station.
TestbedConfig ThirtyStationConfig(QueueScheme scheme, uint64_t seed);

// --- N-station scaling setup (fig_scale) ---
// The Figures 9-10 rate mix generalized to any station count: N-1 bulk
// stations cycling MCS {15, 12, 7, 4} plus one 1 Mbit/s legacy station.
// fig_scale sweeps this up to N=256 under saturating UDP; the dedicated
// 128/256-station tests drive it with audits + ledger conservation on.
TestbedConfig ScaleConfig(int stations, QueueScheme scheme, uint64_t seed);

}  // namespace airfair

#endif  // AIRFAIR_SRC_SCENARIO_EXPERIMENTS_H_
