// The benchmark's three workloads and the scheme cell that runs one of them
// under one queueing scheme. Everything is built from the simulator's public
// API; counters are read through public getters once the run has finished.

#ifndef AIRFAIR_PERFBENCH_SRC_WORKLOADS_H_
#define AIRFAIR_PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/timing.h"
#include "src/scenario/testbed.h"
#include "src/util/stats.h"

namespace perfbench {

enum class WorkloadId { kUdpOverload, kTcpLatency, kChurnObserved };

// Returns false for an unknown name.
bool ParseWorkload(const std::string& name, WorkloadId* out);

// Short metric-name suffix of a scheme: fifo, fq_codel, fq_mac, airtime.
const char* CellName(airfair::QueueScheme scheme);

struct CellOptions {
  // Install the timing decorators (requires program_trace == false: the
  // testbed's sampler reads the backend it built, which the swap destroys).
  bool decorate = false;
  // The testbed's own lifecycle trace and timeseries sampler
  // (TestbedConfig::trace). Defaults to what the workload specifies.
  bool program_trace = false;
  // Multiplies the simulated warmup and measurement lengths (self-test).
  double sim_scale = 1.0;
};

// True when the workload runs with the program's trace on.
bool WorkloadTracesByDefault(WorkloadId workload);

// Seed of the run's input number `input`: every input is derived from the
// run's seed.
uint64_t InputSeed(uint64_t seed, int input);

struct CellResult {
  // Host time.
  double setup_s = 0;  // Testbed construction plus app wiring.
  double run_s = 0;    // Event-loop time over warmup + measurement.
  double sim_s = 0;    // Simulated seconds run.

  // Event core.
  int64_t events = 0;
  int64_t scheduled = 0;
  int64_t detached = 0;
  int64_t tokens_created = 0;

  // Simulated outputs: per-station delivered bytes (whole run) and the ping
  // RTT samples of the measurement window, pooled over pinged stations.
  std::vector<int64_t> delivered_bytes;
  std::vector<double> ping_sum_ms;
  std::vector<int64_t> ping_count;
  airfair::SampleSet rtts;  // Sorted.
  double ping_p50_ms = 0;
  double ping_p99_ms = 0;
  int64_t ping_samples = 0;
  double jain = 0;          // Airtime Jain index of the measurement window.
  double goodput_mbps = 0;  // Measurement-window goodput, all stations.
  int64_t ledger_imbalance = 0;

  // mac
  int64_t mac_tx = 0;
  int64_t mac_collisions = 0;
  int64_t mac_mpdu_errors = 0;
  double air_busy_s = 0;
  double ampdu_mpdus = 0;  // MPDUs over all recorded aggregates.
  int64_t ampdu_count = 0;
  int64_t retry_drops = 0;

  // net
  int64_t packets = 0;
  int64_t pool_chunks = 0;
  int64_t tcp_retransmits = 0;
  int64_t tcp_timeouts = 0;
  int64_t link_drops = 0;

  // obs
  int64_t obs_records = 0;
  int64_t obs_overwritten = 0;

  // fault
  int64_t fault_leaves = 0;
  int64_t fault_joins = 0;
  int64_t drained = 0;

  // Queueing layer drop counters: core (MacQueues) or aqm (the qdisc).
  int64_t overflow_drops = 0;
  int64_t codel_drops = 0;

  bool decorated = false;
  SeamTimings seams;
};

CellResult RunCell(WorkloadId workload, airfair::QueueScheme scheme, uint64_t seed,
                   const CellOptions& options);

// Host seconds to construct the cell's Testbed and wire its apps, without
// running it.
double TimeSetup(WorkloadId workload, airfair::QueueScheme scheme, uint64_t seed,
                 const CellOptions& options);

// 64-bit FNV-1a over the per-station delivered bytes and ping-sample sums
// and counts (the model outputs; event counts are reported beside it).
uint64_t ModelHash(const CellResult& cell);

}  // namespace perfbench

#endif  // AIRFAIR_PERFBENCH_SRC_WORKLOADS_H_
