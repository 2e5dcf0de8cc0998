// Ablation study for the design choices the paper calls out in Section 3.2:
//
//   (a) RX airtime accounting (improvement #2 over the DTT scheduler):
//       bidirectional fairness with and without charging received airtime.
//   (b) The sparse-station optimisation (improvement #3): Figure 8's knob.
//   (c) The DRR quantum: fairness is insensitive to it (deficit scheduling),
//       but latency shifts with scheduling granularity.
//   (d) Per-station CoDel adaptation (Section 3.1.1): the slow station's
//       loss/latency trade-off with and without the low-rate profile.

#include <cstdio>

#include "bench/bench_util.h"

using namespace airfair;

int main() {
  BenchReporter reporter("ablation_scheduler");
  const ExperimentTiming timing = BenchTiming(15);
  const int reps = BenchRepetitions(3);

  std::printf("Ablation (a): RX airtime accounting under bidirectional TCP\n");
  PrintHeaderRule();
  {
    // Cells: rx {true, false}.
    const auto results = RunSchemeRepetitions<double>(2, reps, [&](int cell, int rep) {
      TestbedConfig config;
      config.seed = 1100 + static_cast<uint64_t>(rep);
      config.scheme = QueueScheme::kAirtimeFair;
      config.mac_backend.rx_airtime_accounting = cell == 0;
      TcpOptions options;
      options.bidirectional = true;
      return RunTcpDownload(config, timing, options).jain_airtime;
    });
    for (int cell = 0; cell < 2; ++cell) {
      std::printf("  rx accounting %-8s Jain = %.3f\n", cell == 0 ? "ON" : "OFF",
                  MedianOf(results[static_cast<size_t>(cell)]));
    }
  }

  std::printf("\nAblation (b): sparse-station optimisation (median sparse RTT)\n");
  PrintHeaderRule();
  {
    const auto results = RunSchemeRepetitions<double>(2, reps, [&](int cell, int rep) {
      const SparseStationResult r = RunSparseStation(
          1200 + static_cast<uint64_t>(rep), /*sparse=*/cell == 0, /*tcp_bulk=*/true, timing);
      return r.sparse_ping_rtt_ms.Median();
    });
    for (int cell = 0; cell < 2; ++cell) {
      std::printf("  optimisation %-8s median RTT = %.2f ms\n", cell == 0 ? "ON" : "OFF",
                  MedianOf(results[static_cast<size_t>(cell)]));
    }
  }

  std::printf("\nAblation (c): airtime DRR quantum sweep (UDP, airtime scheme)\n");
  PrintHeaderRule();
  std::printf("  %10s %8s %12s\n", "quantum us", "Jain", "total Mbps");
  {
    const std::vector<int64_t> quanta = {1000, 2000, 4000, 8000, 16000};
    const auto results = RunSchemeRepetitions<StationMeasurements>(
        static_cast<int>(quanta.size()), reps, [&](int cell, int rep) {
          TestbedConfig config;
          config.seed = 1300 + static_cast<uint64_t>(rep);
          config.scheme = QueueScheme::kAirtimeFair;
          config.mac_backend.scheduler.quantum_us = quanta[static_cast<size_t>(cell)];
          return RunUdpDownload(config, timing);
        });
    for (size_t q = 0; q < quanta.size(); ++q) {
      std::vector<double> jain;
      std::vector<double> total;
      for (const StationMeasurements& m : results[q]) {
        jain.push_back(m.jain_airtime);
        total.push_back(m.total_throughput_mbps);
      }
      std::printf("  %10lld %8.3f %12.2f\n", static_cast<long long>(quanta[q]),
                  MedianOf(jain), MedianOf(total));
    }
  }

  std::printf("\nAblation (d): per-station CoDel adaptation (slow station, TCP download)\n");
  PrintHeaderRule();
  {
    const auto results =
        RunSchemeRepetitions<StationMeasurements>(2, reps, [&](int cell, int rep) {
          TestbedConfig config;
          config.seed = 1400 + static_cast<uint64_t>(rep);
          config.scheme = QueueScheme::kAirtimeFair;
          config.mac_backend.codel_adaptation = cell == 0;
          return RunTcpDownload(config, timing);
        });
    for (int cell = 0; cell < 2; ++cell) {
      std::vector<double> slow_tput;
      std::vector<double> slow_rtt;
      for (const StationMeasurements& m : results[static_cast<size_t>(cell)]) {
        slow_tput.push_back(m.throughput_mbps[2]);
        slow_rtt.push_back(m.ping_rtt_ms[2].Median());
      }
      std::printf("  adaptation %-8s slow tput = %.2f Mbit/s, slow median RTT = %.1f ms\n",
                  cell == 0 ? "ON" : "OFF", MedianOf(slow_tput), MedianOf(slow_rtt));
    }
  }
  return 0;
}
