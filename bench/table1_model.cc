// Table 1: calculated airtime shares and rates from the analytical model
// (Section 2.2.1, Eqs. 1-5) next to the simulator's measured UDP throughput
// and mean aggregation sizes.
//
// The paper feeds the *measured* mean aggregation size into the model; we do
// the same, so both the "calculated" and "measured" columns regenerate.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/model/analytical.h"

using namespace airfair;

namespace {

void PrintSection(const char* title, const std::vector<ModelStation>& stations,
                  bool fairness, const StationMeasurements& measured) {
  std::printf("%s\n", title);
  std::printf("  %-10s %6s %8s %10s %8s %8s\n", "station", "aggr", "T(i)", "PHY Mbps",
              "R(i)", "Exp");
  const auto predictions = PredictStations(stations, fairness);
  for (size_t i = 0; i < stations.size(); ++i) {
    std::printf("  %-10s %6.2f %7.1f%% %10.1f %8.1f %8.1f\n",
                i == stations.size() - 1 ? "slow" : (i == 0 ? "fast-1" : "fast-2"),
                stations[i].aggregation_size, 100 * predictions[i].airtime_share,
                stations[i].rate.Mbps(), predictions[i].rate_mbps,
                measured.throughput_mbps[i]);
  }
  std::printf("  %-10s %6s %8s %10s %8.1f %8.1f\n", "total", "", "", "",
              TotalRateMbps(predictions), measured.total_throughput_mbps);
}

}  // namespace

int main() {
  BenchReporter reporter("table1_model");
  std::printf("Table 1: analytical model vs simulator (saturating downstream UDP)\n");
  std::printf("Paper values -- baseline: R(i)=9.7/11.4/5.1 Exp=7.1/6.3/5.3, total 26.4/18.7\n");
  std::printf("               airtime:  R(i)=42.2/42.3/2.2 Exp=38.8/35.6/2.0, total 86.8/76.4\n");
  PrintHeaderRule();

  const ExperimentTiming timing = BenchTiming(20);
  const int reps = BenchRepetitions(3);

  // Two cells (baseline, airtime) x reps.
  const auto all = RunSchemeRepetitions<StationMeasurements>(2, reps, [&](int cell, int rep) {
    TestbedConfig config;
    config.seed = 100 + static_cast<uint64_t>(rep);
    config.scheme = cell == 1 ? QueueScheme::kAirtimeFair : QueueScheme::kFifo;
    return RunUdpDownload(config, timing);
  });

  for (bool fairness : {false, true}) {
    // Median over repetitions of per-rep means, like the paper.
    std::vector<std::vector<double>> tput(3);
    std::vector<std::vector<double>> aggr(3);
    for (const StationMeasurements& m : all[fairness ? 1 : 0]) {
      for (int i = 0; i < 3; ++i) {
        tput[static_cast<size_t>(i)].push_back(m.throughput_mbps[static_cast<size_t>(i)]);
        aggr[static_cast<size_t>(i)].push_back(m.mean_aggregation[static_cast<size_t>(i)]);
      }
    }
    StationMeasurements median;
    median.throughput_mbps.resize(3);
    std::vector<ModelStation> stations(3);
    for (int i = 0; i < 3; ++i) {
      median.throughput_mbps[static_cast<size_t>(i)] = MedianOf(tput[static_cast<size_t>(i)]);
      median.total_throughput_mbps += median.throughput_mbps[static_cast<size_t>(i)];
      stations[static_cast<size_t>(i)].aggregation_size =
          MedianOf(aggr[static_cast<size_t>(i)]);
      stations[static_cast<size_t>(i)].packet_bytes = 1500;
      stations[static_cast<size_t>(i)].rate = i < 2 ? FastStationRate() : SlowStationRate();
    }
    PrintSection(fairness ? "Airtime fairness" : "Baseline (FIFO queue)", stations, fairness,
                 median);
    std::printf("\n");
  }

  // Also print the paper's exact calculated rows (fixed aggregation input),
  // demonstrating the model module reproduces Table 1 verbatim.
  std::printf("Model check with the paper's measured aggregation sizes:\n");
  const std::vector<ModelStation> paper_fifo = {{4.47, 1500, FastStationRate()},
                                                {5.08, 1500, FastStationRate()},
                                                {1.89, 1500, SlowStationRate()}};
  const std::vector<ModelStation> paper_fair = {{18.44, 1500, FastStationRate()},
                                                {18.52, 1500, FastStationRate()},
                                                {1.89, 1500, SlowStationRate()}};
  const auto fifo_pred = PredictStations(paper_fifo, false);
  const auto fair_pred = PredictStations(paper_fair, true);
  std::printf("  baseline R(i): %.1f %.1f %.1f (paper: 9.7 11.4 5.1), total %.1f (26.4)\n",
              fifo_pred[0].rate_mbps, fifo_pred[1].rate_mbps, fifo_pred[2].rate_mbps,
              TotalRateMbps(fifo_pred));
  std::printf("  airtime  R(i): %.1f %.1f %.1f (paper: 42.2 42.3 2.2), total %.1f (86.8)\n",
              fair_pred[0].rate_mbps, fair_pred[1].rate_mbps, fair_pred[2].rate_mbps,
              TotalRateMbps(fair_pred));
  return 0;
}
