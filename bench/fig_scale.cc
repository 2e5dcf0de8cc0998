// Scaling figure: the Figures 9-10 rate mix generalized to a station-count
// sweep (8 -> 64 -> 128 -> 256) under each queue-management scheme, all
// stations receiving saturating UDP (src/scenario/experiments.h,
// ScaleConfig).
//
// The interesting quantities are (a) that the qualitative fairness story
// survives scale — the airtime scheduler holds Jain near 1 and pins the
// 1 Mbit/s legacy station's airtime share at ~1/N while FIFO lets it
// dominate regardless of N — and (b) that the simulator itself stays fast
// enough to run 256 stations: the per-tick timeseries sampler, the DRR /
// retry bookkeeping and the station lookups are all O(1) per packet, so
// events per wall-second should degrade gently, not collapse, as N grows.
// CI pins the sweep to one point with AIRFAIR_SCALE_STATIONS=128 so the
// binary's BenchReporter record is stable, and bench_diff gates its
// events/s against the BENCH_figs.json baseline — the scaling floor.
//
// Offered load is split across stations (total ~480 Mbit/s, well above
// channel capacity at every N) so the source-side event rate stays constant
// across the sweep: the wall-time differences between the points measure
// the per-station costs, not a growing offered load.

#include <cstdio>

#include "bench/bench_util.h"

using namespace airfair;

namespace {

// Default sweep; AIRFAIR_SCALE_STATIONS=<N>, a whole number >= 2, pins it
// to a single point (CI uses 128 for a stable perf record).
std::vector<int> SweepStations() {
  const int pinned =
      static_cast<int>(EnvWholeNumber("AIRFAIR_SCALE_STATIONS", /*fallback=*/0, /*min=*/2));
  if (pinned > 0) {
    return {pinned};
  }
  return {8, 64, 128, 256};
}

// Total offered load held constant across the sweep; at N=8 this matches
// fig05's 60 Mbit/s per station.
double OfferedBpsPerStation(int stations) {
  return 480e6 / static_cast<double>(stations);
}

}  // namespace

int main() {
  BenchReporter reporter("fig_scale");
  std::printf("Scaling: station-count sweep under saturating UDP (mixed rates)\n");
  const ExperimentTiming timing = BenchTiming(8);
  const int reps = BenchRepetitions(2);
  const std::vector<QueueScheme>& schemes = AllSchemes();

  for (int stations : SweepStations()) {
    PrintHeaderRule();
    std::printf("N=%d stations (%d fast in an MCS {15,12,7,4} spread, 1 legacy)\n",
                stations, stations - 1);
    std::printf("%-10s %10s %8s %10s %10s\n", "scheme", "Mbit/s", "Jain",
                "fast-1", "slow");
    const auto results = RunSchemeRepetitions<StationMeasurements>(
        static_cast<int>(schemes.size()), reps, [&](int s, int rep) {
          const TestbedConfig config = ScaleConfig(
              stations, schemes[static_cast<size_t>(s)],
              610 + static_cast<uint64_t>(rep));
          return RunUdpDownload(config, timing, OfferedBpsPerStation(stations));
        });
    for (size_t s = 0; s < schemes.size(); ++s) {
      std::vector<double> mbps;
      std::vector<double> jain;
      std::vector<double> fast_share;
      std::vector<double> slow_share;
      for (const StationMeasurements& m : results[s]) {
        mbps.push_back(m.total_throughput_mbps);
        jain.push_back(m.jain_airtime);
        fast_share.push_back(m.airtime_share[0]);
        slow_share.push_back(m.airtime_share[static_cast<size_t>(stations) - 1]);
      }
      std::printf("%-10s %10.1f %8.3f %9.2f%% %9.2f%%\n",
                  SchemeName(schemes[s]), MedianOf(mbps), MedianOf(jain),
                  100 * MedianOf(fast_share), 100 * MedianOf(slow_share));
    }
  }
  std::printf(
      "\nFair share is 1/N, so per-station airtime percentages shrink with the\n"
      "sweep; the scheme comparison at each N is the figure. The [perf] record\n"
      "below is the scaling floor CI gates via bench_diff.\n");
  return 0;
}
