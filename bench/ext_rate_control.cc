// Extension experiment (beyond the paper's figures): dynamic rate selection.
//
// The paper's testbed pins station rates by placement; its 30-station test
// lets stations "select their rate in the usual way". Here every station
// runs the Minstrel-style controller against an SNR-based channel, and we
// verify the paper's core claims survive rate dynamics: the close station
// converges to a high MCS, the far station to a low one, the anomaly
// appears under FIFO and disappears under the airtime scheduler — with the
// per-station CoDel adaptation keying off the live rate-selection estimate.

#include <array>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/net/udp.h"

using namespace airfair;

namespace {

// Each station's BestMcs() is sampled every 100 ms of the measured window,
// and the table prints its modal MCS with the share of samples at it. At
// 8 dB MCS 1, 2 and 9 give nearly equal goodput, so the far station's best
// MCS at any one instant follows the RNG draws; its mode does not.
constexpr TimeUs kMcsSampleInterval = TimeUs::FromMilliseconds(100);
constexpr int kMcsCount = 16;
using McsCounts = std::array<std::array<int, kMcsCount>, 3>;

// Counts each station's current best MCS, then reposts itself while the
// next sample still falls inside the window ending at `end`.
struct McsSampler {
  Testbed* tb;
  McsCounts* counts;
  TimeUs end;
  void operator()() const {
    for (size_t i = 0; i < counts->size(); ++i) {
      ++(*counts)[i][static_cast<size_t>(tb->rate_control(static_cast<int>(i))->BestMcs())];
    }
    if (tb->sim().now() + kMcsSampleInterval <= end) {
      tb->sim().PostAfter(kMcsSampleInterval, *this);
    }
  }
};

struct RateControlResult {
  int mcs[3] = {0, 0, 0};          // Modal best MCS over the measured window.
  double mcs_share[3] = {0, 0, 0};  // Share of the samples at that MCS.
  double share[3] = {0, 0, 0};
  double tput[3] = {0, 0, 0};
  double total = 0;
};

RateControlResult RunRateControl(QueueScheme scheme) {
  TestbedConfig config;
  config.seed = 1500;
  config.scheme = scheme;
  config.stations = {AutoRateStation("near", 35.0), AutoRateStation("mid", 25.0),
                     AutoRateStation("far", 8.0)};
  Testbed tb(config);
  std::vector<std::unique_ptr<UdpSink>> sinks;
  std::vector<std::unique_ptr<UdpSource>> sources;
  for (int i = 0; i < 3; ++i) {
    sinks.push_back(std::make_unique<UdpSink>(tb.station_host(i), 6001));
    UdpSource::Config src;
    src.rate_bps = 60e6;
    sources.push_back(
        std::make_unique<UdpSource>(tb.server_host(), tb.station_node(i), 6001, src));
    sources.back()->Start();
  }
  // Let Minstrel converge before measuring.
  tb.sim().RunFor(TimeUs::FromSeconds(5));
  tb.StartMeasurement();
  for (auto& sink : sinks) {
    sink->StartMeasuring(tb.sim().now());
  }
  const TimeUs measure = TimeUs::FromSeconds(15);
  McsCounts counts{};
  tb.sim().PostAfter(kMcsSampleInterval, McsSampler{&tb, &counts, tb.sim().now() + measure});
  tb.sim().RunFor(measure);

  RateControlResult result;
  const auto shares = tb.AirtimeShares();
  for (int i = 0; i < 3; ++i) {
    const std::array<int, kMcsCount>& station = counts[static_cast<size_t>(i)];
    int samples = 0;
    for (int mcs = 0; mcs < kMcsCount; ++mcs) {
      const int n = station[static_cast<size_t>(mcs)];
      samples += n;
      if (n > station[static_cast<size_t>(result.mcs[i])]) {
        result.mcs[i] = mcs;
      }
    }
    result.mcs_share[i] =
        static_cast<double>(station[static_cast<size_t>(result.mcs[i])]) / samples;
    result.share[i] = shares[static_cast<size_t>(i)];
    result.tput[i] = static_cast<double>(sinks[static_cast<size_t>(i)]->measured_bytes()) * 8 /
                     measure.ToSeconds() / 1e6;
    result.total += result.tput[i];
  }
  return result;
}

}  // namespace

int main() {
  BenchReporter reporter("ext_rate_control");
  std::printf("Extension: airtime fairness under dynamic (Minstrel-style) rate control\n");
  std::printf("Stations at 35 / 25 / 8 dB SNR, saturating downstream UDP\n");
  PrintHeaderRule();
  std::printf("%-10s | %-27s | %-26s | %-23s | %s\n", "scheme", "modal MCS (share)",
              "airtime share", "throughput Mbps", "total");

  const std::vector<QueueScheme>& schemes = AllSchemes();
  // One cell per scheme, single repetition each.
  const auto results = RunSchemeRepetitions<RateControlResult>(
      static_cast<int>(schemes.size()), 1,
      [&](int cell, int /*rep*/) { return RunRateControl(schemes[static_cast<size_t>(cell)]); });

  for (size_t s = 0; s < schemes.size(); ++s) {
    const RateControlResult& r = results[s][0];
    std::printf(
        "%-10s | %2d %3.0f%% / %2d %3.0f%% / %2d %3.0f%% |  %5.1f%% %5.1f%% %5.1f%%      | %6.1f %6.1f "
        "%6.1f  | %5.1f\n",
        SchemeName(schemes[s]), r.mcs[0], 100 * r.mcs_share[0], r.mcs[1], 100 * r.mcs_share[1],
        r.mcs[2], 100 * r.mcs_share[2], 100 * r.share[0], 100 * r.share[1], 100 * r.share[2],
        r.tput[0], r.tput[1], r.tput[2], r.total);
  }
  std::printf("\nExpected: near/mid converge to high MCS, far to MCS0-2; the far station\n");
  std::printf("hogs airtime under FIFO/FQ-CoDel and is held to one third under Airtime.\n");
  return 0;
}
