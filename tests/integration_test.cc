// End-to-end integration tests: the paper's qualitative results must hold on
// the full simulated testbed. Durations are kept short (a few simulated
// seconds); the bench binaries run the full-length versions.

#include <gtest/gtest.h>

#include <vector>

#include "bench/bench_util.h"
#include "src/net/udp.h"
#include "src/scenario/experiments.h"
#include "src/scenario/testbed.h"

namespace airfair {
namespace {

using namespace time_literals;

ExperimentTiming ShortTiming() {
  ExperimentTiming timing;
  timing.warmup = 2_s;
  timing.measure = 6_s;
  return timing;
}

// Bufferbloat under TCP develops on CUBIC's ramp-up timescale; experiments
// that depend on a fully-developed standing queue need longer runs.
ExperimentTiming TcpTiming() {
  ExperimentTiming timing;
  timing.warmup = 5_s;
  timing.measure = 20_s;
  return timing;
}

TEST(Integration, UdpAnomalyExistsUnderFifo) {
  TestbedConfig config;
  config.seed = 1;
  config.scheme = QueueScheme::kFifo;
  const StationMeasurements m = RunUdpDownload(config, ShortTiming());
  // The slow station hogs the medium (paper: ~80%; we allow a broad band).
  EXPECT_GT(m.airtime_share[2], 0.6);
  EXPECT_LT(m.airtime_share[0], 0.25);
}

TEST(Integration, UdpAirtimeFairnessIsNearPerfect) {
  TestbedConfig config;
  config.seed = 1;
  config.scheme = QueueScheme::kAirtimeFair;
  const StationMeasurements m = RunUdpDownload(config, ShortTiming());
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(m.airtime_share[i], 1.0 / 3.0, 0.02) << "station " << i;
  }
  EXPECT_GT(m.jain_airtime, 0.99);
}

TEST(Integration, UdpThroughputGainMatchesPaperShape) {
  // Paper Table 1: eliminating the anomaly raises total UDP throughput by
  // up to 5x (18.7 -> 76.4 measured).
  TestbedConfig fifo;
  fifo.seed = 2;
  fifo.scheme = QueueScheme::kFifo;
  TestbedConfig fair = fifo;
  fair.scheme = QueueScheme::kAirtimeFair;
  const double fifo_total = RunUdpDownload(fifo, ShortTiming()).total_throughput_mbps;
  const double fair_total = RunUdpDownload(fair, ShortTiming()).total_throughput_mbps;
  EXPECT_GT(fair_total / fifo_total, 3.0);
}

TEST(Integration, UdpAirtimeThroughputMatchesAnalyticalModel) {
  // With ~equal airtime shares, fast stations should land near the model's
  // R(i) = T(i) * R(n_i, l_i, r_i) prediction (Table 1: 42.2 Mbit/s with
  // n=18.4; our CoDel settles at larger aggregates, so allow 35-55).
  TestbedConfig config;
  config.seed = 3;
  config.scheme = QueueScheme::kAirtimeFair;
  const StationMeasurements m = RunUdpDownload(config, ShortTiming());
  EXPECT_GT(m.throughput_mbps[0], 35.0);
  EXPECT_LT(m.throughput_mbps[0], 55.0);
  EXPECT_NEAR(m.throughput_mbps[2], 2.2, 0.8);  // Slow station.
}

TEST(Integration, FqMacSharesQueueSpaceAndRestoresAggregation) {
  // Section 4.1.2: drop-from-longest-queue shares the queueing space, so
  // fast stations regain aggregation that FIFO denies them.
  TestbedConfig fifo;
  fifo.seed = 4;
  fifo.scheme = QueueScheme::kFifo;
  TestbedConfig fqmac = fifo;
  fqmac.scheme = QueueScheme::kFqMac;
  const StationMeasurements m_fifo = RunUdpDownload(fifo, ShortTiming());
  const StationMeasurements m_fqmac = RunUdpDownload(fqmac, ShortTiming());
  EXPECT_GT(m_fqmac.mean_aggregation[0], 3 * m_fifo.mean_aggregation[0]);
  // The slow station's aggregation is TXOP-limited (~2) in both.
  EXPECT_NEAR(m_fqmac.mean_aggregation[2], 2.0, 0.4);
}

TEST(Integration, TcpLatencyOrderOfMagnitudeReduction) {
  // Figure 1/4: FIFO shows hundreds of ms under load; the FQ-MAC
  // restructuring cuts it by an order of magnitude.
  TestbedConfig fifo;
  fifo.seed = 5;
  fifo.scheme = QueueScheme::kFifo;
  TestbedConfig fqmac = fifo;
  fqmac.scheme = QueueScheme::kFqMac;
  const StationMeasurements m_fifo = RunTcpDownload(fifo, TcpTiming());
  const StationMeasurements m_fqmac = RunTcpDownload(fqmac, TcpTiming());
  EXPECT_GT(m_fifo.ping_rtt_ms[0].Median(), 50.0);
  EXPECT_LT(m_fqmac.ping_rtt_ms[0].Median(), m_fifo.ping_rtt_ms[0].Median() / 2);
  EXPECT_LT(m_fqmac.ping_rtt_ms[2].Median(), 60.0);
}

TEST(Integration, TcpJainOrderingMatchesFigure6) {
  // Figure 6 (TCP download): Airtime >> FQ-MAC/FIFO, and Airtime near 1.
  ExperimentTiming timing = TcpTiming();
  auto jain = [&](QueueScheme scheme) {
    TestbedConfig config;
    config.seed = 6;
    config.scheme = scheme;
    return RunTcpDownload(config, timing).jain_airtime;
  };
  const double j_fifo = jain(QueueScheme::kFifo);
  const double j_air = jain(QueueScheme::kAirtimeFair);
  EXPECT_GT(j_air, 0.9);
  EXPECT_GT(j_air, j_fifo + 0.15);
}

TEST(Integration, TcpAirtimeRaisesTotalThroughput) {
  TestbedConfig fifo;
  fifo.seed = 7;
  fifo.scheme = QueueScheme::kFifo;
  TestbedConfig fair = fifo;
  fair.scheme = QueueScheme::kAirtimeFair;
  const double t_fifo = RunTcpDownload(fifo, ShortTiming()).total_throughput_mbps;
  const double t_fair = RunTcpDownload(fair, ShortTiming()).total_throughput_mbps;
  EXPECT_GT(t_fair, t_fifo);
}

TEST(Integration, BidirectionalTrafficStillNearFair) {
  // Figure 6: a slight dip for bidirectional TCP, but still high because
  // received airtime is accounted against the deficits.
  TestbedConfig config;
  config.seed = 8;
  config.scheme = QueueScheme::kAirtimeFair;
  TcpOptions options;
  options.bidirectional = true;
  const StationMeasurements m = RunTcpDownload(config, ShortTiming(), options);
  EXPECT_GT(m.jain_airtime, 0.8);
}

TEST(Integration, InKernelAirtimeEstimateMatchesGroundTruth) {
  // Section 4.1.5: the in-kernel airtime measurement agrees with the
  // capture-based one within 1.5% on average.
  TestbedConfig config;
  config.seed = 9;
  config.scheme = QueueScheme::kAirtimeFair;
  Testbed tb(config);
  // Saturating UDP downstream plus some upstream pings for RX airtime.
  std::vector<std::unique_ptr<UdpSink>> sinks;
  std::vector<std::unique_ptr<UdpSource>> sources;
  for (int i = 0; i < 3; ++i) {
    sinks.push_back(std::make_unique<UdpSink>(tb.station_host(i), 6001));
    UdpSource::Config src;
    src.rate_bps = 50e6;
    sources.push_back(
        std::make_unique<UdpSource>(tb.server_host(), tb.station_node(i), 6001, src));
    sources.back()->Start();
  }
  tb.sim().RunFor(8_s);
  for (int i = 0; i < 3; ++i) {
    const double truth = tb.medium().AirtimeUsed(i).ToSeconds();
    const double estimate = tb.ap().EstimatedAirtime(i).ToSeconds();
    ASSERT_GT(truth, 0.0);
    EXPECT_NEAR(estimate / truth, 1.0, 0.015) << "station " << i;
  }
}

TEST(Integration, SparseStationOptimisationReducesLatency) {
  // Figure 8: a consistent median-latency reduction for the ping-only
  // station when the optimisation is on.
  const SampleSet with_opt =
      RunSparseStation(10, /*sparse_optimization=*/true, /*tcp_bulk=*/true, ShortTiming())
          .sparse_ping_rtt_ms;
  const SampleSet without_opt =
      RunSparseStation(10, /*sparse_optimization=*/false, /*tcp_bulk=*/true, ShortTiming())
          .sparse_ping_rtt_ms;
  ASSERT_GT(with_opt.count(), 20u);
  ASSERT_GT(without_opt.count(), 20u);
  EXPECT_LT(with_opt.Median(), without_opt.Median());
}

TEST(Integration, VoipBestEffortMatchesVoiceUnderOurSchemes) {
  // Table 2's key claim: FQ-MAC and Airtime reach VO-grade MOS even with
  // best-effort marking, while FIFO needs the VO queue.
  const TimeUs base = 5_ms;
  const VoipResult fifo_vo = RunVoip(QueueScheme::kFifo, 11, true, base, TcpTiming());
  const VoipResult fifo_be = RunVoip(QueueScheme::kFifo, 11, false, base, TcpTiming());
  const VoipResult air_vo = RunVoip(QueueScheme::kAirtimeFair, 11, true, base, TcpTiming());
  const VoipResult air_be = RunVoip(QueueScheme::kAirtimeFair, 11, false, base, TcpTiming());
  EXPECT_GT(fifo_vo.mos, fifo_be.mos + 0.3);  // FIFO: marking matters.
  EXPECT_NEAR(air_vo.mos, air_be.mos, 0.1);   // Airtime: marking irrelevant.
  EXPECT_GT(air_be.mos, 4.2);
  EXPECT_GT(air_be.mos, fifo_be.mos);
}

TEST(Integration, VoipAirtimeGivesHighestTotalThroughput) {
  const VoipResult fifo = RunVoip(QueueScheme::kFifo, 12, false, 5_ms, ShortTiming());
  const VoipResult air = RunVoip(QueueScheme::kAirtimeFair, 12, false, 5_ms, ShortTiming());
  EXPECT_GT(air.total_throughput_mbps, fifo.total_throughput_mbps * 0.8);
  EXPECT_GT(air.total_throughput_mbps, 30.0);
}

TEST(Integration, WebPageLoadTimeOrdering) {
  // Figure 11: fetch times decrease from FIFO (slowest) to airtime-fair FQ.
  const WebResult fifo = RunWeb(QueueScheme::kFifo, 13, WebPage::Small(), false, 60_s, 3);
  const WebResult air =
      RunWeb(QueueScheme::kAirtimeFair, 13, WebPage::Small(), false, 60_s, 3);
  ASSERT_GT(fifo.completed_fetches, 0);
  ASSERT_GT(air.completed_fetches, 0);
  EXPECT_LT(air.mean_plt_s, fifo.mean_plt_s);
  // Order-of-magnitude improvement from fixing bufferbloat.
  EXPECT_GT(fifo.mean_plt_s / air.mean_plt_s, 5.0);
}

TEST(Integration, ThirtyStationScalingShape) {
  // Section 4.1.5 (figures 9-10), scaled down in duration: the 1 Mbit/s
  // station grabs most of the airtime under FQ-CoDel; the airtime scheduler
  // equalises all 29 bulk stations and multiplies total throughput.
  ExperimentTiming timing;
  timing.warmup = 2_s;
  timing.measure = 5_s;
  TcpOptions options;
  options.bulk.assign(30, true);
  options.bulk[29] = false;  // Ping-only station.
  options.ping.assign(30, false);
  options.ping[29] = true;
  const StationMeasurements fq =
      RunTcpDownload(ThirtyStationConfig(QueueScheme::kFqCodel, 14), timing, options);
  const StationMeasurements air =
      RunTcpDownload(ThirtyStationConfig(QueueScheme::kAirtimeFair, 14), timing, options);
  EXPECT_GT(fq.airtime_share[28], 0.4);   // The slow station hogs the air...
  EXPECT_LT(air.airtime_share[28], 0.1);  // ...until the scheduler stops it.
  EXPECT_GT(air.jain_airtime, 0.9);
  EXPECT_GT(air.total_throughput_mbps / fq.total_throughput_mbps, 1.7);
}

TEST(Integration, SchemesAreDeterministicPerSeed) {
  TestbedConfig config;
  config.seed = 15;
  config.scheme = QueueScheme::kAirtimeFair;
  ExperimentTiming timing;
  timing.warmup = 1_s;
  timing.measure = 2_s;
  const StationMeasurements a = RunUdpDownload(config, timing);
  const StationMeasurements b = RunUdpDownload(config, timing);
  EXPECT_EQ(a.throughput_mbps, b.throughput_mbps);
  EXPECT_EQ(a.airtime_share, b.airtime_share);
}

// The benches' grid runner: every (scheme, rep) cell runs once, scheme-major,
// and its result lands at out[scheme][rep].
TEST(Integration, BenchGridRunsEveryCellInOrder) {
  std::vector<int> calls;
  const auto out = RunSchemeRepetitions<int>(3, 4, [&](int scheme, int rep) {
    calls.push_back(scheme * 100 + rep);
    return scheme * 100 + rep;
  });
  std::vector<int> expected;
  ASSERT_EQ(out.size(), 3u);
  for (int s = 0; s < 3; ++s) {
    ASSERT_EQ(out[static_cast<size_t>(s)].size(), 4u);
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(out[static_cast<size_t>(s)][static_cast<size_t>(r)], s * 100 + r);
      expected.push_back(s * 100 + r);
    }
  }
  EXPECT_EQ(calls, expected);
}

class SchemeConservationTest : public ::testing::TestWithParam<QueueScheme> {};

TEST_P(SchemeConservationTest, NoPacketInflation) {
  // Property: no scheme may deliver more bytes than were offered, and the
  // airtime shares must sum to one.
  TestbedConfig config;
  config.seed = 16;
  config.scheme = GetParam();
  ExperimentTiming timing;
  timing.warmup = 1_s;
  timing.measure = 4_s;
  const double offered = 30e6;
  const StationMeasurements m = RunUdpDownload(config, timing, offered);
  double share_total = 0;
  for (int i = 0; i < 3; ++i) {
    EXPECT_LE(m.throughput_mbps[i], offered / 1e6 * 1.02) << "station " << i;
    share_total += m.airtime_share[i];
  }
  EXPECT_NEAR(share_total, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeConservationTest,
                         ::testing::Values(QueueScheme::kFifo, QueueScheme::kFqCodel,
                                           QueueScheme::kFqMac, QueueScheme::kAirtimeFair),
                         [](const auto& suite_info) {
                           switch (suite_info.param) {
                             case QueueScheme::kFifo:
                               return "Fifo";
                             case QueueScheme::kFqCodel:
                               return "FqCodel";
                             case QueueScheme::kFqMac:
                               return "FqMac";
                             case QueueScheme::kAirtimeFair:
                               return "Airtime";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace airfair
