#include "src/scenario/testbed.h"

#include <gtest/gtest.h>

#include "src/net/udp.h"
#include "src/scenario/experiments.h"

namespace airfair {
namespace {

using namespace time_literals;

TEST(StationTable, NodeLookupRoundTrips) {
  StationTable table;
  const StationId a = table.Add({10, FastStationRate(), "a"});
  const StationId b = table.Add({11, SlowStationRate(), "b"});
  EXPECT_EQ(table.size(), 2);
  EXPECT_EQ(table.FromNode(10), a);
  EXPECT_EQ(table.FromNode(11), b);
  EXPECT_EQ(table.FromNode(99), kNoStation);
  EXPECT_EQ(table.Get(a).name, "a");
  table.GetMutable(b).rate = FastStationRate();
  EXPECT_NEAR(table.Get(b).rate.Mbps(), 144.4, 0.1);
}

TEST(TestbedSetup, SchemeNamesAreDistinct) {
  EXPECT_STREQ(SchemeName(QueueScheme::kFifo), "FIFO");
  EXPECT_STREQ(SchemeName(QueueScheme::kFqCodel), "FQ-CoDel");
  EXPECT_STREQ(SchemeName(QueueScheme::kFqMac), "FQ-MAC");
  EXPECT_STREQ(SchemeName(QueueScheme::kAirtimeFair), "Airtime");
}

TEST(TestbedSetup, ThreeStationSetupMatchesPaper) {
  const auto stations = ThreeStationSetup();
  ASSERT_EQ(stations.size(), 3u);
  EXPECT_NEAR(stations[0].rate.Mbps(), 144.4, 0.1);
  EXPECT_NEAR(stations[1].rate.Mbps(), 144.4, 0.1);
  EXPECT_NEAR(stations[2].rate.Mbps(), 7.2, 0.1);
}

TEST(TestbedSetup, ThirtyStationConfigMatchesSection415) {
  const TestbedConfig config = ThirtyStationConfig(QueueScheme::kAirtimeFair, 1);
  ASSERT_EQ(config.stations.size(), 30u);
  // 28 fast + one 1 Mbit/s legacy + one sparse fast station.
  EXPECT_NEAR(config.stations[28].rate.Mbps(), 1.0, 1e-9);
  EXPECT_FALSE(config.stations[28].rate.ht);
  EXPECT_TRUE(config.stations[29].rate.ht);
  int ht_count = 0;
  for (const auto& s : config.stations) {
    if (s.rate.ht) {
      ++ht_count;
    }
  }
  EXPECT_EQ(ht_count, 29);
}

class TestbedWiring : public ::testing::TestWithParam<QueueScheme> {};

TEST_P(TestbedWiring, DownlinkAndUplinkFlowEndToEnd) {
  TestbedConfig config;
  config.seed = 3;
  config.scheme = GetParam();
  Testbed tb(config);

  // Downlink: server -> station 0.
  UdpSink sink(tb.station_host(0), 6001);
  UdpSource::Config down;
  down.rate_bps = 5e6;
  UdpSource source(tb.server_host(), tb.station_node(0), 6001, down);
  source.Start();

  // Uplink: station 2 (slow) -> server.
  UdpSink up_sink(tb.server_host(), 6002);
  UdpSource::Config up;
  up.rate_bps = 1e6;
  UdpSource up_source(tb.station_host(2), tb.server_node(), 6002, up);
  up_source.Start();

  // Round trip: ping across the WiFi hop.
  PingSender ping(tb.server_host(), tb.station_node(1), PingSender::Config());
  ping.Start();

  tb.sim().RunFor(2_s);
  EXPECT_GT(sink.packets_received(), 700);
  EXPECT_GT(up_sink.packets_received(), 150);
  EXPECT_GT(ping.received(), 15);
}

TEST_P(TestbedWiring, AirtimeSharesNormalised) {
  TestbedConfig config;
  config.seed = 4;
  config.scheme = GetParam();
  Testbed tb(config);
  UdpSink sink(tb.station_host(0), 6001);
  UdpSource::Config down;
  down.rate_bps = 30e6;
  UdpSource source(tb.server_host(), tb.station_node(0), 6001, down);
  source.Start();
  tb.StartMeasurement();
  tb.sim().RunFor(1_s);
  const auto shares = tb.AirtimeShares();
  ASSERT_EQ(shares.size(), 3u);
  double total = 0;
  for (double s : shares) {
    total += s;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Only station 0 carried traffic.
  EXPECT_GT(shares[0], 0.99);
  EXPECT_DOUBLE_EQ(tb.JainAirtimeIndex(), JainFairnessIndex(shares));
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, TestbedWiring,
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

TEST(TestbedMeasurement, StartMeasurementExcludesWarmupAirtime) {
  TestbedConfig config;
  config.seed = 5;
  config.scheme = QueueScheme::kAirtimeFair;
  Testbed tb(config);
  // Warmup: only station 2 active, below its capacity so no backlog is
  // left behind when the source stops.
  UdpSink sink2(tb.station_host(2), 6001);
  UdpSource::Config cfg;
  cfg.rate_bps = 3e6;
  UdpSource warm(tb.server_host(), tb.station_node(2), 6001, cfg);
  warm.Start();
  tb.sim().RunFor(1_s);
  warm.Stop();
  tb.sim().RunFor(300_ms);  // Drain.
  tb.StartMeasurement();
  // Measurement: only station 0 active.
  UdpSink sink0(tb.station_host(0), 6001);
  UdpSource::Config cfg0;
  cfg0.rate_bps = 10e6;
  UdpSource measured(tb.server_host(), tb.station_node(0), 6001, cfg0);
  measured.Start();
  tb.sim().RunFor(1_s);
  const auto shares = tb.AirtimeShares();
  EXPECT_GT(shares[0], 0.95);  // Warmup airtime of station 2 excluded.
  EXPECT_LT(shares[2], 0.05);
}

TEST(TestbedScale, ScaleConfigBuildsMixedRateRoster) {
  const TestbedConfig config = ScaleConfig(256, QueueScheme::kAirtimeFair, 1);
  ASSERT_EQ(config.stations.size(), 256u);
  // 255 HT stations in the MCS {15,12,7,4} spread plus the 1 Mbit/s legacy.
  EXPECT_NEAR(config.stations[0].rate.Mbps(), 144.4, 0.1);
  EXPECT_NEAR(config.stations[255].rate.Mbps(), 1.0, 1e-9);
  EXPECT_FALSE(config.stations[255].rate.ht);
  int ht_count = 0;
  for (const auto& s : config.stations) {
    ht_count += s.rate.ht ? 1 : 0;
  }
  EXPECT_EQ(ht_count, 255);
}

TEST(TestbedScale, HundredTwentyEightStationsConserveUnderAudit) {
  // The scaling regime with every safety net on: 128 stations, saturating
  // downlink UDP, invariant auditor sweeping and the packet-conservation
  // ledger balancing. This drives the derived pool chunk size and the dense
  // station/TID indexes well past the 3- and 30-station sizes the other
  // tests use.
  TestbedConfig config = ScaleConfig(128, QueueScheme::kAirtimeFair, 9);
  config.audit = true;
  config.audit_config.interval = 50_ms;
  Testbed tb(config);
  ASSERT_NE(tb.auditor(), nullptr);
  ASSERT_NE(tb.ledger(), nullptr);
  std::vector<std::unique_ptr<UdpSink>> sinks;
  std::vector<std::unique_ptr<UdpSource>> sources;
  for (int i = 0; i < tb.station_count(); ++i) {
    sinks.push_back(std::make_unique<UdpSink>(tb.station_host(i), 6001));
    UdpSource::Config src;
    src.rate_bps = 2e6;
    sources.push_back(std::make_unique<UdpSource>(tb.server_host(),
                                                  tb.station_node(i), 6001, src));
    sources.back()->Start();
  }
  tb.StartMeasurement();
  tb.sim().RunFor(500_ms);
  EXPECT_EQ(tb.auditor()->RunChecksNow(), 0);
  EXPECT_GT(tb.auditor()->passes(), 0);
  const LedgerTallies tallies = tb.ledger()->Tally();
  EXPECT_EQ(tallies.Imbalance(), 0) << tallies.ToString();
  int served = 0;
  for (const auto& sink : sinks) {
    served += sink->packets_received() > 0 ? 1 : 0;
  }
  // The channel is saturated, so the deficit scheduler cannot have reached
  // everyone equally in half a second — but the broad roster must be served.
  EXPECT_GT(served, 100);
}

TEST(Experiments, UdpRunnerReportsAllFields) {
  TestbedConfig config;
  config.seed = 6;
  config.scheme = QueueScheme::kAirtimeFair;
  ExperimentTiming timing;
  timing.warmup = 500_ms;
  timing.measure = 2_s;
  const StationMeasurements m = RunUdpDownload(config, timing);
  EXPECT_EQ(m.throughput_mbps.size(), 3u);
  EXPECT_EQ(m.airtime_share.size(), 3u);
  EXPECT_EQ(m.mean_aggregation.size(), 3u);
  EXPECT_GT(m.total_throughput_mbps, 10.0);
  EXPECT_GT(m.jain_airtime, 0.5);
}

TEST(Experiments, TcpRunnerHonoursBulkAndPingMasks) {
  TestbedConfig config;
  config.seed = 7;
  config.scheme = QueueScheme::kFqMac;
  ExperimentTiming timing;
  timing.warmup = 500_ms;
  timing.measure = 2_s;
  TcpOptions options;
  options.bulk = {true, false, false};
  options.ping = {false, true, false};
  const StationMeasurements m = RunTcpDownload(config, timing, options);
  EXPECT_GT(m.throughput_mbps[0], 1.0);
  EXPECT_DOUBLE_EQ(m.throughput_mbps[1], 0.0);
  EXPECT_DOUBLE_EQ(m.throughput_mbps[2], 0.0);
  EXPECT_EQ(m.ping_rtt_ms[0].count(), 0u);
  EXPECT_GT(m.ping_rtt_ms[1].count(), 10u);
  EXPECT_EQ(m.ping_rtt_ms[2].count(), 0u);
}

}  // namespace
}  // namespace airfair
