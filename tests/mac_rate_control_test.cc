#include <gtest/gtest.h>

#include "src/mac/channel_model.h"
#include "src/mac/rate_control.h"
#include "src/net/udp.h"
#include "src/scenario/testbed.h"
#include "src/util/rng.h"

namespace airfair {
namespace {

using namespace time_literals;

TEST(ChannelModel, RequiredSnrRisesWithMcs) {
  for (int mcs = 1; mcs <= 7; ++mcs) {
    EXPECT_GT(RequiredSnrDb(mcs), RequiredSnrDb(mcs - 1));
  }
  // Second spatial stream needs more SNR at the same modulation.
  EXPECT_GT(RequiredSnrDb(8), RequiredSnrDb(0));
  EXPECT_GT(RequiredSnrDb(15), RequiredSnrDb(7));
}

TEST(ChannelModel, ErrorDropsWithSnr) {
  const int mcs = 7;
  double previous = 1.0;
  for (double snr = 0; snr <= 40; snr += 5) {
    const double p = MpduErrorProbability(snr, mcs);
    EXPECT_LE(p, previous);
    previous = p;
  }
}

TEST(ChannelModel, ErrorProbabilityIsAValidProbability) {
  for (int mcs = 0; mcs <= 15; ++mcs) {
    for (double snr = -10; snr <= 50; snr += 3) {
      const double p = MpduErrorProbability(snr, mcs);
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
}

TEST(ChannelModel, WaterfallShape) {
  // Well below the requirement: near-certain loss. Well above: the floor.
  EXPECT_GT(MpduErrorProbability(RequiredSnrDb(7) - 8, 7), 0.95);
  EXPECT_LT(MpduErrorProbability(RequiredSnrDb(7) + 8, 7), 0.02);
}

TEST(ChannelModel, BestMcsMatchesSnr) {
  // Very high SNR: the top rate. Very low: nothing works; middling: middle.
  EXPECT_EQ(BestMcsForSnr(45.0), 15);
  EXPECT_EQ(BestMcsForSnr(-20.0), -1);
  const int mid = BestMcsForSnr(15.0);
  EXPECT_GT(mid, 0);
  EXPECT_LT(mid, 15);
}

TEST(RateControl, StartsOptimisticAndProbes) {
  MinstrelRateControl control(1);
  // With no feedback everything has prob 1.0; the best pick is MCS 15.
  EXPECT_EQ(control.BestMcs(), 15);
}

TEST(RateControl, ConvergesToSustainableRate) {
  // Simulated feedback from a channel that only supports up to MCS 4.
  MinstrelRateControl control(2);
  Rng rng(3);
  for (int round = 0; round < 2000; ++round) {
    const int mcs = control.PickMcs();
    const double err = MpduErrorProbability(/*snr_db=*/15.0, mcs);
    int ok = 0;
    for (int f = 0; f < 16; ++f) {
      if (!rng.Chance(err)) {
        ++ok;
      }
    }
    control.ReportResult(mcs, 16, ok);
  }
  const int oracle = BestMcsForSnr(15.0);
  EXPECT_NEAR(control.BestMcs(), oracle, 1);
}

TEST(RateControl, AdaptsWhenChannelDegrades) {
  MinstrelRateControl control(4);
  Rng rng(5);
  auto run = [&](double snr, int rounds) {
    for (int round = 0; round < rounds; ++round) {
      const int mcs = control.PickMcs();
      const double err = MpduErrorProbability(snr, mcs);
      int ok = 0;
      for (int f = 0; f < 16; ++f) {
        if (!rng.Chance(err)) {
          ++ok;
        }
      }
      control.ReportResult(mcs, 16, ok);
    }
  };
  run(35.0, 1500);
  const int good = control.BestMcs();
  EXPECT_GE(good, 13);
  run(10.0, 1500);  // Station walks away from the AP.
  EXPECT_LT(control.BestMcs(), good - 3);
}

TEST(RateControl, BestRateTracksDelivery) {
  MinstrelRateControl control(6);
  // Everything fails except MCS 0 at 80%.
  for (int mcs = 1; mcs <= 15; ++mcs) {
    control.ReportResult(mcs, 100, 0);
  }
  control.ReportResult(0, 100, 80);
  EXPECT_EQ(control.BestMcs(), 0);
}

TEST(RateControl, IgnoresBogusFeedback) {
  MinstrelRateControl control(7);
  control.ReportResult(-1, 10, 5);
  control.ReportResult(20, 10, 5);
  control.ReportResult(3, 0, 0);
  EXPECT_EQ(control.BestMcs(), 15);  // Untouched.
}

TEST(RateControlIntegration, AutoRateStationConvergesInTestbed) {
  // An auto-rate station at generous SNR should end up near the top MCS and
  // carry high throughput; one at low SNR must settle low but still work.
  TestbedConfig config;
  config.seed = 21;
  config.scheme = QueueScheme::kAirtimeFair;
  config.stations = {AutoRateStation("near", 35.0), AutoRateStation("far", 12.0)};
  Testbed tb(config);
  std::vector<std::unique_ptr<UdpSink>> sinks;
  std::vector<std::unique_ptr<UdpSource>> sources;
  for (int i = 0; i < 2; ++i) {
    sinks.push_back(std::make_unique<UdpSink>(tb.station_host(i), 6001));
    UdpSource::Config src;
    src.rate_bps = 60e6;
    sources.push_back(
        std::make_unique<UdpSource>(tb.server_host(), tb.station_node(i), 6001, src));
    sources.back()->Start();
  }
  tb.sim().RunFor(10_s);
  EXPECT_GE(tb.rate_control(0)->BestMcs(), 12);
  const int far_mcs = tb.rate_control(1)->BestMcs();
  EXPECT_LE(far_mcs, BestMcsForSnr(12.0) + 1);
  EXPECT_GT(sinks[0]->packets_received(), sinks[1]->packets_received());
  EXPECT_GT(sinks[1]->packets_received(), 0);
}

TEST(RateControlIntegration, AdaptationSeesLiveEstimate) {
  // A far station whose Minstrel estimate lands under 12 Mbit/s should be
  // running the low-rate CoDel profile via the live rate-selection feed.
  TestbedConfig config;
  config.seed = 22;
  config.scheme = QueueScheme::kAirtimeFair;
  config.stations = {AutoRateStation("near", 35.0), AutoRateStation("far", 6.0)};
  Testbed tb(config);
  std::vector<std::unique_ptr<UdpSink>> sinks;
  std::vector<std::unique_ptr<UdpSource>> sources;
  for (int i = 0; i < 2; ++i) {
    sinks.push_back(std::make_unique<UdpSink>(tb.station_host(i), 6001));
    UdpSource::Config src;
    src.rate_bps = 40e6;
    sources.push_back(
        std::make_unique<UdpSource>(tb.server_host(), tb.station_node(i), 6001, src));
    sources.back()->Start();
  }
  tb.sim().RunFor(8_s);
  auto* backend = static_cast<MacQueueBackend*>(tb.ap().backend());
  EXPECT_FALSE(backend->adaptation().IsLowRate(0));
  EXPECT_TRUE(backend->adaptation().IsLowRate(1));
}

}  // namespace
}  // namespace airfair
