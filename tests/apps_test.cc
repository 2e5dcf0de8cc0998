// Tests for the application models: E-model MOS, VoIP flows, web client.

#include <gtest/gtest.h>

#include "src/apps/emodel.h"
#include "src/apps/voip.h"
#include "src/apps/web.h"
#include "src/net/wired_link.h"

namespace airfair {
namespace {

using namespace time_literals;

TEST(EModel, PerfectConditionsGiveTopMos) {
  const double mos = EstimateMos({5.0, 0.5, 0.0});
  EXPECT_GT(mos, 4.3);
  EXPECT_LE(mos, 4.5);
}

TEST(EModel, MosIsBoundedBelowByOne) {
  EXPECT_DOUBLE_EQ(EstimateMos({3000.0, 100.0, 80.0}), 1.0);
}

TEST(EModel, DelayDegradesMos) {
  const double low = EstimateMos({20.0, 1.0, 0.0});
  const double mid = EstimateMos({200.0, 1.0, 0.0});
  const double high = EstimateMos({500.0, 1.0, 0.0});
  EXPECT_GT(low, mid);
  EXPECT_GT(mid, high);
}

TEST(EModel, LossDegradesMos) {
  const double clean = EstimateMos({50.0, 1.0, 0.0});
  const double lossy = EstimateMos({50.0, 1.0, 5.0});
  const double very_lossy = EstimateMos({50.0, 1.0, 20.0});
  EXPECT_GT(clean, lossy);
  EXPECT_GT(lossy, very_lossy);
}

TEST(EModel, JitterActsAsAddedDelay) {
  const double steady = EstimateMos({100.0, 0.0, 0.0});
  const double jittery = EstimateMos({100.0, 60.0, 0.0});
  EXPECT_GT(steady, jittery);
}

TEST(EModel, DelayPenaltyKicksInPast177ms) {
  // The Id slope increases sharply past 177.3 ms.
  const double d1 = EModelRFactor({150.0, 0.0, 0.0}) - EModelRFactor({170.0, 0.0, 0.0});
  const double d2 = EModelRFactor({180.0, 0.0, 0.0}) - EModelRFactor({200.0, 0.0, 0.0});
  EXPECT_GT(d2, d1 * 2);
}

TEST(EModel, RFactorMapping) {
  EXPECT_DOUBLE_EQ(MosFromRFactor(-5.0), 1.0);
  EXPECT_DOUBLE_EQ(MosFromRFactor(120.0), 4.5);
  EXPECT_NEAR(MosFromRFactor(93.2), 4.41, 0.03);  // Default R -> the paper's max.
  EXPECT_NEAR(MosFromRFactor(50.0), 2.6, 0.15);
}

class VoipTest : public ::testing::Test {
 protected:
  VoipTest() : sim_(9), a_(&sim_, 1), b_(&sim_, 2), link_(&sim_, LinkConfig()) {
    a_.set_egress([this](PacketPtr p) { link_.forward().Send(std::move(p)); });
    b_.set_egress([this](PacketPtr p) { link_.reverse().Send(std::move(p)); });
    link_.forward().set_deliver([this](PacketPtr p) { b_.Deliver(std::move(p)); });
    link_.reverse().set_deliver([this](PacketPtr p) { a_.Deliver(std::move(p)); });
  }
  static WiredLink::Config LinkConfig() {
    WiredLink::Config config;
    config.one_way_delay = 10_ms;
    return config;
  }
  Simulation sim_;
  Host a_;
  Host b_;
  WiredLink link_;
};

TEST_F(VoipTest, FiftyPacketsPerSecond) {
  VoipSink sink(&b_, 7000);
  VoipSource source(&a_, 2, 7000, VoipSource::Config());
  source.Start();
  sim_.RunFor(10_s);
  EXPECT_NEAR(static_cast<double>(sink.packets_received()), 500.0, 2.0);
}

TEST_F(VoipTest, CleanPathGivesExcellentQuality) {
  VoipSink sink(&b_, 7000);
  VoipSource source(&a_, 2, 7000, VoipSource::Config());
  source.Start();
  sim_.RunFor(10_s);
  const EModelInput q = sink.Quality();
  EXPECT_NEAR(q.one_way_delay_ms, 10.0, 0.5);
  EXPECT_LT(q.jitter_ms, 0.5);
  EXPECT_DOUBLE_EQ(q.packet_loss_pct, 0.0);
  EXPECT_GT(sink.Mos(), 4.3);
}

TEST_F(VoipTest, LossIsMeasuredFromSequenceSpan) {
  VoipSink sink(&b_, 7000);
  VoipSource source(&a_, 2, 7000, VoipSource::Config());
  // Drop every 5th packet.
  int count = 0;
  link_.forward().set_deliver([this, &count](PacketPtr p) {
    if (++count % 5 == 0) {
      return;
    }
    b_.Deliver(std::move(p));
  });
  source.Start();
  sim_.RunFor(10_s);
  EXPECT_NEAR(sink.Quality().packet_loss_pct, 20.0, 1.5);
  EXPECT_LT(sink.Mos(), 4.0);
}

TEST_F(VoipTest, StartMeasuringResetsQuality) {
  VoipSink sink(&b_, 7000);
  VoipSource source(&a_, 2, 7000, VoipSource::Config());
  source.Start();
  sim_.RunFor(1_s);
  sink.StartMeasuring(sim_.now());
  sim_.RunFor(2_s);
  // Only ~100 packets measured, all clean.
  EXPECT_NEAR(sink.Quality().packet_loss_pct, 0.0, 0.1);
  EXPECT_NEAR(sink.one_way_delay_ms().count(), 100, 3);
}

class WebTest : public ::testing::Test {
 protected:
  WebTest() : sim_(31), client_host_(&sim_, 1), server_host_(&sim_, 2),
              link_(&sim_, LinkConfig()) {
    client_host_.set_egress([this](PacketPtr p) { link_.forward().Send(std::move(p)); });
    server_host_.set_egress([this](PacketPtr p) { link_.reverse().Send(std::move(p)); });
    link_.forward().set_deliver([this](PacketPtr p) { server_host_.Deliver(std::move(p)); });
    link_.reverse().set_deliver([this](PacketPtr p) { client_host_.Deliver(std::move(p)); });
  }
  static WiredLink::Config LinkConfig() {
    WiredLink::Config config;
    config.rate_bps = 50e6;
    config.one_way_delay = 10_ms;
    return config;
  }
  Simulation sim_;
  Host client_host_;
  Host server_host_;
  WiredLink link_;
};

TEST_F(WebTest, SmallPageFetchCompletes) {
  WebServer server(&server_host_, 80);
  WebClient client(&client_host_, 2, 80, &server);
  TimeUs plt;
  bool done = false;
  client.Fetch(WebPage::Small(), [&](TimeUs t) {
    plt = t;
    done = true;
  });
  sim_.RunFor(30_s);
  ASSERT_TRUE(done);
  // 20 ms RTT path: DNS (1 RTT) + handshake (1 RTT) + request/response
  // rounds; must be far under a second and at least a few RTTs.
  EXPECT_GT(plt, 60_ms);
  EXPECT_LT(plt, 1_s);
  EXPECT_EQ(server.requests_served(), 3);
}

TEST_F(WebTest, LargePageTakesLongerThanSmall) {
  WebServer server(&server_host_, 80);
  WebClient client(&client_host_, 2, 80, &server);
  TimeUs small_plt;
  TimeUs large_plt;
  bool done = false;
  client.Fetch(WebPage::Small(), [&](TimeUs t) {
    small_plt = t;
    done = true;
  });
  sim_.RunFor(30_s);
  ASSERT_TRUE(done);
  done = false;
  client.Fetch(WebPage::Large(), [&](TimeUs t) {
    large_plt = t;
    done = true;
  });
  sim_.RunFor(60_s);
  ASSERT_TRUE(done);
  EXPECT_GT(large_plt, small_plt * 2);
  EXPECT_EQ(server.requests_served(), 3 + 110);
}

TEST_F(WebTest, SequentialFetchesWork) {
  WebServer server(&server_host_, 80);
  WebClient client(&client_host_, 2, 80, &server);
  int fetches = 0;
  std::function<void(TimeUs)> on_done = [&](TimeUs) { ++fetches; };
  client.Fetch(WebPage::Small(), on_done);
  sim_.RunFor(10_s);
  client.Fetch(WebPage::Small(), on_done);
  sim_.RunFor(10_s);
  EXPECT_EQ(fetches, 2);
}

TEST_F(WebTest, PageModelsMatchPaper) {
  EXPECT_EQ(WebPage::Small().total_bytes, 56 * 1024);   // "56 KB data in three requests"
  EXPECT_EQ(WebPage::Small().requests, 3);
  EXPECT_EQ(WebPage::Large().total_bytes, 3 * 1024 * 1024);  // "3 MB data in 110 requests"
  EXPECT_EQ(WebPage::Large().requests, 110);
}

}  // namespace
}  // namespace airfair
