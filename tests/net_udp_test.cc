#include "src/net/udp.h"

#include <gtest/gtest.h>

#include "src/net/wired_link.h"

namespace airfair {
namespace {

using namespace time_literals;

// Two hosts joined by a wired link.
class UdpTest : public ::testing::Test {
 protected:
  UdpTest() : sim_(3), a_(&sim_, 1), b_(&sim_, 2), link_(&sim_, LinkConfig()) {
    a_.set_egress([this](PacketPtr p) { link_.forward().Send(std::move(p)); });
    b_.set_egress([this](PacketPtr p) { link_.reverse().Send(std::move(p)); });
    link_.forward().set_deliver([this](PacketPtr p) { b_.Deliver(std::move(p)); });
    link_.reverse().set_deliver([this](PacketPtr p) { a_.Deliver(std::move(p)); });
  }

  static WiredLink::Config LinkConfig() {
    WiredLink::Config config;
    config.rate_bps = 100e6;
    config.one_way_delay = 2_ms;
    return config;
  }

  Simulation sim_;
  Host a_;
  Host b_;
  WiredLink link_;
};

TEST_F(UdpTest, CbrSourceHitsConfiguredRate) {
  UdpSink sink(&b_, 5000);
  UdpSource::Config config;
  config.rate_bps = 10e6;
  config.packet_bytes = 1250;
  UdpSource source(&a_, 2, 5000, config);
  source.Start();
  sim_.RunFor(10_s);
  // 10 Mbit/s for 10 s = 12.5 MB = 10000 packets of 1250 B.
  EXPECT_NEAR(static_cast<double>(sink.packets_received()), 10000.0, 20.0);
  EXPECT_EQ(sink.sequence_gaps(), 0);
}

TEST_F(UdpTest, StopHaltsTraffic) {
  UdpSink sink(&b_, 5000);
  UdpSource source(&a_, 2, 5000, UdpSource::Config());
  source.Start();
  sim_.RunFor(100_ms);
  source.Stop();
  const int64_t count = sink.packets_received();
  sim_.RunFor(1_s);
  // Whatever was in flight (queued on the link) arrives, then nothing more.
  EXPECT_LE(sink.packets_received() - count, 15);
}

TEST_F(UdpTest, SinkMeasuresOneWayDelay) {
  UdpSink sink(&b_, 5000);
  UdpSource::Config config;
  config.rate_bps = 1e6;
  UdpSource source(&a_, 2, 5000, config);
  source.Start();
  sim_.RunFor(1_s);
  // One-way delay = 2 ms propagation + 0.12 ms serialization.
  EXPECT_NEAR(sink.one_way_delay_ms().Median(), 2.12, 0.05);
}

TEST_F(UdpTest, StartMeasuringResetsCounters) {
  UdpSink sink(&b_, 5000);
  UdpSource::Config config;
  config.rate_bps = 12e6;  // = 1 packet/ms at 1500 B.
  UdpSource source(&a_, 2, 5000, config);
  source.Start();
  sim_.RunFor(1_s);
  sink.StartMeasuring(sim_.now());
  EXPECT_EQ(sink.measured_bytes(), 0);
  sim_.RunFor(1_s);
  EXPECT_NEAR(static_cast<double>(sink.measured_bytes()), 12e6 / 8, 12000);
  EXPECT_GT(sink.bytes_received(), sink.measured_bytes());
}

TEST_F(UdpTest, PingMeasuresRoundTrip) {
  PingSender::Config config;
  config.interval = 50_ms;
  PingSender ping(&a_, 2, config);
  ping.Start();
  sim_.RunFor(1_s);
  EXPECT_GE(ping.sent(), 19);
  EXPECT_GE(ping.received(), ping.sent() - 1);  // All answered (one may be in flight).
  // RTT = 2 * (2 ms + tiny serialization).
  EXPECT_NEAR(ping.rtt_ms().Median(), 4.0, 0.1);
}

TEST_F(UdpTest, PingStopCancelsPending) {
  PingSender ping(&a_, 2, PingSender::Config());
  ping.Start();
  sim_.RunFor(250_ms);
  ping.Stop();
  const int64_t sent = ping.sent();
  sim_.RunFor(1_s);
  EXPECT_EQ(ping.sent(), sent);
}

}  // namespace
}  // namespace airfair
