#include "src/net/tcp.h"

#include <gtest/gtest.h>

#include "src/net/wired_link.h"
#include "src/util/rng.h"

namespace airfair {
namespace {

using namespace time_literals;

// Two hosts over a configurable wired link, with optional random loss
// injected in the forward (data) direction.
class TcpTest : public ::testing::Test {
 protected:
  void Build(double rate_bps, TimeUs delay, double forward_loss = 0.0,
             int queue_packets = 100) {
    WiredLink::Config config;
    config.rate_bps = rate_bps;
    config.one_way_delay = delay;
    config.max_queue_packets = queue_packets;
    link_ = std::make_unique<WiredLink>(&sim_, config);
    client_ = std::make_unique<Host>(&sim_, 1);
    server_ = std::make_unique<Host>(&sim_, 2);
    client_->set_egress([this](PacketPtr p) { link_->forward().Send(std::move(p)); });
    server_->set_egress([this](PacketPtr p) { link_->reverse().Send(std::move(p)); });
    link_->forward().set_deliver([this, forward_loss](PacketPtr p) {
      if (forward_loss > 0 && loss_rng_.Chance(forward_loss)) {
        return;
      }
      server_->Deliver(std::move(p));
    });
    link_->reverse().set_deliver([this](PacketPtr p) { client_->Deliver(std::move(p)); });
  }

  Simulation sim_{17};
  Rng loss_rng_{55};
  std::unique_ptr<WiredLink> link_;
  std::unique_ptr<Host> client_;
  std::unique_ptr<Host> server_;
};

TEST_F(TcpTest, HandshakeEstablishesBothSides) {
  Build(100e6, 5_ms);
  TcpListener listener(server_.get(), 80, TcpConfig());
  TcpSocket* accepted = nullptr;
  listener.on_accept = [&](TcpSocket* s) { accepted = s; };
  TcpSocket client(client_.get(), TcpConfig());
  bool connected = false;
  client.on_connected = [&] { connected = true; };
  client.Connect(2, 80);
  sim_.RunFor(100_ms);
  EXPECT_TRUE(connected);
  ASSERT_NE(accepted, nullptr);
  EXPECT_TRUE(client.connected());
  EXPECT_TRUE(accepted->connected());
}

TEST_F(TcpTest, TransfersExactByteCount) {
  Build(100e6, 5_ms);
  TcpListener listener(server_.get(), 80, TcpConfig());
  TcpSocket* accepted = nullptr;
  int64_t received = 0;
  listener.on_accept = [&](TcpSocket* s) {
    accepted = s;
    s->on_data = [&](int64_t bytes) { received += bytes; };
  };
  TcpSocket client(client_.get(), TcpConfig());
  client.Connect(2, 80);
  client.Write(1000000);
  sim_.RunFor(5_s);
  EXPECT_EQ(received, 1000000);
  EXPECT_EQ(client.bytes_acked(), 1000000);
  EXPECT_EQ(accepted->bytes_delivered(), 1000000);
}

TEST_F(TcpTest, BulkThroughputApproachesLinkRate) {
  Build(50e6, 5_ms);
  TcpListener listener(server_.get(), 80, TcpConfig());
  TcpSocket* accepted = nullptr;
  listener.on_accept = [&](TcpSocket* s) { accepted = s; };
  TcpSocket client(client_.get(), TcpConfig());
  client.Connect(2, 80);
  client.WriteForever();
  sim_.RunFor(2_s);
  ASSERT_NE(accepted, nullptr);
  accepted->StartMeasuring(sim_.now());
  sim_.RunFor(8_s);
  const double mbps = static_cast<double>(accepted->measured_delivered_bytes()) * 8 / 8e6 / 1e0;
  EXPECT_GT(mbps / 1e0, 40.0 * 1e0);  // >80% of the 50 Mbit/s link.
  EXPECT_LE(mbps, 50.0);
}

TEST_F(TcpTest, RecoversFromRandomLoss) {
  Build(20e6, 10_ms, /*forward_loss=*/0.01);
  TcpListener listener(server_.get(), 80, TcpConfig());
  TcpSocket* accepted = nullptr;
  listener.on_accept = [&](TcpSocket* s) { accepted = s; };
  TcpSocket client(client_.get(), TcpConfig());
  client.Connect(2, 80);
  client.WriteForever();
  sim_.RunFor(10_s);
  ASSERT_NE(accepted, nullptr);
  // In-order delivery never skips bytes despite losses...
  EXPECT_GT(accepted->bytes_delivered(), int64_t{2} * 1000 * 1000);
  // ...and retransmissions happened.
  EXPECT_GT(client.retransmits(), 0);
}

TEST_F(TcpTest, SurvivesSevereLoss) {
  Build(10e6, 10_ms, /*forward_loss=*/0.1);
  TcpListener listener(server_.get(), 80, TcpConfig());
  TcpSocket client(client_.get(), TcpConfig());
  client.Connect(2, 80);
  client.Write(200000);
  sim_.RunFor(60_s);
  EXPECT_EQ(client.bytes_acked(), 200000);
}

TEST_F(TcpTest, CongestionWindowRespondsToDrops) {
  // Shallow queue at a slow link: the sender must not blow past it forever.
  Build(5e6, 10_ms, 0.0, /*queue_packets=*/20);
  TcpListener listener(server_.get(), 80, TcpConfig());
  TcpSocket client(client_.get(), TcpConfig());
  client.Connect(2, 80);
  client.WriteForever();
  sim_.RunFor(10_s);
  EXPECT_GT(client.retransmits(), 0);       // Queue overflow was hit...
  EXPECT_LT(client.cwnd_packets(), 900.0);  // ...and the window backed off.
  EXPECT_GT(client.bytes_acked(), int64_t{3} * 1000 * 1000);
}

TEST_F(TcpTest, SrttTracksPathRtt) {
  Build(100e6, 25_ms);
  TcpListener listener(server_.get(), 80, TcpConfig());
  TcpSocket client(client_.get(), TcpConfig());
  client.Connect(2, 80);
  client.Write(500000);
  sim_.RunFor(3_s);
  EXPECT_NEAR(client.srtt().ToMilliseconds(), 50.0, 15.0);
}

TEST_F(TcpTest, ServerCanSendToClient) {
  // Full duplex: the accepted socket writes back (the web response path).
  Build(100e6, 5_ms);
  TcpListener listener(server_.get(), 80, TcpConfig());
  listener.on_accept = [&](TcpSocket* s) {
    s->on_data = [s](int64_t) { s->Write(50000); };
  };
  TcpSocket client(client_.get(), TcpConfig());
  int64_t client_received = 0;
  client.on_data = [&](int64_t bytes) { client_received += bytes; };
  client.Connect(2, 80);
  client.Write(300);  // "Request".
  sim_.RunFor(2_s);
  EXPECT_EQ(client_received, 50000);
}

TEST_F(TcpTest, SynIsRetransmittedUntilAnswered) {
  Build(100e6, 5_ms, /*forward_loss=*/1.0);  // Black-hole the data direction.
  TcpListener listener(server_.get(), 80, TcpConfig());
  TcpSocket client(client_.get(), TcpConfig());
  bool connected = false;
  client.on_connected = [&] { connected = true; };
  client.Connect(2, 80);
  sim_.RunFor(3_s);
  EXPECT_FALSE(connected);
  // Heal the path: rebuild delivery without loss.
  link_->forward().set_deliver([this](PacketPtr p) { server_->Deliver(std::move(p)); });
  sim_.RunFor(3_s);
  EXPECT_TRUE(connected);
}

TEST_F(TcpTest, DelayedAckReducesAckVolume) {
  Build(100e6, 5_ms);
  TcpListener listener(server_.get(), 80, TcpConfig());
  int acks = 0;
  // Count pure ACKs flowing back through the reverse link.
  link_->reverse().set_deliver([&, this](PacketPtr p) {
    if (p->type == PacketType::kTcpAck) {
      ++acks;
    }
    client_->Deliver(std::move(p));
  });
  TcpSocket client(client_.get(), TcpConfig());
  client.Connect(2, 80);
  client.Write(1448 * 100);
  sim_.RunFor(2_s);
  // Roughly one ACK per two segments (plus the handshake/ctrl ones).
  EXPECT_LT(acks, 75);
  EXPECT_GT(acks, 40);
}

}  // namespace
}  // namespace airfair
