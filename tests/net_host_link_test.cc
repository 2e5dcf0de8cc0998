#include <gtest/gtest.h>

#include <vector>

#include "src/net/host.h"
#include "src/net/udp.h"
#include "src/net/wired_link.h"
#include "tests/test_util.h"

namespace airfair {
namespace {

using namespace time_literals;

class RecordingEndpoint : public PacketEndpoint {
 public:
  void Deliver(PacketPtr packet) override { received.push_back(std::move(packet)); }
  std::vector<PacketPtr> received;
};

TEST(Host, DemuxesByDestinationPort) {
  Simulation sim;
  Host host(&sim, 1);
  RecordingEndpoint a;
  RecordingEndpoint b;
  host.BindPort(100, &a);
  host.BindPort(200, &b);
  host.Deliver(MakePacket(1500, 1, 100));
  host.Deliver(MakePacket(1500, 1, 200));
  host.Deliver(MakePacket(1500, 1, 200));
  EXPECT_EQ(a.received.size(), 1u);
  EXPECT_EQ(b.received.size(), 2u);
}

TEST(Host, CountsUndeliverablePackets) {
  Simulation sim;
  Host host(&sim, 1);
  host.Deliver(MakePacket(1500, 1, 999));
  EXPECT_EQ(host.undeliverable_count(), 1);
}

TEST(Host, UnbindStopsDelivery) {
  Simulation sim;
  Host host(&sim, 1);
  RecordingEndpoint a;
  host.BindPort(100, &a);
  host.UnbindPort(100);
  host.Deliver(MakePacket(1500, 1, 100));
  EXPECT_TRUE(a.received.empty());
  EXPECT_EQ(host.undeliverable_count(), 1);
}

TEST(Host, AnswersIcmpEchoWithMirroredFlow) {
  Simulation sim;
  Host host(&sim, 5);
  PacketPtr reply;
  host.set_egress([&reply](PacketPtr p) { reply = std::move(p); });
  auto request = NewHeapPacket();
  request->size_bytes = 84;
  request->type = PacketType::kIcmpEchoRequest;
  request->flow = FlowKey{2, 5, 1234, 0, 1};
  request->echo_id = 42;
  request->created = TimeUs(777);
  request->tid = kVoiceTid;
  host.Deliver(std::move(request));
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->type, PacketType::kIcmpEchoReply);
  EXPECT_EQ(reply->flow.dst_node, 2u);
  EXPECT_EQ(reply->flow.dst_port, 1234);
  EXPECT_EQ(reply->echo_id, 42);
  EXPECT_EQ(reply->created, TimeUs(777));  // RTT measured against the request.
  EXPECT_EQ(reply->tid, kVoiceTid);       // QoS marking preserved.
}

TEST(Host, SendStampsCreationTime) {
  Simulation sim;
  sim.RunFor(3_ms);
  Host host(&sim, 1);
  PacketPtr sent;
  host.set_egress([&sent](PacketPtr p) { sent = std::move(p); });
  host.Send(MakePacket());
  ASSERT_NE(sent, nullptr);
  EXPECT_EQ(sent->created, 3_ms);
}

TEST(Host, EphemeralPortsAreUnique) {
  Simulation sim;
  Host host(&sim, 1);
  const uint16_t p1 = host.AllocatePort();
  const uint16_t p2 = host.AllocatePort();
  EXPECT_NE(p1, p2);
}

TEST(WiredLink, DeliversAfterSerializationAndPropagation) {
  Simulation sim;
  WiredLink::Config config;
  config.rate_bps = 1e9;
  config.one_way_delay = 1_ms;
  WiredLink link(&sim, config);
  TimeUs arrival;
  link.forward().set_deliver([&](PacketPtr) { arrival = sim.now(); });
  link.forward().Send(MakePacket(1250));  // 10 us at 1 Gbit/s.
  sim.RunFor(10_ms);
  EXPECT_EQ(arrival, 1_ms + 10_us);
}

TEST(WiredLink, SerializesBackToBackPackets) {
  Simulation sim;
  WiredLink::Config config;
  config.rate_bps = 1e6;  // 1 Mbit/s: 1500 B = 12 ms each.
  config.one_way_delay = TimeUs::Zero();
  WiredLink link(&sim, config);
  std::vector<TimeUs> arrivals;
  link.forward().set_deliver([&](PacketPtr) { arrivals.push_back(sim.now()); });
  link.forward().Send(MakePacket(1500));
  link.forward().Send(MakePacket(1500));
  sim.RunFor(1_s);
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 12_ms);
  EXPECT_EQ(arrivals[1], 24_ms);
}

TEST(WiredLink, OneEventPerPacket) {
  Simulation sim;
  WiredLink::Config config;
  config.rate_bps = 1e9;  // 1500 B = 12 us each.
  config.one_way_delay = 100_us;
  WiredLink link(&sim, config);
  std::vector<TimeUs> arrivals;
  link.forward().set_deliver([&](PacketPtr) { arrivals.push_back(sim.now()); });
  for (int i = 0; i < 5; ++i) {
    link.forward().Send(MakePacket(1500));
  }
  sim.RunFor(1_s);
  EXPECT_EQ(arrivals, (std::vector<TimeUs>{112_us, 124_us, 136_us, 148_us, 160_us}));
  // The deliveries are the only events: the transmit schedule is computed
  // when each packet is sent.
  EXPECT_EQ(sim.loop().dispatched_events(), 5);
}

TEST(WiredLink, DropsWhenQueueFull) {
  Simulation sim;
  WiredLink::Config config;
  config.max_queue_packets = 5;
  WiredLink link(&sim, config);
  link.forward().set_deliver([](PacketPtr) {});
  for (int i = 0; i < 10; ++i) {
    link.forward().Send(MakePacket());
  }
  // The first packet is on the wire, five wait, and the other four drop.
  EXPECT_EQ(link.forward().drops(), 4);
  sim.RunFor(1_s);
  EXPECT_EQ(link.forward().delivered(), 6);
}

TEST(WiredLink, BufferCountsOnlyPacketsWaitingToSerialize) {
  Simulation sim;
  WiredLink::Config config;
  config.rate_bps = 1e6;  // 1 Mbit/s: 1500 B = 12 ms each.
  config.one_way_delay = TimeUs::Zero();
  config.max_queue_packets = 2;
  WiredLink link(&sim, config);
  std::vector<TimeUs> arrivals;
  link.forward().set_deliver([&](PacketPtr) { arrivals.push_back(sim.now()); });
  // One packet on the wire and two waiting fill the buffer.
  for (int i = 0; i < 4; ++i) {
    link.forward().Send(MakePacket(1500));
  }
  EXPECT_EQ(link.forward().drops(), 1);
  // At 12 ms the second packet starts serializing and leaves the buffer, so
  // one slot is free again.
  sim.RunUntil(12_ms);
  link.forward().Send(MakePacket(1500));
  link.forward().Send(MakePacket(1500));
  EXPECT_EQ(link.forward().drops(), 2);
  sim.RunFor(1_s);
  EXPECT_EQ(arrivals, (std::vector<TimeUs>{12_ms, 24_ms, 36_ms, 48_ms}));
}

TEST(WiredLink, DirectionsAreIndependent) {
  Simulation sim;
  WiredLink link(&sim, WiredLink::Config());
  int fwd = 0;
  int rev = 0;
  link.forward().set_deliver([&](PacketPtr) { ++fwd; });
  link.reverse().set_deliver([&](PacketPtr) { ++rev; });
  link.forward().Send(MakePacket());
  link.reverse().Send(MakePacket());
  link.reverse().Send(MakePacket());
  sim.RunFor(1_s);
  EXPECT_EQ(fwd, 1);
  EXPECT_EQ(rev, 2);
}

}  // namespace
}  // namespace airfair
