#include "src/net/host.h"

#include <utility>

#include "src/util/check.h"
#include "src/util/stats.h"

namespace airfair {

Host::~Host() {
  if (heap_packets_ > 0) {
    GetCounter("packets.heap").Increment(heap_packets_);
  }
}

void Host::Send(PacketPtr packet) {
  AF_CHECK(egress_) << " host egress not wired";
  if (packet->created.IsZero()) {
    packet->created = sim_->now();
  }
  egress_(std::move(packet));
}

void Host::Deliver(PacketPtr packet) {
  if (packet->type == PacketType::kIcmpEchoRequest) {
    // Reflect the request packet in place: swap src/dst, keep echo id and
    // size, preserve QoS marking and the original creation timestamp so the
    // sender measures full RTT. Reusing the buffer avoids an allocation per
    // echo and keeps the reply inside the request's origin pool.
    packet->type = PacketType::kIcmpEchoReply;
    packet->flow = FlowKey{packet->flow.dst_node, packet->flow.src_node, packet->flow.dst_port,
                           packet->flow.src_port, /*protocol=*/1};
    packet->flow_seq = 0;
    packet->mac_seq = -1;                // Reassigned on the return MAC hop.
    packet->enqueued = TimeUs::Zero();   // Restamped by the return queue.
    Send(std::move(packet));
    return;
  }
  const auto it = ports_.find(packet->flow.dst_port);
  if (it == ports_.end()) {
    ++undeliverable_;
    return;
  }
  ++packets_delivered_;
  it->second->Deliver(std::move(packet));
}

}  // namespace airfair
