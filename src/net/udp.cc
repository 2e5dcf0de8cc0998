#include "src/net/udp.h"

#include <utility>

namespace airfair {

UdpSource::UdpSource(Host* host, uint32_t dst_node, uint16_t dst_port, const Config& config)
    : host_(host), config_(config) {
  flow_ = FlowKey{host->node_id(), dst_node, host->AllocatePort(), dst_port, /*protocol=*/17};
}

void UdpSource::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  SendNext();
}

void UdpSource::Stop() {
  running_ = false;
  pending_.Cancel();
}

void UdpSource::SendNext() {
  if (!running_) {
    return;
  }
  PacketPtr packet = host_->NewPacket();
  packet->size_bytes = config_.packet_bytes;
  packet->type = PacketType::kUdp;
  packet->flow = flow_;
  packet->tid = kBestEffortTid;
  packet->flow_seq = sent_++;
  host_->Send(std::move(packet));
  const TimeUs gap = TimeUs::FromSeconds(static_cast<double>(config_.packet_bytes) * 8.0 /
                                         config_.rate_bps);
  pending_ = host_->sim()->After(gap, [this] { SendNext(); });
}

UdpSink::UdpSink(Host* host, uint16_t port) : host_(host), port_(port) {
  host_->BindPort(port_, this);
}

UdpSink::~UdpSink() { host_->UnbindPort(port_); }

void UdpSink::Deliver(PacketPtr packet) {
  ++received_;
  bytes_ += packet->size_bytes;
  if (packet->flow_seq > next_expected_seq_) {
    gaps_ += packet->flow_seq - next_expected_seq_;
  }
  next_expected_seq_ = packet->flow_seq + 1;
  const TimeUs now = host_->sim()->now();
  if (now >= measure_from_) {
    measured_bytes_ += packet->size_bytes;
    owd_ms_.AddTime(now - packet->created);
  }
}

PingSender::PingSender(Host* host, uint32_t dst_node, const Config& config)
    : host_(host), dst_node_(dst_node), config_(config), port_(host->AllocatePort()) {
  host_->BindPort(port_, this);
}

PingSender::~PingSender() { host_->UnbindPort(port_); }

void PingSender::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  SendNext();
}

void PingSender::Stop() {
  running_ = false;
  pending_.Cancel();
}

void PingSender::SendNext() {
  if (!running_) {
    return;
  }
  PacketPtr packet = host_->NewPacket();
  packet->size_bytes = kIcmpPingBytes;
  packet->type = PacketType::kIcmpEchoRequest;
  packet->flow = FlowKey{host_->node_id(), dst_node_, port_, /*dst_port=*/0, /*protocol=*/1};
  packet->tid = kBestEffortTid;
  packet->echo_id = sent_++;
  host_->Send(std::move(packet));
  pending_ = host_->sim()->After(config_.interval, [this] { SendNext(); });
}

void PingSender::Deliver(PacketPtr packet) {
  if (packet->type != PacketType::kIcmpEchoReply) {
    return;
  }
  ++received_;
  const TimeUs now = host_->sim()->now();
  if (now >= measure_from_) {
    rtt_ms_.AddTime(now - packet->created);
  }
}

}  // namespace airfair
