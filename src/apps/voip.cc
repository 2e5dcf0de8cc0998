#include "src/apps/voip.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace airfair {

namespace {
// G.711 at 64 kbit/s: 160 bytes of audio per 20 ms frame, plus 40 bytes of
// RTP/UDP/IP headers.
constexpr TimeUs kFrameInterval = TimeUs::FromMilliseconds(20);
constexpr int32_t kVoipPacketBytes = 200;
}  // namespace

VoipSource::VoipSource(Host* host, uint32_t dst_node, uint16_t dst_port, const Config& config)
    : host_(host), config_(config) {
  flow_ = FlowKey{host->node_id(), dst_node, host->AllocatePort(), dst_port, /*protocol=*/17};
}

void VoipSource::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  SendNext();
}

void VoipSource::Stop() {
  running_ = false;
  pending_.Cancel();
}

void VoipSource::SendNext() {
  if (!running_) {
    return;
  }
  PacketPtr packet = host_->NewPacket();
  packet->size_bytes = kVoipPacketBytes;
  packet->type = PacketType::kUdp;
  packet->flow = flow_;
  packet->tid = config_.tid;
  packet->flow_seq = sent_++;
  host_->Send(std::move(packet));
  pending_ = host_->sim()->After(kFrameInterval, [this] { SendNext(); });
}

VoipSink::VoipSink(Host* host, uint16_t port) : host_(host), port_(port) {
  host_->BindPort(port_, this);
}

VoipSink::~VoipSink() { host_->UnbindPort(port_); }

void VoipSink::Deliver(PacketPtr packet) {
  ++received_;
  const TimeUs now = host_->sim()->now();
  if (now < measure_from_) {
    return;
  }
  ++measured_received_;
  if (measured_first_seq_ < 0) {
    measured_first_seq_ = packet->flow_seq;
  }
  measured_last_seq_ = std::max(measured_last_seq_, packet->flow_seq);

  const double owd_ms = (now - packet->created).ToMilliseconds();
  owd_ms_.Add(owd_ms);
  // RFC 3550 interarrival jitter: J += (|D| - J) / 16, where D is the
  // difference in transit time between consecutive packets.
  if (last_owd_ms_ >= 0) {
    const double d = std::abs(owd_ms - last_owd_ms_);
    jitter_ms_ += (d - jitter_ms_) / 16.0;
  }
  last_owd_ms_ = owd_ms;
}

EModelInput VoipSink::Quality() const {
  EModelInput input;
  input.one_way_delay_ms = owd_ms_.mean();
  input.jitter_ms = jitter_ms_;
  if (measured_first_seq_ >= 0 && measured_last_seq_ > measured_first_seq_) {
    const double span = static_cast<double>(measured_last_seq_ - measured_first_seq_ + 1);
    input.packet_loss_pct =
        100.0 * (1.0 - static_cast<double>(measured_received_) / span);
  }
  return input;
}

}  // namespace airfair
