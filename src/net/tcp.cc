#include "src/net/tcp.h"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>

#include "src/util/check.h"

namespace airfair {

namespace {
constexpr int64_t kBulkBytes = int64_t{1} << 60;
// Payload bytes per full segment: a 1500-byte MTU less kTcpHeaderBytes.
constexpr int32_t kMss = 1448;
constexpr double kInitialCwndPackets = 10;  // RFC 6928 IW10.
// Receive-window stand-in (Linux autotuning reaches a few thousand packets;
// 1000 * MSS ~= 1.4 MB keeps bulk flows window-capped only when buffers are
// very deep, as in the paper's FIFO configuration).
constexpr double kMaxCwndPackets = 1000;
constexpr TimeUs kInitialRto = TimeUs::FromSeconds(1);       // RFC 6298.
constexpr TimeUs kMinRto = TimeUs::FromMilliseconds(200);    // Linux TCP_RTO_MIN.
constexpr TimeUs kMaxRto = TimeUs::FromSeconds(60);
// Delayed ACKs: ACK every second full segment, or after this timeout
// (Linux TCP_DELACK_MIN).
constexpr TimeUs kDelayedAckTimeout = TimeUs::FromMilliseconds(40);
// RFC 8312 CUBIC constants.
constexpr double kCubicC = 0.4;
constexpr double kCubicBeta = 0.7;
}  // namespace

TcpSocket::TcpSocket(Host* host, const TcpConfig&) : host_(host) {
  flow_.src_node = host_->node_id();
  flow_.src_port = host_->AllocatePort();
  flow_.protocol = 6;
  host_->BindPort(flow_.src_port, this);
  owns_port_ = true;
  cwnd_ = kInitialCwndPackets * kMss;
  ssthresh_ = kMaxCwndPackets * kMss;
}

TcpSocket::TcpSocket(Host* host, const FlowKey& flow) : host_(host), flow_(flow) {
  cwnd_ = kInitialCwndPackets * kMss;
  ssthresh_ = kMaxCwndPackets * kMss;
  state_ = State::kSynReceived;
}

TcpSocket::~TcpSocket() {
  if (owns_port_) {
    host_->UnbindPort(flow_.src_port);
  }
  rto_timer_.Cancel();
  handshake_timer_.Cancel();
  delack_timer_.Cancel();
}

void TcpSocket::Connect(uint32_t dst_node, uint16_t dst_port) {
  AF_DCHECK(state_ == State::kIdle) << " Connect on a non-idle socket";
  flow_.dst_node = dst_node;
  flow_.dst_port = dst_port;
  state_ = State::kSynSent;
  SendSyn();
}

void TcpSocket::SendSyn() {
  if (state_ != State::kSynSent) {
    return;
  }
  PacketPtr packet = host_->NewPacket();
  packet->size_bytes = kTcpCtrlBytes;
  packet->type = PacketType::kTcpCtrl;
  packet->flow = flow_;
  packet->tid = kBestEffortTid;
  packet->tcp.syn = true;
  host_->Send(std::move(packet));
  handshake_timer_ = host_->sim()->After(kInitialRto, [this] { SendSyn(); });
}

void TcpSocket::SendSynAck() {
  if (state_ != State::kSynReceived) {
    return;
  }
  PacketPtr packet = host_->NewPacket();
  packet->size_bytes = kTcpCtrlBytes;
  packet->type = PacketType::kTcpCtrl;
  packet->flow = flow_;
  packet->tid = kBestEffortTid;
  packet->tcp.syn = true;
  packet->tcp.ack = 1;  // Distinguishes SYN-ACK from SYN for tracing only.
  host_->Send(std::move(packet));
  handshake_timer_ = host_->sim()->After(kInitialRto, [this] { SendSynAck(); });
}

void TcpSocket::SendCtrlAck() {
  PacketPtr packet = host_->NewPacket();
  packet->size_bytes = kTcpAckBytes;
  packet->type = PacketType::kTcpAck;
  packet->flow = flow_;
  packet->tid = kBestEffortTid;
  packet->tcp.ack = rcv_nxt_;
  host_->Send(std::move(packet));
}

void TcpSocket::Establish() {
  if (state_ == State::kEstablished) {
    return;
  }
  state_ = State::kEstablished;
  handshake_timer_.Cancel();
  if (on_connected) {
    on_connected();
  }
  TrySend();
}

void TcpSocket::Write(int64_t bytes) {
  AF_DCHECK(!bulk_) << " SendBytes during a bulk transfer";
  app_limit_ += bytes;
  TrySend();
}

void TcpSocket::WriteForever() {
  bulk_ = true;
  app_limit_ = kBulkBytes;
  TrySend();
}

double TcpSocket::cwnd_packets() const { return cwnd_ / kMss; }

void TcpSocket::TrySend() {
  if (state_ != State::kEstablished) {
    return;
  }
  while (snd_nxt_ < app_limit_) {
    const double window = std::min(cwnd_, kMaxCwndPackets * kMss);
    if (static_cast<double>(InFlight()) + 1 > window) {
      break;
    }
    const int32_t payload =
        static_cast<int32_t>(std::min<int64_t>(kMss, app_limit_ - snd_nxt_));
    SendSegment(snd_nxt_, payload, /*is_retransmit=*/false);
    snd_nxt_ += payload;
  }
  if (InFlight() > 0 && !rto_timer_.pending()) {
    ArmRto();
  }
}

void TcpSocket::SendSegment(int64_t seq, int32_t payload, bool is_retransmit) {
  PacketPtr packet = host_->NewPacket();
  packet->type = PacketType::kTcpData;
  packet->size_bytes = payload + kTcpHeaderBytes;
  packet->flow = flow_;
  packet->tid = kBestEffortTid;
  packet->tcp.seq = seq;
  packet->tcp.payload = payload;
  packet->tcp.ts = host_->sim()->now().us();
  if (is_retransmit) {
    ++retransmits_;
  }
  host_->Send(std::move(packet));
}

void TcpSocket::SendAck(int64_t ts_echo) {
  PacketPtr packet = host_->NewPacket();
  packet->size_bytes = kTcpAckBytes;
  packet->type = PacketType::kTcpAck;
  packet->flow = flow_;
  packet->tid = kBestEffortTid;
  packet->tcp.ack = rcv_nxt_;
  packet->tcp.ts_echo = ts_echo;
  host_->Send(std::move(packet));
  unacked_segments_ = 0;
  delack_timer_.Cancel();
}

TimeUs TcpSocket::CurrentRto() const {
  TimeUs base = kInitialRto;
  if (have_rtt_) {
    base = std::max(kMinRto, srtt_ + 4 * rttvar_);
  }
  for (int i = 0; i < rto_backoff_; ++i) {
    base = base * 2;
    if (base > kMaxRto) {
      return kMaxRto;
    }
  }
  return std::min(base, kMaxRto);
}

void TcpSocket::ArmRto() {
  rto_timer_.Cancel();
  rto_timer_ = host_->sim()->After(CurrentRto(), [this] { OnRto(); });
}

void TcpSocket::OnRto() {
  if (InFlight() <= 0) {
    return;
  }
  ++timeouts_;
  OnCongestionEvent();
  cwnd_ = kMss;
  in_recovery_ = false;
  dup_acks_ = 0;
  ++rto_backoff_;
  // Go-back-N: rewind and retransmit from the first unacknowledged byte.
  snd_nxt_ = snd_una_;
  ++retransmits_;
  TrySend();
  ArmRto();
}

void TcpSocket::UpdateRttEstimate(TimeUs sample) {
  if (sample.IsNegative()) {
    return;
  }
  if (!have_rtt_) {
    srtt_ = sample;
    rttvar_ = sample / 2;
    have_rtt_ = true;
    return;
  }
  const TimeUs delta =
      (srtt_ > sample) ? (srtt_ - sample) : (sample - srtt_);
  rttvar_ = TimeUs((3 * rttvar_.us() + delta.us()) / 4);
  srtt_ = TimeUs((7 * srtt_.us() + sample.us()) / 8);
}

void TcpSocket::HandleAck(const Packet& packet) {
  const int64_t ack = packet.tcp.ack;
  if (ack > snd_una_) {
    if (packet.tcp.ts_echo > 0) {
      UpdateRttEstimate(host_->sim()->now() - TimeUs(packet.tcp.ts_echo));
    }
    const int64_t acked = ack - snd_una_;
    snd_una_ = ack;
    rto_backoff_ = 0;
    if (in_recovery_) {
      if (ack >= recover_) {
        // Full acknowledgement: recovery complete.
        in_recovery_ = false;
        dup_acks_ = 0;
        cwnd_ = ssthresh_;
      } else {
        // Partial ACK: repair the hole at the new cumulative-ACK point.
        retransmit_next_ = std::max(retransmit_next_, snd_una_);
        const int32_t payload = static_cast<int32_t>(
            std::min<int64_t>(kMss, app_limit_ - retransmit_next_));
        if (retransmit_next_ < recover_ && payload > 0) {
          SendSegment(retransmit_next_, payload, /*is_retransmit=*/true);
          retransmit_next_ += payload;
        }
        cwnd_ = std::max(static_cast<double>(kMss),
                         cwnd_ - static_cast<double>(acked) + kMss);
      }
    } else {
      dup_acks_ = 0;
      GrowCongestionWindow(acked);
    }
    if (InFlight() > 0) {
      ArmRto();
    } else {
      rto_timer_.Cancel();
    }
    TrySend();
    return;
  }
  if (ack == snd_una_ && InFlight() > 0) {
    if (in_recovery_) {
      cwnd_ += kMss;  // Window inflation per extra dup ACK.
      // SACK-like recovery: each further dup ACK signals another delivered
      // segment, so another hole can be repaired this RTT.
      if (retransmit_next_ < recover_) {
        const int32_t payload = static_cast<int32_t>(
            std::min<int64_t>(kMss, app_limit_ - retransmit_next_));
        if (payload > 0) {
          SendSegment(retransmit_next_, payload, /*is_retransmit=*/true);
          retransmit_next_ += payload;
        }
      }
      TrySend();
      return;
    }
    ++dup_acks_;
    if (dup_acks_ == 3) {
      EnterRecovery();
    }
  }
}

void TcpSocket::GrowCongestionWindow(int64_t acked_bytes) {
  const double mss = kMss;
  if (cwnd_ < ssthresh_) {
    cwnd_ += std::min<double>(static_cast<double>(acked_bytes), mss);  // Slow start.
    return;
  }
  // CUBIC congestion avoidance (RFC 8312).
  const TimeUs now = host_->sim()->now();
  const double cwnd_pkts = cwnd_ / mss;
  if (cubic_epoch_start_.IsZero()) {
    cubic_epoch_start_ = now;
    if (cubic_wmax_packets_ < cwnd_pkts) {
      cubic_wmax_packets_ = cwnd_pkts;
      cubic_k_seconds_ = 0;
    } else {
      cubic_k_seconds_ = std::cbrt((cubic_wmax_packets_ - cwnd_pkts) / kCubicC);
    }
  }
  const double rtt_s = std::max(srtt_.ToSeconds(), 1e-4);
  const double t = (now - cubic_epoch_start_).ToSeconds() + rtt_s;
  const double dt = t - cubic_k_seconds_;
  double target = kCubicC * dt * dt * dt + cubic_wmax_packets_;
  // TCP-friendly region (standard TCP's window estimate).
  const double w_est = cubic_wmax_packets_ * kCubicBeta +
                       (3.0 * (1.0 - kCubicBeta) / (1.0 + kCubicBeta)) * (t / rtt_s);
  target = std::max(target, w_est);
  if (target > cwnd_pkts) {
    cwnd_ += mss * (target - cwnd_pkts) / cwnd_pkts;
  } else {
    cwnd_ += mss / (100.0 * cwnd_pkts);
  }
}

void TcpSocket::OnCongestionEvent() {
  cubic_wmax_packets_ = cwnd_ / kMss;
  cubic_epoch_start_ = TimeUs::Zero();
  ssthresh_ = std::max(cwnd_ * kCubicBeta, 2.0 * kMss);
}

void TcpSocket::EnterRecovery() {
  OnCongestionEvent();
  recover_ = snd_nxt_;
  in_recovery_ = true;
  const int32_t payload =
      static_cast<int32_t>(std::min<int64_t>(kMss, app_limit_ - snd_una_));
  SendSegment(snd_una_, payload, /*is_retransmit=*/true);
  retransmit_next_ = snd_una_ + payload;
  cwnd_ = ssthresh_ + 3.0 * kMss;
  ArmRto();
}

void TcpSocket::DeliverToApp(int64_t bytes) {
  if (bytes <= 0) {
    return;
  }
  delivered_bytes_ += bytes;
  if (host_->sim()->now() >= measure_from_) {
    measured_delivered_bytes_ += bytes;
  }
  if (on_data) {
    on_data(bytes);
  }
}

void TcpSocket::HandleData(PacketPtr packet) {
  const int64_t seq = packet->tcp.seq;
  const int64_t end = seq + packet->tcp.payload;
  last_ts_for_ack_ = packet->tcp.ts;

  bool in_order = false;
  if (end <= rcv_nxt_) {
    // Entirely old: re-ACK immediately so the sender sees the dup.
    SendAck(last_ts_for_ack_);
    return;
  }
  if (seq <= rcv_nxt_) {
    // Advances the window.
    const int64_t payload_new = std::min<int64_t>(packet->tcp.payload, end - rcv_nxt_);
    rcv_nxt_ = end;
    DeliverToApp(payload_new);
    // Pull any now-contiguous out-of-order runs.
    auto it = ooo_.begin();
    while (it != ooo_.end() && it->first <= rcv_nxt_) {
      if (it->second > rcv_nxt_) {
        DeliverToApp(it->second - rcv_nxt_);
        rcv_nxt_ = it->second;
      }
      it = ooo_.erase(it);
    }
    in_order = true;
  } else {
    // Hole: stash the run and send an immediate duplicate ACK.
    auto [it, inserted] = ooo_.emplace(seq, end);
    if (!inserted && end > it->second) {
      it->second = end;
    }
    SendAck(last_ts_for_ack_);
    return;
  }

  if (in_order) {
    ++unacked_segments_;
    const bool full_segment = packet->tcp.payload >= kMss;
    if (unacked_segments_ >= 2 || !full_segment) {
      SendAck(last_ts_for_ack_);
    } else if (!delack_timer_.pending()) {
      delack_timer_ = host_->sim()->After(kDelayedAckTimeout,
                                          [this] { SendAck(last_ts_for_ack_); });
    }
  }
}

void TcpSocket::Deliver(PacketPtr packet) {
  switch (packet->type) {
    case PacketType::kTcpCtrl:
      if (packet->tcp.syn) {
        if (state_ == State::kSynSent) {
          // SYN-ACK: complete the handshake.
          flow_.dst_node = packet->flow.src_node;  // Unchanged in practice.
          Establish();
          SendCtrlAck();
        } else if (state_ == State::kSynReceived) {
          // Retransmitted SYN: re-announce.
          handshake_timer_.Cancel();
          SendSynAck();
        }
      }
      return;
    case PacketType::kTcpAck:
      if (state_ == State::kSynReceived) {
        Establish();
      }
      HandleAck(*packet);
      return;
    case PacketType::kTcpData:
      if (state_ == State::kSynReceived) {
        Establish();
      }
      HandleData(std::move(packet));
      return;
    default:
      return;
  }
}

bool TcpListener::FlowKeyLess::operator()(const FlowKey& a, const FlowKey& b) const {
  return std::tie(a.src_node, a.dst_node, a.src_port, a.dst_port, a.protocol) <
         std::tie(b.src_node, b.dst_node, b.src_port, b.dst_port, b.protocol);
}

TcpListener::TcpListener(Host* host, uint16_t port, const TcpConfig&)
    : host_(host), port_(port) {
  host_->BindPort(port_, this);
}

TcpListener::~TcpListener() { host_->UnbindPort(port_); }

void TcpListener::Deliver(PacketPtr packet) {
  const auto it = connections_.find(packet->flow);
  if (it != connections_.end()) {
    it->second->Deliver(std::move(packet));
    return;
  }
  if (packet->type != PacketType::kTcpCtrl || !packet->tcp.syn) {
    return;  // Non-SYN for an unknown flow.
  }
  // New connection: the server-side socket's outbound flow is the reverse of
  // the client's.
  FlowKey reverse{packet->flow.dst_node, packet->flow.src_node, packet->flow.dst_port,
                  packet->flow.src_port, /*protocol=*/6};
  // airfair-lint: allow(hot-naked-new): private ctor, make_unique cannot reach it
  auto socket = std::unique_ptr<TcpSocket>(new TcpSocket(host_, reverse));
  TcpSocket* raw = socket.get();
  connections_.emplace(packet->flow, std::move(socket));
  if (on_accept) {
    on_accept(raw);
  }
  raw->SendSynAck();
}

}  // namespace airfair
