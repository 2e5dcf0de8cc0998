// TCP CUBIC endpoints.
//
// A deliberately compact but behaviourally faithful TCP: slow start, CUBIC
// congestion avoidance (RFC 8312, what the paper's Ubuntu endpoints ran),
// fast retransmit / fast recovery with NewReno-style partial ACKs, RTO with
// exponential backoff, timestamp-based RTT estimation and delayed ACKs.
// Connections are never torn down: there is no FIN, and a socket lives until
// its owner destroys it. Payload bytes are counted, never stored.
//
// The model matters for the paper's evaluation because most experiments use
// bulk TCP: the TCP feedback loop is what lessens the FIFO lock-out behaviour
// (Section 4.1.3) and what limits achievable airtime fairness for upstream
// traffic (Figure 6, bidirectional case).

#ifndef AIRFAIR_SRC_NET_TCP_H_
#define AIRFAIR_SRC_NET_TCP_H_

#include <cstdint>
#include <map>
#include <memory>

#include "src/net/host.h"
#include "src/net/packet.h"
#include "src/util/inline_function.h"
#include "src/util/stats.h"
#include "src/util/time.h"

namespace airfair {

// Empty: every endpoint runs the constants in tcp.cc. The type remains as a
// constructor argument of TcpSocket and TcpListener.
struct TcpConfig {};

// A full-duplex TCP endpoint. Create via Connect() (client) or receive one
// from a TcpListener (server side). One socket == one connection; sockets are
// not reusable.
class TcpSocket : public PacketEndpoint {
 public:
  // Client-side constructor: binds an ephemeral port on `host`.
  TcpSocket(Host* host, const TcpConfig& config);
  ~TcpSocket() override;

  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  // Initiates the three-way handshake toward (dst_node, dst_port).
  void Connect(uint32_t dst_node, uint16_t dst_port);

  // Queues `bytes` of application data for transmission (callable before the
  // connection is up; data flows once established).
  void Write(int64_t bytes);

  // Bulk mode: keeps the connection saturated until the simulation ends.
  void WriteForever();

  // --- callbacks ---
  InlineFunction<void()> on_connected;
  // In-order payload delivered to the application (receiving direction).
  InlineFunction<void(int64_t bytes)> on_data;

  // --- introspection / stats ---
  bool connected() const { return state_ == State::kEstablished; }
  int64_t bytes_acked() const { return snd_una_; }
  int64_t bytes_delivered() const { return delivered_bytes_; }
  int64_t measured_delivered_bytes() const { return measured_delivered_bytes_; }
  void StartMeasuring(TimeUs t) {
    measure_from_ = t;
    measured_delivered_bytes_ = 0;
  }
  double cwnd_packets() const;
  TimeUs srtt() const { return srtt_; }
  int64_t retransmits() const { return retransmits_; }
  int64_t timeouts() const { return timeouts_; }
  const FlowKey& flow() const { return flow_; }

  void Deliver(PacketPtr packet) override;

 private:
  friend class TcpListener;

  enum class State {
    kIdle,
    kSynSent,
    kSynReceived,
    kEstablished,
  };

  // Server-side constructor used by TcpListener (no port binding; the
  // listener demuxes by flow).
  TcpSocket(Host* host, const FlowKey& flow);

  void Establish();
  void SendSyn();
  void SendSynAck();
  void SendCtrlAck();
  void TrySend();
  void SendSegment(int64_t seq, int32_t payload, bool is_retransmit);
  void SendAck(int64_t ts_echo);
  void ArmRto();
  void OnRto();
  void HandleAck(const Packet& packet);
  void HandleData(PacketPtr packet);
  void EnterRecovery();
  void UpdateRttEstimate(TimeUs sample);
  TimeUs CurrentRto() const;
  int64_t InFlight() const { return snd_nxt_ - snd_una_; }
  void DeliverToApp(int64_t bytes);

  Host* host_;
  FlowKey flow_;        // Our outbound 5-tuple.
  bool owns_port_ = false;
  State state_ = State::kIdle;

  // --- send direction ---
  int64_t app_limit_ = 0;        // Total bytes the app has written.
  bool bulk_ = false;
  int64_t snd_una_ = 0;
  int64_t snd_nxt_ = 0;
  double cwnd_ = 0;              // Bytes.
  double ssthresh_ = 0;          // Bytes.
  int dup_acks_ = 0;
  bool in_recovery_ = false;
  int64_t recover_ = 0;
  // Next sequence to retransmit during recovery. Tail-drop losses are
  // bursts of contiguous segments, so retransmitting sequentially from the
  // cumulative-ACK point recovers multiple losses per RTT — a lightweight
  // stand-in for SACK-based recovery (plain NewReno repairs one hole per
  // RTT and degenerates into timeouts under burst loss).
  int64_t retransmit_next_ = 0;
  int64_t retransmits_ = 0;
  int64_t timeouts_ = 0;
  int rto_backoff_ = 0;
  EventHandle rto_timer_;
  EventHandle handshake_timer_;

  // --- CUBIC state (RFC 8312) ---
  void OnCongestionEvent();            // Multiplicative decrease bookkeeping.
  void GrowCongestionWindow(int64_t acked_bytes);
  double cubic_wmax_packets_ = 0;
  TimeUs cubic_epoch_start_ = TimeUs::Zero();
  double cubic_k_seconds_ = 0;

  // --- RTT estimation ---
  TimeUs srtt_ = TimeUs::Zero();
  TimeUs rttvar_ = TimeUs::Zero();
  bool have_rtt_ = false;

  // --- receive direction ---
  int64_t rcv_nxt_ = 0;
  std::map<int64_t, int64_t> ooo_;  // start -> end (exclusive), out-of-order runs.
  int unacked_segments_ = 0;
  EventHandle delack_timer_;
  int64_t last_ts_for_ack_ = 0;
  int64_t delivered_bytes_ = 0;
  int64_t measured_delivered_bytes_ = 0;
  TimeUs measure_from_ = TimeUs::Zero();
};

// Accepts connections on a well-known port and demultiplexes established
// flows to per-connection sockets (which it owns).
class TcpListener : public PacketEndpoint {
 public:
  TcpListener(Host* host, uint16_t port, const TcpConfig& config);
  ~TcpListener() override;

  // Invoked for each new connection, after the SYN (not the final ACK) —
  // install per-socket callbacks here.
  InlineFunction<void(TcpSocket*)> on_accept;

  void Deliver(PacketPtr packet) override;

  size_t connection_count() const { return connections_.size(); }

 private:
  struct FlowKeyLess {
    bool operator()(const FlowKey& a, const FlowKey& b) const;
  };

  Host* host_;
  uint16_t port_;
  std::map<FlowKey, std::unique_ptr<TcpSocket>, FlowKeyLess> connections_;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_NET_TCP_H_
