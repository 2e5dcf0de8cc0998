// UDP traffic generators and sinks.
//
// CBR (constant bit rate) sources saturate the downlink in the paper's
// one-way UDP experiments. The sink measures goodput, loss and one-way
// latency.

#ifndef AIRFAIR_SRC_NET_UDP_H_
#define AIRFAIR_SRC_NET_UDP_H_

#include <cstdint>

#include "src/net/host.h"
#include "src/net/packet.h"
#include "src/util/stats.h"

namespace airfair {

class UdpSink;

class UdpSource {
 public:
  struct Config {
    double rate_bps = 50e6;      // Offered load.
    int32_t packet_bytes = kFullDataPacketBytes;
  };

  // Sends from `host` to (dst_node, dst_port). Starts when Start() is called
  // and stops at Stop() (or never).
  UdpSource(Host* host, uint32_t dst_node, uint16_t dst_port, const Config& config);

  void Start();
  void Stop();

  int64_t packets_sent() const { return sent_; }

 private:
  void SendNext();

  Host* host_;
  Config config_;
  FlowKey flow_;
  bool running_ = false;
  int64_t sent_ = 0;
  EventHandle pending_;
};

class UdpSink : public PacketEndpoint {
 public:
  // Binds to `port` on `host`.
  UdpSink(Host* host, uint16_t port);
  ~UdpSink() override;

  void Deliver(PacketPtr packet) override;

  // Restricts statistics to packets received at/after `t` (to skip warmup).
  // Resets anything already accumulated.
  void StartMeasuring(TimeUs t) {
    measure_from_ = t;
    measured_bytes_ = 0;
    owd_ms_ = SampleSet();
  }

  int64_t packets_received() const { return received_; }
  int64_t bytes_received() const { return bytes_; }
  int64_t measured_bytes() const { return measured_bytes_; }
  // Gaps observed in the per-flow sequence space (lower bound on loss).
  int64_t sequence_gaps() const { return gaps_; }
  const SampleSet& one_way_delay_ms() const { return owd_ms_; }

 private:
  Host* host_;
  uint16_t port_;
  TimeUs measure_from_ = TimeUs::Zero();
  int64_t received_ = 0;
  int64_t bytes_ = 0;
  int64_t measured_bytes_ = 0;
  int64_t gaps_ = 0;
  int64_t next_expected_seq_ = 0;
  SampleSet owd_ms_;
};

// Periodic ICMP echo ("ping") with RTT collection. The remote Host answers
// echo requests natively, so only the sender side exists as an endpoint.
class PingSender : public PacketEndpoint {
 public:
  // Echo requests are kIcmpPingBytes, best effort.
  struct Config {
    TimeUs interval = TimeUs::FromMilliseconds(100);
  };

  PingSender(Host* host, uint32_t dst_node, const Config& config);
  ~PingSender() override;

  void Start();
  void Stop();

  void Deliver(PacketPtr packet) override;

  // Restricts RTT samples to replies received at/after `t`; resets samples.
  void StartMeasuring(TimeUs t) {
    measure_from_ = t;
    rtt_ms_ = SampleSet();
  }

  int64_t sent() const { return sent_; }
  int64_t received() const { return received_; }
  const SampleSet& rtt_ms() const { return rtt_ms_; }

 private:
  void SendNext();

  Host* host_;
  uint32_t dst_node_;
  Config config_;
  uint16_t port_;
  bool running_ = false;
  TimeUs measure_from_ = TimeUs::Zero();
  int64_t sent_ = 0;
  int64_t received_ = 0;
  SampleSet rtt_ms_;
  EventHandle pending_;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_NET_UDP_H_
