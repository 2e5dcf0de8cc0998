// VoIP traffic model (Section 4.2.1).
//
// A G.711-like stream: one 20 ms frame per packet (160 bytes of audio plus
// RTP/UDP/IP headers = 200 bytes on the wire), sent one-way. The sink
// measures one-way delay, RFC 3550 interarrival jitter and loss, and feeds
// the E-model to produce the MOS estimates of Table 2.

#ifndef AIRFAIR_SRC_APPS_VOIP_H_
#define AIRFAIR_SRC_APPS_VOIP_H_

#include "src/apps/emodel.h"
#include "src/net/host.h"
#include "src/net/packet.h"
#include "src/util/stats.h"

namespace airfair {

class VoipSink;

class VoipSource {
 public:
  struct Config {
    Tid tid = kBestEffortTid;  // kVoiceTid for the VO-marked variant.
  };

  VoipSource(Host* host, uint32_t dst_node, uint16_t dst_port, const Config& config);

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

class VoipSink : public PacketEndpoint {
 public:
  VoipSink(Host* host, uint16_t port);
  ~VoipSink() override;

  void Deliver(PacketPtr packet) override;

  // Resets accumulated quality statistics and measures from `t` on.
  void StartMeasuring(TimeUs t) {
    measure_from_ = t;
    measured_received_ = 0;
    measured_first_seq_ = -1;
    measured_last_seq_ = -1;
    owd_ms_ = SampleSet();
    jitter_ms_ = 0;
    last_owd_ms_ = -1;
  }

  // Measured quality inputs and the derived MOS. Loss is computed from the
  // sequence-number span observed inside the measurement window.
  EModelInput Quality() const;
  double Mos() const { return EstimateMos(Quality()); }

  int64_t packets_received() const { return received_; }
  const SampleSet& one_way_delay_ms() const { return owd_ms_; }
  double jitter_ms() const { return jitter_ms_; }

 private:
  Host* host_;
  uint16_t port_;
  TimeUs measure_from_ = TimeUs::Zero();
  int64_t received_ = 0;
  int64_t measured_received_ = 0;
  int64_t measured_first_seq_ = -1;
  int64_t measured_last_seq_ = -1;
  SampleSet owd_ms_;
  double jitter_ms_ = 0;       // RFC 3550 smoothed estimator.
  double last_owd_ms_ = -1;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_APPS_VOIP_H_
