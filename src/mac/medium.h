// Single-channel CSMA/CA (DCF/EDCA) medium model.
//
// Contenders — one per (node, access category) — register with their EDCA
// parameters. When the medium is idle, each backlogged contender counts down
// AIFS plus a random backoff drawn from its contention window; the earliest
// wins a transmission opportunity, ties collide (both burn their airtime,
// double their windows and retry). Losers keep their residual backoff
// (binary-exponential-backoff freeze semantics, resolved at round
// granularity).
//
// This is the mechanism that makes the MAC *throughput-fair* — every
// backlogged contender wins equally often regardless of its PHY rate —
// which is precisely what creates the 802.11 performance anomaly the paper
// eliminates at the queueing layer above.
//
// The medium also keeps the ground-truth airtime ledger per station (the
// equivalent of the paper's capture-based measurement used to validate the
// in-kernel accounting to within 1.5%).

#ifndef AIRFAIR_SRC_MAC_MEDIUM_H_
#define AIRFAIR_SRC_MAC_MEDIUM_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/mac/frame.h"
#include "src/mac/wifi_constants.h"
#include "src/sim/simulation.h"
#include "src/util/inline_function.h"
#include "src/util/time.h"

namespace airfair {

// Implemented by anything that transmits: the access point's per-AC MAC
// front-end and each station's uplink MAC.
class MediumClient {
 public:
  virtual ~MediumClient() = default;

  // True when at least one prepared frame is ready to transmit.
  virtual bool HasPending() = 0;

  // Called when this contender wins a TXOP. May return an empty descriptor
  // to decline (e.g. the queue drained since NotifyBacklog).
  virtual TxDescriptor BuildTransmission() = 0;

  // Transmission feedback. Successfully delivered MPDUs have had their
  // packets moved out (packet == nullptr); failed MPDUs (errored or
  // collided) still hold their packets and should be retried or dropped by
  // the client. `collision` is true when the failure was a whole-frame
  // collision rather than per-MPDU channel errors.
  virtual void OnTxComplete(TxDescriptor tx, bool collision) = 0;
};

class WifiMedium {
 public:
  explicit WifiMedium(Simulation* sim);

  using ContenderId = int;

  // Registers a contender. `from_ap` marks downlink transmitters; uplink
  // (station-originated) transmissions additionally invoke the RX-airtime
  // handler so the AP scheduler can account received airtime.
  ContenderId Register(MediumClient* client, const EdcaParams& edca, bool from_ap);

  // The client must call this whenever it transitions from empty to
  // backlogged. Spurious calls are harmless.
  void NotifyBacklog(ContenderId id);

  // Delivery of successfully received MPDUs: (packet, transmitter node,
  // receiver node). The transmitter is needed by the receive-side reorder
  // buffer to identify the MAC sequence space.
  void set_deliver(InlineFunction<void(PacketPtr, uint32_t src_node, uint32_t dst_node)> fn) {
    deliver_ = std::move(fn);
  }

  // Invoked at completion of every station-originated transmission with the
  // airtime it consumed (models the AP observing received frames).
  void set_rx_airtime_handler(InlineFunction<void(StationId, AccessCategory, TimeUs)> fn) {
    rx_airtime_ = std::move(fn);
  }

  // Per-MPDU error probability for frames to/from `station`, either fixed
  // or as a function of the transmission rate (for SNR-based channel models
  // feeding rate control).
  void SetErrorRate(StationId station, double per_mpdu_error_probability);
  void SetErrorModel(StationId station, InlineFunction<double(const PhyRate&)> model);

  // --- ground-truth airtime ledger ---
  TimeUs AirtimeUsed(StationId station) const;
  std::vector<TimeUs> AirtimeSnapshot() const { return airtime_by_station_; }
  // Allocation-free view of the same ledger (indexed by station id; may be
  // shorter than the station table until a station first transmits). Used
  // by the Testbed's timeseries sampler, which must not allocate in steady
  // state.
  const std::vector<TimeUs>& airtime_by_station() const { return airtime_by_station_; }
  TimeUs busy_time() const { return busy_time_; }

  // --- statistics ---
  int64_t transmissions() const { return transmissions_; }
  int64_t collisions() const { return collisions_; }
  int64_t mpdu_errors() const { return mpdu_errors_; }

 private:
  struct Contender {
    MediumClient* client = nullptr;
    EdcaParams edca;
    bool from_ap = false;
    int cw = 15;             // Current contention window.
    int backoff_slots = -1;  // -1: not drawn yet for this attempt.
  };

  bool IsBacklogged(ContenderId id) const;
  void SetBacklogged(ContenderId id, bool backlogged);
  void RestartContention();
  void ResolveGrant(int defer_slots);
  void CompleteTransmissions(std::vector<std::pair<int, TxDescriptor>> transmissions,
                             bool collision);
  void ChargeAirtime(StationId station, TimeUs duration);

  Simulation* sim_;
  std::vector<Contender> contenders_;
  // One bit per contender, set while it is backlogged: bit i of word i / 64.
  // The per-grant passes visit only set bits, in id order, so a grant costs
  // O(backlogged contenders) plus one load per 64 registered ones.
  std::vector<uint64_t> backlog_bits_;
  InlineFunction<void(PacketPtr, uint32_t, uint32_t)> deliver_;
  InlineFunction<void(StationId, AccessCategory, TimeUs)> rx_airtime_;
  std::vector<InlineFunction<double(const PhyRate&)>> error_model_by_station_;
  std::vector<TimeUs> airtime_by_station_;

  bool busy_ = false;
  // Scratch buffers recycled across contention rounds (steady state: zero
  // allocations per grant).
  std::vector<int> winner_scratch_;
  std::vector<std::pair<int, TxDescriptor>> tx_scratch_;
  EventHandle grant_event_;
  TimeUs busy_time_ = TimeUs::Zero();
  int64_t transmissions_ = 0;
  int64_t collisions_ = 0;
  int64_t mpdu_errors_ = 0;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_MAC_MEDIUM_H_
