// Access point MAC front-end.
//
// Owns, per access category: a hardware queue of prepared aggregates (depth
// two, matching the paper's "loops until the hardware queue becomes full (at
// two queued aggregates)") and a medium contender. The queueing policy is
// delegated to a pluggable ApQueueBackend so the four evaluated
// configurations differ only in the backend, like the kernel patches did.
//
// Downlink: wired ingress -> backend -> hardware queue -> medium.
// Uplink:   medium delivery -> wire egress (toward the server), with
//           received airtime reported to the backend for deficit accounting.

#ifndef AIRFAIR_SRC_MAC_ACCESS_POINT_H_
#define AIRFAIR_SRC_MAC_ACCESS_POINT_H_

#include <array>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "src/mac/ap_backend.h"
#include "src/mac/medium.h"
#include "src/mac/reorder.h"
#include "src/mac/station_table.h"
#include "src/sim/simulation.h"
#include "src/util/inline_function.h"
#include "src/util/stats.h"

namespace airfair {

class AccessPoint {
 public:
  AccessPoint(Simulation* sim, WifiMedium* medium, const StationTable* stations,
              uint32_t node_id);

  AccessPoint(const AccessPoint&) = delete;
  AccessPoint& operator=(const AccessPoint&) = delete;

  // Must be set before traffic flows.
  void SetBackend(std::unique_ptr<ApQueueBackend> backend);
  ApQueueBackend* backend() { return backend_.get(); }
  const ApQueueBackend* backend() const { return backend_.get(); }

  uint32_t node_id() const { return node_id_; }

  // Downlink ingress from the wired side.
  void FromWire(PacketPtr packet);

  // Uplink: packets received over the air addressed beyond the AP.
  void FromWifi(PacketPtr packet);
  void set_wire_egress(InlineFunction<void(PacketPtr)> fn) { wire_egress_ = std::move(fn); }

  // Received-airtime report from the medium (wire this to
  // WifiMedium::set_rx_airtime_handler).
  void OnRxAirtime(StationId station, AccessCategory ac, TimeUs airtime);

  // In-kernel-style airtime estimate per station (sum of computed TX
  // durations + observed RX durations). Compared against the medium's
  // ground-truth ledger in tests, like the paper's capture-based validation.
  TimeUs EstimatedAirtime(StationId station) const;

  // Mean A-MPDU aggregation size observed per station (Table 1 input).
  const RunningStats& AggregationStats(StationId station) const;

  // Observes every completed downlink transmission with the number of MPDUs
  // the block-ack confirmed. Rate-control integrations hang off this.
  using TxObserver = InlineFunction<void(const TxDescriptor& tx, int succeeded)>;
  void set_tx_observer(TxObserver observer) { tx_observer_ = std::move(observer); }

  // Station-lifecycle teardown (fault-injection churn). Call after marking
  // the station inactive in the StationTable. Purges the station's prepared
  // aggregates from every hardware queue, flushes its backend state
  // (FlushStation) and closes the transmitter half of its block-ack sessions
  // (MacSequencer::ResetReceiver) so a rejoin restarts the sequence space at
  // zero, in step with the receiver-side reorder flush. An aggregate already
  // handed to the medium finishes on the air: its successful MPDUs are
  // drained at delivery by the inactive-station check, its failed MPDUs by
  // the inactive check in the retry path. Packets a backend cannot flush
  // (the baseline qdiscs') are drained when it builds an aggregate from
  // them, before the aggregate reaches the hardware queue. All packets
  // destroyed here are accounted in churn_drained().
  void DetachStation(StationId station);

  int64_t retry_drops() const { return retry_drops_; }
  int64_t unroutable_drops() const { return unroutable_; }
  // Packets destroyed by churn teardown: hardware-queue purges, backend
  // flushes, and downlink arrivals, built aggregates and retries for a
  // detached station. Feeds the conservation ledger's `drained` term.
  int64_t churn_drained() const { return churn_drained_; }

 private:
  class AcFrontEnd : public MediumClient {
   public:
    AcFrontEnd(AccessPoint* ap, AccessCategory ac) : ap_(ap), ac_(ac) {}

    bool HasPending() override { return !hw_queue_.empty(); }
    TxDescriptor BuildTransmission() override;
    void OnTxComplete(TxDescriptor tx, bool collision) override;

    AccessPoint* ap_;
    AccessCategory ac_;
    std::deque<TxDescriptor> hw_queue_;
    WifiMedium::ContenderId contender_id_ = 0;
  };

  // The paper's schedule() entry point: fills the hardware queue from the
  // backend. Called when packets arrive and when transmissions complete.
  void FillHardwareQueue(AccessCategory ac);
  void HandleTxComplete(AcFrontEnd* front, TxDescriptor tx);
  void EnsureStationStats(StationId station);

  Simulation* sim_;
  WifiMedium* medium_;
  const StationTable* stations_;
  uint32_t node_id_;
  std::unique_ptr<ApQueueBackend> backend_;
  std::array<std::unique_ptr<AcFrontEnd>, kNumAccessCategories> fronts_;
  InlineFunction<void(PacketPtr)> wire_egress_;
  TxObserver tx_observer_;

  MacSequencer sequencer_;
  std::vector<RunningStats> aggregation_by_station_;
  std::vector<TimeUs> estimated_airtime_;
  int64_t retry_drops_ = 0;
  int64_t unroutable_ = 0;
  int64_t churn_drained_ = 0;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_MAC_ACCESS_POINT_H_
