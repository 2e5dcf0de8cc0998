// Client station MAC.
//
// Stations are deliberately *unmodified* — the paper's solution works purely
// at the access point ("doesn't require any changes to clients"). A station
// therefore runs a plain per-AC FIFO (the stock pfifo of length 1000) with
// standard aggregation and retry behaviour for its uplink traffic (TCP ACKs,
// upload flows, ping replies).

#ifndef AIRFAIR_SRC_MAC_STATION_H_
#define AIRFAIR_SRC_MAC_STATION_H_

#include <array>
#include <deque>
#include <memory>

#include "src/mac/medium.h"
#include "src/mac/reorder.h"
#include "src/mac/station_table.h"
#include "src/net/host.h"
#include "src/sim/simulation.h"

namespace airfair {

class WifiStation {
 public:
  WifiStation(Simulation* sim, WifiMedium* medium, const StationTable* stations, StationId id,
              uint32_t ap_node_id);

  WifiStation(const WifiStation&) = delete;
  WifiStation& operator=(const WifiStation&) = delete;

  StationId id() const { return id_; }

  // Uplink entry point; wire this as the station Host's egress.
  void SendUplink(PacketPtr packet);

  // Station-lifecycle churn (fault injection). Detach destroys every queued
  // uplink packet (FIFOs and retry queues, accounted in churn_drained()) and
  // closes the uplink half of the block-ack session toward the AP so a
  // rejoin restarts the sequence space at zero, matching the AP-side reorder
  // flush. While detached, uplink submissions and in-flight retry returns
  // are drained instead of queued. Attach clears the flag; the traffic
  // sources keep running throughout (the Testbed models churn as link-level
  // presence, not application restarts).
  void Detach();
  void Attach() { detached_ = false; }
  bool detached() const { return detached_; }

  int64_t uplink_drops() const { return uplink_drops_; }
  int64_t retry_drops() const { return retry_drops_; }
  // Packets destroyed by churn teardown; feeds the ledger's `drained` term.
  int64_t churn_drained() const { return churn_drained_; }

 private:
  class AcQueue : public MediumClient {
   public:
    AcQueue(WifiStation* station, AccessCategory ac) : station_(station), ac_(ac) {}

    bool HasPending() override { return !fifo_.empty() || !retry_.empty(); }
    TxDescriptor BuildTransmission() override;
    void OnTxComplete(TxDescriptor tx, bool collision) override;

    WifiStation* station_;
    AccessCategory ac_;
    std::deque<PacketPtr> fifo_;
    std::deque<Mpdu> retry_;
    WifiMedium::ContenderId contender_id_ = 0;
  };

  Simulation* sim_;
  WifiMedium* medium_;
  const StationTable* stations_;
  StationId id_;
  uint32_t ap_node_id_;
  MacSequencer sequencer_;
  std::array<std::unique_ptr<AcQueue>, kNumAccessCategories> acs_;
  int64_t uplink_drops_ = 0;
  int64_t retry_drops_ = 0;
  int64_t churn_drained_ = 0;
  bool detached_ = false;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_MAC_STATION_H_
