// The interface between the access point's MAC front-end and a queueing
// backend. The four configurations the paper evaluates are four backends:
//
//   FIFO            -> QdiscBackend over FifoQdisc        (src/mac)
//   FQ-CoDel        -> QdiscBackend over FqCodelQdisc     (src/mac)
//   FQ-MAC          -> MacQueueBackend                    (src/core)
//   Airtime fair FQ -> MacQueueBackend + AirtimeScheduler (src/core)

#ifndef AIRFAIR_SRC_MAC_AP_BACKEND_H_
#define AIRFAIR_SRC_MAC_AP_BACKEND_H_

#include <cstdint>

#include "src/mac/frame.h"
#include "src/net/packet.h"
#include "src/util/time.h"

namespace airfair {

class ApQueueBackend {
 public:
  virtual ~ApQueueBackend() = default;

  // Downlink packet from the wired side, already resolved to a station.
  virtual void Enqueue(PacketPtr packet, StationId station) = 0;

  // True when traffic (fresh or retry) is available for `ac`.
  virtual bool HasPending(AccessCategory ac) = 0;

  // Builds the next transmission for `ac`, choosing the station/TID per the
  // backend's scheduling policy. Empty descriptor when nothing is eligible.
  virtual TxDescriptor BuildNext(AccessCategory ac) = 0;

  // Returns a failed MPDU for retransmission (retry queues bypass the normal
  // queue structure, mirroring retry_q in the paper's Figures 2-3).
  virtual void Requeue(StationId station, Tid tid, Mpdu mpdu) = 0;

  // Airtime feedback for deficit accounting. Only the airtime-fair backend
  // uses these; others ignore them.
  virtual void AccountTxAirtime(StationId station, AccessCategory ac, TimeUs airtime) = 0;
  virtual void AccountRxAirtime(StationId station, AccessCategory ac, TimeUs airtime) = 0;

  // Station-lifecycle teardown (fault-injection churn): destroys every
  // packet the backend still holds for `station` (flow queues, overflow and
  // retry queues alike) and retires any per-station scheduler state so a
  // later rejoin starts from a clean slate. Returns the number of packets
  // destroyed, which the caller accounts under the ledger's `drained`
  // category. The default is a no-op: shared-FIFO backends (the paper's
  // baseline qdiscs) have no per-station structure to tear down. Packets
  // they still hold for a departed station stay queued until BuildNext puts
  // them in an aggregate, which AccessPoint::FillHardwareQueue then drains
  // instead of transmitting.
  virtual int64_t FlushStation(StationId station) {
    (void)station;
    return 0;
  }

  // Total packets queued (diagnostics).
  virtual int packet_count() const = 0;
  virtual int64_t drops() const = 0;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_MAC_AP_BACKEND_H_
