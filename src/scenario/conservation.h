// Cross-component packet-conservation ledger.
//
// The paper's fairness and latency results rest on exact queue/airtime
// bookkeeping (Sections 3.1-3.2): a packet that silently disappears between
// the qdisc, the per-TID MAC queues, the retry queues, the medium and the
// reorder buffers corrupts both the deficit accounting and the measured
// latency distributions. The ledger proves the global identity
//
//     injected == delivered + dropped + in_flight
//
// across the whole testbed:
//   injected   every packet created through Host::NewPacket,
//   delivered  packets demuxed to a terminal endpoint by any Host,
//   dropped    the sum of every layer's drop counter (qdisc/MAC-queue
//              drops, AP retry/unroutable drops, station uplink/retry
//              drops, wired-link tail drops, host port-demux failures,
//              reorder duplicate discards),
//   drained    packets destroyed by station-lifecycle churn (fault
//              injection): AP/backend teardown flushes, station uplink
//              flushes, reorder-buffer session closes and deliveries that
//              arrived for a detached station. Kept apart from `dropped`
//              because no queueing/AQM decision was involved — a churn test
//              asserting "CoDel dropped nothing" must not be confused by
//              teardown,
//   in_flight  PacketPool::outstanding() - live packets anywhere: resident
//              in queues, held by scheduled events, crossing the medium.
//
// Using the pool's outstanding count as ground truth means the identity
// holds at every audit sweep, not just at quiescence: a delivered or
// dropped packet is destroyed (returned to the pool) within the call that
// accounts for it, and everything still alive is in_flight by definition.
// Every Testbed pools its packets, so every Testbed builds the ledger.
//
// The per-layer tallies are kept in the snapshot so a violation message
// pinpoints which layer's books are off, which is what makes the audit
// actionable when a refactor of Algorithms 1-3 introduces a leak.

#ifndef AIRFAIR_SRC_SCENARIO_CONSERVATION_H_
#define AIRFAIR_SRC_SCENARIO_CONSERVATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/mac/access_point.h"
#include "src/mac/reorder.h"
#include "src/mac/station.h"
#include "src/net/host.h"
#include "src/net/packet_pool.h"
#include "src/net/wired_link.h"
#include "src/util/function_ref.h"

namespace airfair {

// One ledger snapshot: the identity's four right-hand terms plus the
// per-layer drop/drain breakdowns used in violation messages.
struct LedgerTallies {
  int64_t injected = 0;
  int64_t delivered = 0;
  int64_t dropped = 0;
  int64_t drained = 0;
  int64_t in_flight = 0;

  // Drop breakdown (sums to `dropped`).
  int64_t backend_drops = 0;       // AP queue backend (qdisc or MAC queues).
  int64_t ap_retry_drops = 0;      // Retry-limit exhaustion at the AP.
  int64_t ap_unroutable = 0;       // Downlink packets with no known station.
  int64_t station_drops = 0;       // Station uplink overflow + retry limit.
  int64_t link_drops = 0;          // Wired-link tail drops, both directions.
  int64_t host_undeliverable = 0;  // Port demux found no endpoint.
  int64_t reorder_duplicates = 0;  // Block-ack duplicate discards.

  // Drain breakdown (sums to `drained`).
  int64_t ap_churn_drained = 0;       // AP hw-queue purges + backend flushes
                                      // + downlink arrivals and built
                                      // aggregates for detached stations.
  int64_t station_churn_drained = 0;  // Station uplink flushes + detached
                                      // submissions/retries.
  int64_t reorder_churn_drained = 0;  // Session-close flushes + deliveries
                                      // routed to a detached receiver.

  // injected - delivered - dropped - drained - in_flight; zero when
  // conserved.
  int64_t Imbalance() const {
    return injected - delivered - dropped - drained - in_flight;
  }

  std::string ToString() const;
};

// Non-owning view over the testbed's components. All registered pointers
// must outlive the ledger; the testbed owns both and registers the ledger's
// check with its auditor.
class PacketLedger {
 public:
  void AddHost(const Host* host) { hosts_.push_back(host); }
  void AddStation(const WifiStation* station) { stations_.push_back(station); }
  void AddReorder(const ReorderBuffer* reorder) { reorders_.push_back(reorder); }
  void set_access_point(const AccessPoint* ap) { ap_ = ap; }
  void set_link(const WiredLink* link) { link_ = link; }
  void set_pool(const PacketPool* pool) { pool_ = pool; }

  // Test hook: extra packets to treat as injected (simulates a traffic
  // source that creates packets behind the ledger's back — i.e. a leak).
  void InjectImbalanceForTesting(int64_t packets) { injected_bias_ += packets; }

  LedgerTallies Tally() const;

  // The auditor check: fails once when the identity is violated, with the
  // full tally breakdown in the message. Returns violations found (0 or 1).
  int CheckInvariants(AuditFailFn fail) const;

 private:
  std::vector<const Host*> hosts_;
  std::vector<const WifiStation*> stations_;
  std::vector<const ReorderBuffer*> reorders_;
  const AccessPoint* ap_ = nullptr;
  const WiredLink* link_ = nullptr;
  const PacketPool* pool_ = nullptr;
  int64_t injected_bias_ = 0;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_SCENARIO_CONSERVATION_H_
