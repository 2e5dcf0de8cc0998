// MacQueueBackend: the paper's full solution as an access-point queueing
// backend.
//
// Combines the per-TID FQ-CoDel structure (Algorithms 1-2), per-station
// retry queues, the per-station CoDel parameter adaptation, and — when
// airtime fairness is enabled — the deficit scheduler (Algorithm 3).
// With airtime_fairness == false this is the paper's "FQ-MAC"
// configuration (queue restructuring only, round-robin between TIDs);
// with it enabled it is "Airtime fair FQ".

#ifndef AIRFAIR_SRC_CORE_MAC_QUEUE_BACKEND_H_
#define AIRFAIR_SRC_CORE_MAC_QUEUE_BACKEND_H_

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/core/airtime_scheduler.h"
#include "src/core/codel_adaptation.h"
#include "src/core/mac_queues.h"
#include "src/mac/ap_backend.h"
#include "src/mac/station_table.h"
#include "src/sim/audit.h"
#include "src/sim/simulation.h"

namespace airfair {

class MacQueueBackend : public ApQueueBackend {
 public:
  // The MAC queues always run mac80211's defaults (MacQueues::Config()).
  struct Config {
    bool airtime_fairness = false;
    AirtimeScheduler::Config scheduler;
    bool codel_adaptation = true;
    // Charge received airtime to station deficits (the paper's improvement
    // #2; disabling it is an ablation).
    bool rx_airtime_accounting = true;
  };

  MacQueueBackend(Simulation* sim, const StationTable* stations, uint32_t ap_node_id,
                  const Config& config);
  MacQueueBackend(Simulation* sim, const StationTable* stations, uint32_t ap_node_id);

  void Enqueue(PacketPtr packet, StationId station) override;
  bool HasPending(AccessCategory ac) override;
  TxDescriptor BuildNext(AccessCategory ac) override;
  void Requeue(StationId station, Tid tid, Mpdu mpdu) override;
  void AccountTxAirtime(StationId station, AccessCategory ac, TimeUs airtime) override;
  void AccountRxAirtime(StationId station, AccessCategory ac, TimeUs airtime) override;
  // Churn teardown: flushes the station's TID structures out of MacQueues,
  // destroys its retry queues, removes its keys from the FQ-MAC round-robin
  // ring and retires its deficit state from the airtime scheduler.
  int64_t FlushStation(StationId station) override;
  int packet_count() const override;
  int64_t drops() const override { return queues_.drops(); }

  const MacQueues& queues() const { return queues_; }
  const AirtimeScheduler& scheduler() const { return scheduler_; }
  const CodelAdaptation& adaptation() const { return adaptation_; }

  // Mutable access for tests that inject invariant violations
  // (tests/sim_audit_test.cc).
  MacQueues& queues_for_testing() { return queues_; }
  AirtimeScheduler& scheduler_for_testing() { return scheduler_; }
  CodelAdaptation& adaptation_for_testing() { return adaptation_; }

  // Registers this backend's invariant checks with `auditor`:
  //   mac_queues         Algorithms 1-2 structure + packet conservation
  //   airtime_scheduler  Algorithm 3 deficit bounds + anti-gaming state
  //                      (only when airtime fairness is enabled)
  //   codel_adaptation   Section 3.1.1 threshold + hysteresis
  //   backend_retry      retry-queue bookkeeping (non-negative, consistent
  //                      with packet_count)
  // The backend must outlive the auditor's sweeps.
  void RegisterAudits(Auditor* auditor) const;

 private:
  bool HasData(StationId station, AccessCategory ac) const;
  Tid FirstBackloggedTid(StationId station, AccessCategory ac) const;
  TxDescriptor BuildFor(StationId station, Tid tid);
  void MarkBacklogged(StationId station, Tid tid);
  int KeyOf(StationId station, Tid tid) const { return station * kNumTids + tid; }

  // Dense (station, tid)-keyed retry access: keys are small dense integers,
  // so a grow-on-demand vector replaces the former unordered_map/set —
  // every per-frame retry probe and ring-membership test is an index load
  // instead of a hash lookup, which matters at 256 stations.
  const std::deque<Mpdu>* FindRetry(int key) const {
    return key >= 0 && key < static_cast<int>(retry_.size()) ? &retry_[static_cast<size_t>(key)]
                                                             : nullptr;
  }
  std::deque<Mpdu>& RetrySlot(int key) {
    if (key >= static_cast<int>(retry_.size())) {
      retry_.resize(static_cast<size_t>(key) + 1);
    }
    return retry_[static_cast<size_t>(key)];
  }
  bool InRing(int key) const {
    return key >= 0 && key < static_cast<int>(in_ring_.size()) &&
           in_ring_[static_cast<size_t>(key)] != 0;
  }
  void SetInRing(int key, bool present) {
    if (key >= static_cast<int>(in_ring_.size())) {
      in_ring_.resize(static_cast<size_t>(key) + 1, 0);
    }
    in_ring_[static_cast<size_t>(key)] = present ? 1 : 0;
  }

  Simulation* sim_;
  const StationTable* stations_;
  uint32_t ap_node_id_;
  Config config_;

  MacQueues queues_;
  AirtimeScheduler scheduler_;
  CodelAdaptation adaptation_;

  // Retry queues indexed by KeyOf(station, tid); empty deques stand in for
  // the map's "absent" state. `retry_packets_` is the running total so
  // packet_count() — polled every sample tick — is O(1) instead of a
  // full-map walk (the backend_retry audit still recounts from scratch).
  std::vector<std::deque<Mpdu>> retry_;
  int retry_packets_ = 0;
  // Round-robin state for the FQ-MAC (non-airtime) mode; in_ring_ is a
  // dense membership bitmap over the same keys.
  std::array<std::deque<int>, kNumAccessCategories> ring_;
  std::vector<uint8_t> in_ring_;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_CORE_MAC_QUEUE_BACKEND_H_
