// The paper's 802.11-specific queueing structure (Section 3.1, Algorithms 1
// and 2) — the "FQ-MAC" intermediate queues of Figure 3.
//
// Innovations over plain FQ-CoDel, implemented here exactly as described:
//
//  * One fixed pool of flow queues is shared by *all* TIDs instead of a full
//    FQ-CoDel instance per TID. A queue is dynamically assigned to the TID of
//    the packets hashed into it.
//  * On a hash collision across TIDs (queue already active for another TID),
//    the packet goes to the TID's dedicated overflow queue (Algorithm 1,
//    lines 6-8).
//  * A single *global* packet limit covers all queues; on overflow, packets
//    are dropped from the globally longest queue, which prevents one flow —
//    in practice the slow station's — from locking out the others
//    (Algorithm 1, lines 2-4; Section 4.1.2).
//  * The FQ-CoDel DRR scheduler (deficits, new/old lists, sparse-flow
//    priority) runs per TID over that TID's active queues (Algorithm 2).
//    The pool, the lists and the DRR are src/aqm/flow_queues.h, with one
//    tin per TID, as mac80211's fq.h does it.
//  * CoDel parameters are resolved *per station* at dequeue time so the
//    Section 3.1.1 low-rate adaptation can apply.

#ifndef AIRFAIR_SRC_CORE_MAC_QUEUES_H_
#define AIRFAIR_SRC_CORE_MAC_QUEUES_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/aqm/codel.h"
#include "src/aqm/flow_queues.h"
#include "src/mac/frame.h"
#include "src/net/packet.h"
#include "src/util/function_ref.h"
#include "src/util/inline_function.h"
#include "src/util/time.h"

namespace airfair {

class MacQueues {
 public:
  struct Config {
    // mac80211's fq defaults: 4096 flow queues, 8192-packet global limit
    // (Figure 3), 300-byte DRR quantum. The constructor checks all three
    // are positive.
    int flow_queues = 4096;
    int global_limit_packets = 8192;
    int quantum_bytes = 300;
  };

  MacQueues(InlineFunction<TimeUs()> clock, const Config& config);

  MacQueues(const MacQueues&) = delete;
  MacQueues& operator=(const MacQueues&) = delete;

  // Resolves CoDel parameters for a station at dequeue time (wire this to
  // the CodelAdaptation module). Defaults to CoDelParams::Default() for all.
  void set_codel_params_provider(InlineFunction<CoDelParams(StationId)> fn) {
    codel_params_ = std::move(fn);
  }

  // Algorithm 1. The (station, tid) pair identifies the target TID queue
  // structure.
  void Enqueue(PacketPtr packet, StationId station, Tid tid);

  // Algorithm 2: FQ-CoDel dequeue across this TID's active queues.
  PacketPtr Dequeue(StationId station, Tid tid);

  // Size of the head-of-line packet the next Dequeue for this TID is likely
  // to return, or -1 when the TID has no backlog. Advisory (CoDel may drop),
  // used by the aggregation builder for its duration-cap check.
  int PeekBytes(StationId station, Tid tid) const;

  // Backlogged packets for one TID / overall.
  int TidBacklog(StationId station, Tid tid) const;
  int packet_count() const { return flows_.packet_count(); }

  // Station-lifecycle teardown (fault-injection churn): destroys every
  // packet resident in the station's TID structures (the flow queues they
  // own plus the per-TID overflow queues), releases the flow queues back to
  // the shared pool and erases the TID states. Flushed packets are counted
  // apart from drops, neither dequeued nor dropped by an AQM decision, so
  // the conservation audit still balances (enqueued == dequeued + dropped +
  // flushed + resident). Returns the number of packets destroyed.
  int64_t FlushStation(StationId station);

  int64_t codel_drops() const { return flows_.codel_drops(); }
  int64_t overflow_drops() const { return flows_.overflow_drops(); }
  int64_t drops() const { return flows_.drops(); }

  // Invariant audit (see src/sim/audit.h): the shared flow-queue pool
  // (FlowQueues::CheckInvariants) and every TID's tin (FlowQueues::CheckTin).
  // Calls `fail` once per violation and returns the number of calls.
  int CheckInvariants(AuditFailFn fail) const;

  // Test-only corruption hooks, used by tests/sim_audit_test.cc to prove the
  // auditor detects each invariant class.
  void CorruptConservationForTesting() { flows_.CorruptConservationForTesting(); }
  void CorruptBacklogHeapForTesting() { flows_.CorruptBacklogHeapForTesting(); }
  void CorruptDeficitForTesting();
  void CorruptCodelStateForTesting();
  void CorruptTidBacklogForTesting();

 private:
  struct TidQueue {
    FlowTin tin;
    FlowQueue overflow;  // Dedicated collision overflow queue (Algorithm 1).
  };

  TidQueue* FindTid(StationId station, Tid tid) const;
  TidQueue& GetOrCreateTid(StationId station, Tid tid);
  // The first queue scheduled on any TID, for the corruption hooks.
  FlowQueue* AnyScheduledQueue();

  Config config_;
  FlowQueues flows_;
  InlineFunction<CoDelParams(StationId)> codel_params_;
  // Dense TID index: slot station * kNumTids + tid, grown on first use.
  // Station ids are small dense integers, so direct indexing replaces the
  // former unordered_map — FindTid is two loads on the per-packet enqueue/
  // dequeue path instead of a hash probe, which matters at 256 stations.
  // nullptr = never created, or torn down by FlushStation.
  std::vector<std::unique_ptr<TidQueue>> tids_;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_CORE_MAC_QUEUES_H_
