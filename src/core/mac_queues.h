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
//  * CoDel parameters are resolved *per station* at dequeue time so the
//    Section 3.1.1 low-rate adaptation can apply.

#ifndef AIRFAIR_SRC_CORE_MAC_QUEUES_H_
#define AIRFAIR_SRC_CORE_MAC_QUEUES_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "src/aqm/codel.h"
#include "src/mac/frame.h"
#include "src/net/packet.h"
#include "src/util/backlog_heap.h"
#include "src/util/function_ref.h"
#include "src/util/inline_function.h"
#include "src/util/intrusive_list.h"
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
  int packet_count() const { return total_packets_; }

  // Station-lifecycle teardown (fault-injection churn): destroys every
  // packet resident in the station's TID structures (flow queues assigned to
  // them plus the per-TID overflow queues), releases the flow queues back to
  // the shared pool and erases the TID states. Flushed packets are tracked
  // in flushed_total_ so the conservation recount still balances
  // (enqueued == dequeued + dropped + flushed + resident). Returns the
  // number of packets destroyed.
  int64_t FlushStation(StationId station);

  // Packets destroyed by FlushStation (they were neither dequeued nor
  // dropped by an AQM decision).
  int64_t flushed_total() const { return flushed_total_; }

  int64_t codel_drops() const { return codel_drops_; }
  int64_t overflow_drops() const { return overflow_drops_; }
  int64_t drops() const { return codel_drops_ + overflow_drops_; }

  // Lifetime accounting for the conservation audit: every packet handed to
  // Enqueue is eventually dequeued, dropped, or still resident.
  int64_t enqueued_total() const { return enqueued_total_; }
  int64_t dequeued_total() const { return dequeued_total_; }

  // Invariant audit (see src/sim/audit.h). Verifies, calling `fail` once per
  // violation and returning the violation count:
  //  * packet conservation: enqueued == dequeued + dropped + resident,
  //    including the per-TID overflow queues;
  //  * the backlog heap holds exactly the non-empty queues, its position
  //    back-pointers and parent/child order are intact, and its per-queue
  //    byte counters match the packets held;
  //  * per-TID backlog counters match a recount;
  //  * scheduled-queue/TID assignment consistency and intrusive-list
  //    structural integrity (new and old lists);
  //  * FQ-CoDel deficit bounds: deficit <= quantum always, and a queue's
  //    deficit never falls to -max_packet_size or below (one dequeue charges
  //    at most one packet against a positive deficit);
  //  * per-flow CoDel state-machine validity.
  int CheckInvariants(AuditFailFn fail) const;

  // Test-only corruption hooks, used by tests/sim_audit_test.cc to prove the
  // auditor detects each invariant class.
  void CorruptConservationForTesting() { ++enqueued_total_; }
  void CorruptDeficitForTesting();
  void CorruptCodelStateForTesting();
  void CorruptTidBacklogForTesting();
  void CorruptBacklogHeapForTesting();

 private:
  struct TidQueue;

  struct FlowQueue {
    std::deque<PacketPtr> packets;
    int64_t bytes = 0;
    int64_t deficit = 0;
    CoDelState codel;
    TidQueue* tid = nullptr;  // Current TID assignment; nullptr when free.
    ListNode sched_node;      // On the owning TID's new/old list when active.
    HeapSlot backlog_slot;    // In the backlog heap when non-empty.
  };

  struct TidQueue {
    StationId station = kNoStation;
    Tid tid = 0;
    FlowQueue overflow;  // Dedicated collision overflow queue (Algorithm 1).
    IntrusiveList<FlowQueue, &FlowQueue::sched_node> new_queues;
    IntrusiveList<FlowQueue, &FlowQueue::sched_node> old_queues;
    int backlog_packets = 0;
  };

  TidQueue* FindTid(StationId station, Tid tid) const;
  TidQueue& GetOrCreateTid(StationId station, Tid tid);
  void DropFromLongestQueue();
  PacketPtr PullHead(FlowQueue& queue);
  CoDelParams ParamsFor(StationId station) const;

  InlineFunction<TimeUs()> clock_;
  Config config_;
  InlineFunction<CoDelParams(StationId)> codel_params_;
  std::vector<FlowQueue> pool_;
  // Dense TID index: slot station * kNumTids + tid, grown on first use.
  // Station ids are small dense integers, so direct indexing replaces the
  // former unordered_map — FindTid is two loads on the per-packet enqueue/
  // dequeue path instead of a hash probe, which matters at 256 stations.
  // nullptr = never created, or torn down by FlushStation.
  std::vector<std::unique_ptr<TidQueue>> tids_;
  // Every non-empty queue (flow and overflow queues alike), longest on top.
  // The tie is a join counter stamped when a queue goes from empty to
  // non-empty, so among equal backlogs the earliest joiner is the victim.
  BacklogHeap<FlowQueue, &FlowQueue::bytes, &FlowQueue::backlog_slot> backlog_;
  uint64_t joins_ = 0;
  int total_packets_ = 0;
  int64_t codel_drops_ = 0;
  int64_t overflow_drops_ = 0;
  int64_t enqueued_total_ = 0;
  int64_t dequeued_total_ = 0;
  int64_t flushed_total_ = 0;
  // Largest packet ever enqueued; bounds how far a deficit may go negative.
  int32_t max_packet_bytes_seen_ = 0;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_CORE_MAC_QUEUES_H_
