// FQ-CoDel's flow-queue machinery, written once for its two users: the
// FQ-CoDel qdisc (RFC 8290) and the paper's MAC queues (Section 3.1,
// Algorithms 1 and 2).
//
// Shaped like mac80211's fq.h: packets hash into a fixed pool of flow
// queues; each queue belongs to at most one "tin" at a time, and each tin
// runs its own deficit round-robin over a new-flows and an old-flows list,
// with CoDel per queue. One backlog heap spans every non-empty queue of
// every tin, so drop-from-fattest finds the globally longest queue.
//
// Policy stays with the users:
//  * FqCodelQdisc (src/aqm/fq_codel.h) is one tin over the whole pool. It
//    enqueues, then drops while over its limit; equal backlogs tie by pool
//    index.
//  * MacQueues (src/core/mac_queues.h) is one tin per (station, TID), each
//    with its own overflow queue for cross-TID hash collisions. It drops
//    while at its global limit, then enqueues; equal backlogs tie by the
//    order in which the queues joined the backlog.

#ifndef AIRFAIR_SRC_AQM_FLOW_QUEUES_H_
#define AIRFAIR_SRC_AQM_FLOW_QUEUES_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/aqm/codel.h"
#include "src/net/packet.h"
#include "src/util/backlog_heap.h"
#include "src/util/function_ref.h"
#include "src/util/inline_function.h"
#include "src/util/intrusive_list.h"
#include "src/util/time.h"

namespace airfair {

struct FlowTin;

struct FlowQueue {
  std::deque<PacketPtr> packets;
  int64_t bytes = 0;
  int64_t deficit = 0;
  CoDelState codel;
  FlowTin* tin = nullptr;  // Owning tin while scheduled; nullptr when free.
  ListNode node;           // On the owning tin's new or old list.
  HeapSlot backlog_slot;   // In the backlog heap while non-empty.
};

struct FlowTin {
  IntrusiveList<FlowQueue, &FlowQueue::node> new_flows;
  IntrusiveList<FlowQueue, &FlowQueue::node> old_flows;
  int backlog_packets = 0;  // Packets held by the queues this tin owns.
  int station = -1;         // Carried on trace records; -1 above the driver.
};

class FlowQueues {
 public:
  FlowQueues(InlineFunction<TimeUs()> clock, int queues, int quantum_bytes);

  FlowQueues(const FlowQueues&) = delete;
  FlowQueues& operator=(const FlowQueues&) = delete;

  // Index of the pool queue the packet's flow hashes to, and that queue.
  uint64_t Index(const Packet& packet) const;
  FlowQueue& queue(uint64_t index) { return pool_[index]; }

  // Stamps `packet` and appends it to `queue`, which `tin` then owns. A
  // queue joining the backlog heap takes `tie`: among equal backlogs the
  // lower tie is dropped first. A queue not yet scheduled enters the tin's
  // new list with one quantum (the sparse-flow priority).
  void Push(FlowQueue& queue, FlowTin& tin, PacketPtr packet, uint64_t tie);

  // Algorithm 2: deficit round-robin over the tin's new, then old flows,
  // with per-queue CoDel under `params`. A queue that drains on the new list
  // moves to the old list; one that drains on the old list is released from
  // the tin. nullptr when the tin has nothing left to send.
  PacketPtr Dequeue(FlowTin& tin, const CoDelParams& params);

  // Drops the head packet of the longest queue of any tin.
  void DropFattest();

  // Destroys every packet in `queue`, releases it from its tin and gives it
  // a fresh CoDel session. Returns the number destroyed (see flushed_total).
  int64_t Flush(FlowQueue& queue);

  int packet_count() const { return total_packets_; }
  int active_queues() const { return static_cast<int>(backlog_.size()); }
  int64_t codel_drops() const { return codel_drops_; }
  int64_t overflow_drops() const { return overflow_drops_; }
  int64_t drops() const { return codel_drops_ + overflow_drops_; }
  int64_t enqueued_total() const { return enqueued_total_; }
  int64_t dequeued_total() const { return dequeued_total_; }
  int64_t flushed_total() const { return flushed_total_; }

  // Invariant audits (see src/sim/audit.h). Each calls `fail` once per
  // violation and returns the number of calls.
  //
  // CheckInvariants covers the pool: packet conservation (enqueued ==
  // dequeued + dropped + flushed + resident), backlog-heap structure and
  // membership, per-queue byte counters, and every non-empty pool queue
  // being scheduled.
  int CheckInvariants(AuditFailFn fail) const;
  // CheckTin covers one tin: list integrity, each listed queue owned by the
  // tin and in the heap when non-empty, DRR deficit bounds (at most one
  // quantum, and above minus the largest packet seen, since one dequeue
  // charges one packet against a positive deficit), CoDel state validity
  // and the tin's backlog counter.
  int CheckTin(const FlowTin& tin, AuditFailFn fail) const;

  // Test-only corruption hooks for tests/sim_audit_test.cc.
  void CorruptConservationForTesting() { ++enqueued_total_; }
  void CorruptBacklogHeapForTesting();

 private:
  // Pops the head packet of `queue` (nullptr when empty), keeping the
  // counters and the backlog heap in step.
  PacketPtr PullHead(FlowQueue& queue);

  InlineFunction<TimeUs()> clock_;
  int quantum_bytes_;
  std::vector<FlowQueue> pool_;
  // Every non-empty queue, longest on top, ties as the users stamp them.
  BacklogHeap<FlowQueue, &FlowQueue::bytes, &FlowQueue::backlog_slot> backlog_;
  int total_packets_ = 0;
  int64_t codel_drops_ = 0;
  int64_t overflow_drops_ = 0;
  int64_t enqueued_total_ = 0;
  int64_t dequeued_total_ = 0;
  int64_t flushed_total_ = 0;
  int32_t max_packet_bytes_seen_ = 0;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_AQM_FLOW_QUEUES_H_
