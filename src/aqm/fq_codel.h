// FQ-CoDel qdisc (RFC 8290), the paper's second baseline configuration.
//
// Flow queueing with a deficit round-robin scheduler, per-flow CoDel, the
// sparse-flow optimisation (new-flow list gets priority for one round), and
// drop-from-fattest-queue on overflow. Matches the Linux fq_codel defaults:
// 1024 flow queues, 10240-packet limit, quantum = one MTU.
//
// The paper's contribution in src/core reuses these mechanisms but groups the
// flow queues per TID so aggregation stays possible — see
// src/core/mac_queues.h.

#ifndef AIRFAIR_SRC_AQM_FQ_CODEL_H_
#define AIRFAIR_SRC_AQM_FQ_CODEL_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/aqm/codel.h"
#include "src/aqm/queue_discipline.h"
#include "src/util/backlog_heap.h"
#include "src/util/function_ref.h"
#include "src/util/inline_function.h"
#include "src/util/intrusive_list.h"
#include "src/util/time.h"

namespace airfair {

// The constructor checks flows > 0, limit_packets >= 0 and quantum_bytes > 0.
struct FqCodelConfig {
  int flows = 1024;
  int limit_packets = 10240;
  int quantum_bytes = 1514;
};

class FqCodelQdisc : public Qdisc {
 public:
  FqCodelQdisc(InlineFunction<TimeUs()> clock, const FqCodelConfig& config);

  void Enqueue(PacketPtr packet) override;
  PacketPtr Dequeue() override;
  int packet_count() const override { return total_packets_; }

  // Number of distinct flow queues currently backlogged.
  int active_flows() const { return static_cast<int>(backlog_.size()); }
  int64_t codel_drops() const { return codel_drops_; }
  int64_t overflow_drops() const { return overflow_drops_; }

  // Lifetime accounting for the conservation audit.
  int64_t enqueued_total() const { return enqueued_total_; }
  int64_t dequeued_total() const { return dequeued_total_; }

  // Invariant audit (see src/sim/audit.h). Verifies, calling `fail` once per
  // violation and returning the violation count: packet conservation,
  // per-queue byte counters, non-empty queues being scheduled, DRR deficit
  // bounds, drop-counter consistency, intrusive-list integrity, backlog-heap
  // integrity and membership (exactly the non-empty queues, tie = queue
  // index) and per-flow CoDel state validity.
  int CheckInvariants(AuditFailFn fail) const;

  // Test-only corruption hooks for tests/sim_audit_test.cc.
  void CorruptConservationForTesting() { ++enqueued_total_; }
  void CorruptBacklogHeapForTesting();

 private:
  struct FlowQueue {
    std::deque<PacketPtr> packets;
    int64_t bytes = 0;
    int64_t deficit = 0;
    CoDelState codel;
    ListNode node;  // On new_flows_ or old_flows_ when backlogged.
    HeapSlot backlog_slot;  // In backlog_ when non-empty.
  };

  void DropFromFattest();
  // Pops the head packet of `q` (nullptr when empty), keeping the byte count,
  // the packet count and backlog_ in step.
  PacketPtr PullHead(FlowQueue& q);

  InlineFunction<TimeUs()> clock_;
  FqCodelConfig config_;
  std::vector<FlowQueue> queues_;
  IntrusiveList<FlowQueue, &FlowQueue::node> new_flows_;
  IntrusiveList<FlowQueue, &FlowQueue::node> old_flows_;
  // Every non-empty flow queue, fattest on top; the tie is the queue index,
  // so among equal backlogs the lowest index is the victim.
  BacklogHeap<FlowQueue, &FlowQueue::bytes, &FlowQueue::backlog_slot> backlog_;
  int total_packets_ = 0;
  int64_t codel_drops_ = 0;
  int64_t overflow_drops_ = 0;
  int64_t enqueued_total_ = 0;
  int64_t dequeued_total_ = 0;
  int32_t max_packet_bytes_seen_ = 0;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_AQM_FQ_CODEL_H_
