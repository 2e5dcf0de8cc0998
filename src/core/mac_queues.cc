#include "src/core/mac_queues.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>

#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/flow_hash.h"

namespace airfair {
namespace {

// Each bad value would hang or fault on the packet path instead: no flow
// queue to hash into, an Enqueue that drops from an empty structure forever,
// or a DRR deficit that never turns positive.
const MacQueues::Config& Validated(const MacQueues::Config& config) {
  AF_CHECK_GT(config.flow_queues, 0);
  AF_CHECK_GT(config.global_limit_packets, 0);
  AF_CHECK_GT(config.quantum_bytes, 0);
  return config;
}

}  // namespace

MacQueues::MacQueues(InlineFunction<TimeUs()> clock, const Config& config)
    : clock_(std::move(clock)), config_(Validated(config)), pool_(config.flow_queues) {}

CoDelParams MacQueues::ParamsFor(StationId station) const {
  if (codel_params_) {
    return codel_params_(station);
  }
  return CoDelParams::Default();
}

MacQueues::TidQueue* MacQueues::FindTid(StationId station, Tid tid) const {
  if (station < 0) {
    return nullptr;
  }
  const size_t key = static_cast<size_t>(station) * kNumTids + static_cast<size_t>(tid);
  return key < tids_.size() ? tids_[key].get() : nullptr;
}

MacQueues::TidQueue& MacQueues::GetOrCreateTid(StationId station, Tid tid) {
  const size_t key = static_cast<size_t>(station) * kNumTids + static_cast<size_t>(tid);
  if (key >= tids_.size()) {
    tids_.resize(key + 1);
  }
  auto& slot = tids_[key];
  if (slot == nullptr) {
    slot = std::make_unique<TidQueue>();
    slot->station = station;
    slot->tid = tid;
  }
  return *slot;
}

void MacQueues::DropFromLongestQueue() {
  // Algorithm 1, lines 2-4: find_longest_queue() over every backlogged queue
  // (flow queues and overflow queues alike), drop from its head.
  FlowQueue* longest = backlog_.Top();
  if (longest == nullptr) {
    return;
  }
  AF_DCHECK(longest->tid != nullptr) << " backlogged queue without a TID assignment";
  PacketPtr victim = PullHead(*longest);
  ++overflow_drops_;
  AF_DCHECK_GE(longest->tid->backlog_packets, 0);
  AF_TRACE_OVERFLOW_DROP(clock_(), longest->tid->station, longest->tid->tid,
                         longest->tid->backlog_packets, victim->size_bytes);
}

void MacQueues::Enqueue(PacketPtr packet, StationId station, Tid tid) {
  // Global limit check (Algorithm 1, line 2).
  while (total_packets_ >= config_.global_limit_packets) {
    DropFromLongestQueue();
  }

  TidQueue& txq = GetOrCreateTid(station, tid);
  const uint64_t h = HashFlow(packet->flow);
  FlowQueue* queue = &pool_[h % pool_.size()];
  // Hash collision across TIDs: divert to this TID's overflow queue
  // (Algorithm 1, lines 6-8).
  if (queue->tid != nullptr && queue->tid != &txq) {
    queue = &txq.overflow;
  }
  queue->tid = &txq;

  const TimeUs now = clock_();
  packet->enqueued = now;  // Timestamp used by CoDel at dequeue.
  AF_DCHECK_GT(packet->size_bytes, 0);
  max_packet_bytes_seen_ = std::max(max_packet_bytes_seen_, packet->size_bytes);
  queue->bytes += packet->size_bytes;
  queue->packets.push_back(std::move(packet));
  ++total_packets_;
  ++enqueued_total_;
  ++txq.backlog_packets;
  AF_TRACE_ENQUEUE(now, station, tid, queue->packets.back()->size_bytes,
                   txq.backlog_packets);
  if (backlog_.Contains(queue)) {
    backlog_.KeyIncreased(queue);
  } else {
    backlog_.Push(queue, ++joins_);
  }
  // Newly active queues enter the TID's new-queues list (sparse-flow
  // priority; Algorithm 1, lines 11-12).
  if (!queue->sched_node.linked()) {
    queue->deficit = config_.quantum_bytes;
    txq.new_queues.PushBack(queue);
  }
}

PacketPtr MacQueues::PullHead(FlowQueue& queue) {
  if (queue.packets.empty()) {
    return nullptr;
  }
  PacketPtr p = std::move(queue.packets.front());
  queue.packets.pop_front();
  queue.bytes -= p->size_bytes;
  --total_packets_;
  queue.tid->backlog_packets--;
  if (queue.packets.empty()) {
    backlog_.Remove(&queue);
  } else {
    backlog_.KeyDecreased(&queue);
  }
  return p;
}

PacketPtr MacQueues::Dequeue(StationId station, Tid tid) {
  TidQueue* txq = FindTid(station, tid);
  if (txq == nullptr) {
    return nullptr;
  }
  const CoDelParams params = ParamsFor(station);
  const TimeUs now = clock_();
  // Algorithm 2.
  for (;;) {
    FlowQueue* queue = nullptr;
    bool from_new = false;
    if (!txq->new_queues.empty()) {
      queue = txq->new_queues.Front();
      from_new = true;
    } else if (!txq->old_queues.empty()) {
      queue = txq->old_queues.Front();
    } else {
      return nullptr;
    }
    if (queue->deficit <= 0) {
      queue->deficit += config_.quantum_bytes;
      txq->old_queues.MoveToBack(queue);
      continue;  // restart
    }
    PacketPtr packet = queue->codel.Dequeue(
        now, params, [this, queue]() { return PullHead(*queue); },
        [this, now, station, tid](const PacketPtr& victim) {
          ++codel_drops_;
          AF_TRACE_CODEL_DROP(now, station, tid, now.us() - victim->enqueued.us(),
                              codel_drops_);
        });
    if (packet == nullptr) {
      // Queue empty (Algorithm 2, lines 13-19).
      if (from_new) {
        txq->old_queues.MoveToBack(queue);
      } else {
        queue->sched_node.Unlink();
        queue->tid = nullptr;  // Release the queue back to the shared pool.
      }
      continue;  // restart
    }
    // Algorithm 2, line 12: the selected queue had a positive deficit.
    AF_DCHECK_GT(queue->deficit, 0);
    AF_DCHECK_LE(queue->deficit, config_.quantum_bytes);
    queue->deficit -= packet->size_bytes;
    ++dequeued_total_;
    AF_TRACE_DEQUEUE(now, station, tid, now.us() - packet->enqueued.us(),
                     txq->backlog_packets);
    return packet;
  }
}

int64_t MacQueues::FlushStation(StationId station) {
  int64_t drained = 0;
  auto drain_queue = [&](FlowQueue& q) {
    drained += static_cast<int64_t>(q.packets.size());
    total_packets_ -= static_cast<int>(q.packets.size());
    q.packets.clear();  // Destroys the PacketPtrs (returned to the pool).
    q.bytes = 0;
    if (backlog_.Contains(&q)) {
      backlog_.Remove(&q);
    }
    q.sched_node.Unlink();
    q.tid = nullptr;
    // A fresh CoDel session for the queue's next assignment: the old
    // station's sojourn state must not leak into whichever flow claims this
    // pool slot after the rejoin.
    q.codel = CoDelState();
  };
  for (Tid tid = 0; tid < kNumTids; ++tid) {
    TidQueue* txq = FindTid(station, tid);
    if (txq == nullptr) {
      continue;
    }
    for (FlowQueue& q : pool_) {
      if (q.tid == txq) {
        drain_queue(q);
      }
    }
    drain_queue(txq->overflow);
    tids_[static_cast<size_t>(station) * kNumTids + static_cast<size_t>(tid)].reset();
  }
  flushed_total_ += drained;
  return drained;
}

int MacQueues::CheckInvariants(AuditFailFn fail) const {
  int violations = 0;
  auto report = [&](const std::string& message) {
    ++violations;
    fail("mac_queues: " + message);
  };
  auto subfail = [&](const std::string& message) { report(message); };

  // --- Global packet conservation -----------------------------------------
  const int64_t accounted = dequeued_total_ + codel_drops_ + overflow_drops_ +
                            flushed_total_ + total_packets_;
  if (enqueued_total_ != accounted) {
    std::ostringstream os;
    os << "packet conservation violated: enqueued=" << enqueued_total_
       << " != dequeued=" << dequeued_total_ << " + codel_drops=" << codel_drops_
       << " + overflow_drops=" << overflow_drops_ << " + flushed=" << flushed_total_
       << " + resident=" << total_packets_;
    report(os.str());
  }

  // --- Backlog-heap structure and byte counters ---------------------------
  violations += backlog_.CheckIntegrity(subfail);
  int64_t resident = 0;
  for (const FlowQueue* q : backlog_) {
    if (q->packets.empty()) {
      report("empty queue in the backlog heap");
      continue;
    }
    resident += static_cast<int64_t>(q->packets.size());
    int64_t bytes = 0;
    for (const PacketPtr& p : q->packets) {
      bytes += p->size_bytes;
    }
    if (bytes != q->bytes) {
      std::ostringstream os;
      os << "queue byte counter mismatch: counted=" << bytes << " stored=" << q->bytes;
      report(os.str());
    }
    if (q->tid == nullptr) {
      report("backlogged queue has no TID assignment");
    }
  }
  if (resident != total_packets_) {
    std::ostringstream os;
    os << "resident recount mismatch: the backlog heap holds " << resident
       << " packets but total_packets=" << total_packets_;
    report(os.str());
  }

  // Every non-empty queue (pool and overflow) must be in the backlog heap.
  auto check_backlog_membership = [&](const FlowQueue& q, const char* kind) {
    if (!q.packets.empty() && !backlog_.Contains(&q)) {
      std::ostringstream os;
      os << "non-empty " << kind << " queue missing from the backlog heap";
      report(os.str());
    }
  };
  for (const FlowQueue& q : pool_) {
    check_backlog_membership(q, "pool");
  }

  // --- Per-TID structure, deficits and CoDel validity ---------------------
  for (const auto& txq : tids_) {
    if (txq == nullptr) {
      continue;  // Never created, or torn down by FlushStation.
    }
    check_backlog_membership(txq->overflow, "overflow");
    violations += txq->new_queues.CheckIntegrity(subfail);
    violations += txq->old_queues.CheckIntegrity(subfail);

    int recount = static_cast<int>(txq->overflow.packets.size());
    for (const FlowQueue& q : pool_) {
      if (q.tid == txq.get()) {
        recount += static_cast<int>(q.packets.size());
      }
    }
    if (recount != txq->backlog_packets) {
      std::ostringstream os;
      os << "TID backlog counter mismatch for station " << txq->station << " tid "
         << static_cast<int>(txq->tid) << ": recount=" << recount
         << " stored=" << txq->backlog_packets;
      report(os.str());
    }

    for (const auto* list : {&txq->new_queues, &txq->old_queues}) {
      for (const FlowQueue* q : *list) {
        if (q->tid != txq.get()) {
          report("scheduled queue is assigned to a different TID");
        }
        if (q->deficit > config_.quantum_bytes) {
          std::ostringstream os;
          os << "flow deficit above quantum: deficit=" << q->deficit
             << " quantum=" << config_.quantum_bytes;
          report(os.str());
        }
        if (max_packet_bytes_seen_ > 0 && q->deficit <= -max_packet_bytes_seen_) {
          std::ostringstream os;
          os << "flow deficit below bound: deficit=" << q->deficit
             << " max_packet_seen=" << max_packet_bytes_seen_;
          report(os.str());
        }
        violations += q->codel.CheckValid(subfail);
      }
    }
  }
  return violations;
}

void MacQueues::CorruptDeficitForTesting() {
  for (auto& txq : tids_) {
    if (txq == nullptr) {
      continue;
    }
    if (FlowQueue* q = txq->new_queues.Front(); q != nullptr) {
      q->deficit = config_.quantum_bytes * 16;
      return;
    }
    if (FlowQueue* q = txq->old_queues.Front(); q != nullptr) {
      q->deficit = config_.quantum_bytes * 16;
      return;
    }
  }
}

void MacQueues::CorruptCodelStateForTesting() {
  for (auto& txq : tids_) {
    if (txq == nullptr) {
      continue;
    }
    for (auto* list : {&txq->new_queues, &txq->old_queues}) {
      if (FlowQueue* q = list->Front(); q != nullptr) {
        // Dropping with an unarmed next-drop clock is unreachable by the
        // control law; the auditor must flag it.
        q->codel.ForceStateForTesting(/*dropping=*/true, TimeUs::Zero(), /*count=*/0,
                                      /*lastcount=*/5);
        return;
      }
    }
  }
}

void MacQueues::CorruptBacklogHeapForTesting() {
  // Swapping the top with the last element breaks the order at the last
  // element's parent link while keeping every back-pointer consistent.
  if (backlog_.size() >= 2) {
    backlog_.SwapForTesting(0, backlog_.size() - 1);
  }
}

void MacQueues::CorruptTidBacklogForTesting() {
  for (auto& txq : tids_) {
    if (txq != nullptr) {
      txq->backlog_packets += 7;
      return;
    }
  }
}

int MacQueues::PeekBytes(StationId station, Tid tid) const {
  const TidQueue* txq = FindTid(station, tid);
  if (txq == nullptr || txq->backlog_packets == 0) {
    return -1;
  }
  // Advisory: head of the first backlogged queue in service order.
  for (const auto& list : {&txq->new_queues, &txq->old_queues}) {
    for (FlowQueue* q : *list) {
      if (!q->packets.empty()) {
        return q->packets.front()->size_bytes;
      }
    }
  }
  return -1;
}

int MacQueues::TidBacklog(StationId station, Tid tid) const {
  const TidQueue* txq = FindTid(station, tid);
  return txq == nullptr ? 0 : txq->backlog_packets;
}

}  // namespace airfair
