#include "src/aqm/flow_queues.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>

#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/flow_hash.h"

namespace airfair {

FlowQueues::FlowQueues(InlineFunction<TimeUs()> clock, int queues, int quantum_bytes)
    : clock_(std::move(clock)), quantum_bytes_(quantum_bytes), pool_(queues) {}

uint64_t FlowQueues::Index(const Packet& packet) const {
  return HashFlow(packet.flow) % pool_.size();
}

void FlowQueues::Push(FlowQueue& queue, FlowTin& tin, PacketPtr packet, uint64_t tie) {
  const TimeUs now = clock_();
  packet->enqueued = now;  // Sojourn-time origin for CoDel at dequeue.
  AF_DCHECK_GT(packet->size_bytes, 0);
  max_packet_bytes_seen_ = std::max(max_packet_bytes_seen_, packet->size_bytes);
  queue.tin = &tin;
  queue.bytes += packet->size_bytes;
  queue.packets.push_back(std::move(packet));
  ++total_packets_;
  ++enqueued_total_;
  ++tin.backlog_packets;
  AF_TRACE_ENQUEUE(now, tin.station, queue.packets.back()->tid,
                   queue.packets.back()->size_bytes, tin.backlog_packets);
  if (backlog_.Contains(&queue)) {
    backlog_.KeyIncreased(&queue);
  } else {
    backlog_.Push(&queue, tie);
  }
  if (!queue.node.linked()) {
    queue.deficit = quantum_bytes_;
    tin.new_flows.PushBack(&queue);
  }
}

PacketPtr FlowQueues::PullHead(FlowQueue& queue) {
  if (queue.packets.empty()) {
    return nullptr;
  }
  PacketPtr p = std::move(queue.packets.front());
  queue.packets.pop_front();
  queue.bytes -= p->size_bytes;
  --total_packets_;
  --queue.tin->backlog_packets;
  if (queue.packets.empty()) {
    backlog_.Remove(&queue);
  } else {
    backlog_.KeyDecreased(&queue);
  }
  return p;
}

void FlowQueues::DropFattest() {
  FlowQueue* fattest = backlog_.Top();
  if (fattest == nullptr) {
    return;
  }
  AF_DCHECK(fattest->tin != nullptr) << " backlogged queue without a tin";
  // Both fq_codel and Algorithm 1 drop from the head.
  PacketPtr victim = PullHead(*fattest);
  ++overflow_drops_;
  AF_TRACE_OVERFLOW_DROP(clock_(), fattest->tin->station, victim->tid,
                         fattest->tin->backlog_packets, victim->size_bytes);
}

PacketPtr FlowQueues::Dequeue(FlowTin& tin, const CoDelParams& params) {
  const TimeUs now = clock_();
  for (;;) {
    FlowQueue* queue = tin.new_flows.Front();
    const bool from_new = queue != nullptr;
    if (!from_new) {
      queue = tin.old_flows.Front();
      if (queue == nullptr) {
        return nullptr;
      }
    }
    if (queue->deficit <= 0) {
      queue->deficit += quantum_bytes_;
      tin.old_flows.MoveToBack(queue);
      continue;
    }
    PacketPtr packet = queue->codel.Dequeue(
        now, params,
        [this, queue]() { return PullHead(*queue); },
        [this, now, &tin](const PacketPtr& victim) {
          ++codel_drops_;
          AF_TRACE_CODEL_DROP(now, tin.station, victim->tid, now.us() - victim->enqueued.us(),
                              codel_drops_);
        });
    if (packet == nullptr) {
      // Algorithm 2, lines 13-19: a queue drained on the new list must earn
      // sparse status again on the old list; one drained on the old list
      // goes back to the pool.
      if (from_new) {
        tin.old_flows.MoveToBack(queue);
      } else {
        queue->node.Unlink();
        queue->tin = nullptr;
      }
      continue;
    }
    // Algorithm 2, line 12: the selected queue had a positive deficit.
    AF_DCHECK_GT(queue->deficit, 0);
    AF_DCHECK_LE(queue->deficit, quantum_bytes_);
    queue->deficit -= packet->size_bytes;
    ++dequeued_total_;
    AF_TRACE_DEQUEUE(now, tin.station, packet->tid, now.us() - packet->enqueued.us(),
                     tin.backlog_packets);
    return packet;
  }
}

int64_t FlowQueues::Flush(FlowQueue& queue) {
  const auto flushed = static_cast<int64_t>(queue.packets.size());
  if (flushed > 0) {
    queue.tin->backlog_packets -= static_cast<int>(flushed);
    backlog_.Remove(&queue);
  }
  queue.packets.clear();  // Destroys the PacketPtrs (returned to their pool).
  queue.bytes = 0;
  queue.node.Unlink();
  queue.tin = nullptr;
  // The next owner of this queue must not inherit the old flow's sojourn
  // state.
  queue.codel = CoDelState();
  total_packets_ -= static_cast<int>(flushed);
  flushed_total_ += flushed;
  return flushed;
}

int FlowQueues::CheckInvariants(AuditFailFn fail) const {
  int violations = 0;
  auto report = [&](const std::string& message) {
    ++violations;
    fail(message);
  };

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

  violations += backlog_.CheckIntegrity(fail);
  int64_t resident = 0;
  for (const FlowQueue* q : backlog_) {
    if (q->packets.empty()) {
      report("empty flow queue in the backlog heap");
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
    if (q->tin == nullptr) {
      report("backlogged flow queue has no tin");
    }
  }
  if (resident != total_packets_) {
    std::ostringstream os;
    os << "resident recount mismatch: the backlog heap holds " << resident
       << " packets but total_packets=" << total_packets_;
    report(os.str());
  }
  // Empty queues may linger on an old list until the DRR rotation releases
  // them; a non-empty one must be scheduled.
  for (const FlowQueue& q : pool_) {
    if (!q.packets.empty() && !q.node.linked()) {
      report("non-empty flow queue is not on a new/old list");
    }
  }
  return violations;
}

int FlowQueues::CheckTin(const FlowTin& tin, AuditFailFn fail) const {
  int violations = 0;
  auto report = [&](const std::string& message) {
    ++violations;
    fail(message);
  };
  violations += tin.new_flows.CheckIntegrity(fail);
  violations += tin.old_flows.CheckIntegrity(fail);

  int recount = 0;
  for (const auto* list : {&tin.new_flows, &tin.old_flows}) {
    for (const FlowQueue* q : *list) {
      recount += static_cast<int>(q->packets.size());
      if (q->tin != &tin) {
        report("scheduled flow queue is owned by another tin");
      }
      if (!q->packets.empty() && !backlog_.Contains(q)) {
        report("non-empty flow queue missing from the backlog heap");
      }
      if (q->deficit > quantum_bytes_) {
        std::ostringstream os;
        os << "flow deficit above quantum: deficit=" << q->deficit
           << " quantum=" << quantum_bytes_;
        report(os.str());
      }
      if (max_packet_bytes_seen_ > 0 && q->deficit <= -max_packet_bytes_seen_) {
        std::ostringstream os;
        os << "flow deficit below bound: deficit=" << q->deficit
           << " max_packet_seen=" << max_packet_bytes_seen_;
        report(os.str());
      }
      violations += q->codel.CheckValid(fail);
    }
  }
  if (recount != tin.backlog_packets) {
    std::ostringstream os;
    os << "tin backlog counter mismatch for station " << tin.station << ": recount=" << recount
       << " stored=" << tin.backlog_packets;
    report(os.str());
  }
  return violations;
}

void FlowQueues::CorruptBacklogHeapForTesting() {
  // Swapping the top with the last element breaks the order at the last
  // element's parent link while keeping every back-pointer consistent.
  if (backlog_.size() >= 2) {
    backlog_.SwapForTesting(0, backlog_.size() - 1);
  }
}

}  // namespace airfair
