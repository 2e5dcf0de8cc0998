#include "src/aqm/fq_codel.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/flow_hash.h"

namespace airfair {
namespace {

// Each bad value would hang or fault on the packet path instead: no flow
// queue to hash into, an Enqueue that drops from an empty qdisc forever, or a
// DRR deficit that never turns positive.
const FqCodelConfig& Validated(const FqCodelConfig& config) {
  AF_CHECK_GT(config.flows, 0);
  AF_CHECK_GE(config.limit_packets, 0);
  AF_CHECK_GT(config.quantum_bytes, 0);
  return config;
}

}  // namespace

FqCodelQdisc::FqCodelQdisc(InlineFunction<TimeUs()> clock, const FqCodelConfig& config)
    : clock_(std::move(clock)), config_(Validated(config)), queues_(config.flows) {}

PacketPtr FqCodelQdisc::PullHead(FlowQueue& q) {
  if (q.packets.empty()) {
    return nullptr;
  }
  PacketPtr p = std::move(q.packets.front());
  q.packets.pop_front();
  q.bytes -= p->size_bytes;
  --total_packets_;
  if (q.packets.empty()) {
    backlog_.Remove(&q);
  } else {
    backlog_.KeyDecreased(&q);
  }
  return p;
}

void FqCodelQdisc::DropFromFattest() {
  FlowQueue* q = backlog_.Top();
  if (q == nullptr) {
    return;
  }
  // fq_codel drops from the head of the fattest flow.
  PacketPtr victim = PullHead(*q);
  ++overflow_drops_;
  ++drops_;
  // The qdisc sits above the driver (host scope), so there is no station
  // identity to attach; station=-1 marks host-qdisc records.
  AF_TRACE_OVERFLOW_DROP(clock_(), -1, victim->tid, total_packets_,
                         victim->size_bytes);
}

void FqCodelQdisc::Enqueue(PacketPtr packet) {
  const uint64_t h = HashFlow(packet->flow);
  const uint64_t index = h % queues_.size();
  FlowQueue& q = queues_[index];
  const TimeUs now = clock_();
  packet->enqueued = now;
  AF_DCHECK_GT(packet->size_bytes, 0);
  max_packet_bytes_seen_ = std::max(max_packet_bytes_seen_, packet->size_bytes);
  ++enqueued_total_;
  q.bytes += packet->size_bytes;
  q.packets.push_back(std::move(packet));
  if (backlog_.Contains(&q)) {
    backlog_.KeyIncreased(&q);
  } else {
    backlog_.Push(&q, index);
  }
  ++total_packets_;
  AF_TRACE_ENQUEUE(now, -1, q.packets.back()->tid, q.packets.back()->size_bytes,
                   total_packets_);
  if (!q.node.linked()) {
    // Queue just became backlogged: it is a "new" flow and gets one
    // priority round (the sparse-flow optimisation).
    q.deficit = config_.quantum_bytes;
    new_flows_.PushBack(&q);
  }
  while (total_packets_ > config_.limit_packets) {
    DropFromFattest();
  }
}

PacketPtr FqCodelQdisc::Dequeue() {
  const TimeUs now = clock_();
  for (;;) {
    FlowQueue* q = nullptr;
    bool from_new = false;
    if (!new_flows_.empty()) {
      q = new_flows_.Front();
      from_new = true;
    } else if (!old_flows_.empty()) {
      q = old_flows_.Front();
    } else {
      return nullptr;
    }
    if (q->deficit <= 0) {
      q->deficit += config_.quantum_bytes;
      old_flows_.MoveToBack(q);
      continue;
    }
    // Every flow queue runs CoDel's RFC 8289 defaults (5 ms / 100 ms).
    PacketPtr packet = q->codel.Dequeue(
        now, CoDelParams::Default(),
        [this, q]() { return PullHead(*q); },
        [this, now](const PacketPtr& victim) {
          ++codel_drops_;
          ++drops_;
          AF_TRACE_CODEL_DROP(now, -1, victim->tid,
                              now.us() - victim->enqueued.us(), codel_drops_);
        });
    if (packet == nullptr) {
      // Queue drained. A new-list queue is moved to the old list (anti-
      // gaming: it must earn sparse status again); an old-list queue is
      // removed entirely.
      if (from_new) {
        old_flows_.MoveToBack(q);
      } else {
        q->node.Unlink();
      }
      continue;
    }
    // The selected queue had a positive deficit no larger than one quantum.
    AF_DCHECK_GT(q->deficit, 0);
    AF_DCHECK_LE(q->deficit, config_.quantum_bytes);
    q->deficit -= packet->size_bytes;
    ++dequeued_total_;
    AF_TRACE_DEQUEUE(now, -1, packet->tid, now.us() - packet->enqueued.us(),
                     total_packets_);
    return packet;
  }
}

int FqCodelQdisc::CheckInvariants(AuditFailFn fail) const {
  int violations = 0;
  auto report = [&](const std::string& message) {
    ++violations;
    fail("fq_codel: " + message);
  };
  auto subfail = [&](const std::string& message) { report(message); };

  // Conservation: every packet accepted is dequeued, dropped, or resident.
  const int64_t accounted =
      dequeued_total_ + codel_drops_ + overflow_drops_ + total_packets_;
  if (enqueued_total_ != accounted) {
    std::ostringstream os;
    os << "packet conservation violated: enqueued=" << enqueued_total_
       << " != dequeued=" << dequeued_total_ << " + codel_drops=" << codel_drops_
       << " + overflow_drops=" << overflow_drops_ << " + resident=" << total_packets_;
    report(os.str());
  }
  // The base-class drop counter mirrors the itemised ones.
  if (drops() != codel_drops_ + overflow_drops_) {
    std::ostringstream os;
    os << "drop counter mismatch: drops=" << drops() << " codel=" << codel_drops_
       << " overflow=" << overflow_drops_;
    report(os.str());
  }

  violations += new_flows_.CheckIntegrity(subfail);
  violations += old_flows_.CheckIntegrity(subfail);
  violations += backlog_.CheckIntegrity(subfail);

  int64_t resident = 0;
  for (size_t i = 0; i < queues_.size(); ++i) {
    const FlowQueue& q = queues_[i];
    // The backlog heap holds exactly the non-empty queues, each tied by its
    // index so equal backlogs resolve to the lowest index.
    if (q.packets.empty() == backlog_.Contains(&q)) {
      report(q.packets.empty() ? "empty flow queue in the backlog heap"
                               : "non-empty flow queue missing from the backlog heap");
    } else if (backlog_.Contains(&q) && q.backlog_slot.tie != i) {
      std::ostringstream os;
      os << "backlog heap tie " << q.backlog_slot.tie << " differs from queue index " << i;
      report(os.str());
    }
    resident += static_cast<int64_t>(q.packets.size());
    int64_t bytes = 0;
    for (const PacketPtr& p : q.packets) {
      bytes += p->size_bytes;
    }
    if (bytes != q.bytes) {
      std::ostringstream os;
      os << "queue byte counter mismatch: counted=" << bytes << " stored=" << q.bytes;
      report(os.str());
    }
    // A non-empty queue must be scheduled (empty queues may linger on the
    // old list until the DRR rotation retires them — that is FQ-CoDel
    // semantics, not a violation).
    if (!q.packets.empty() && !q.node.linked()) {
      report("non-empty flow queue is not on the new/old list");
    }
    if (q.node.linked()) {
      if (q.deficit > config_.quantum_bytes) {
        std::ostringstream os;
        os << "flow deficit above quantum: deficit=" << q.deficit
           << " quantum=" << config_.quantum_bytes;
        report(os.str());
      }
      if (max_packet_bytes_seen_ > 0 && q.deficit <= -max_packet_bytes_seen_) {
        std::ostringstream os;
        os << "flow deficit below bound: deficit=" << q.deficit
           << " max_packet_seen=" << max_packet_bytes_seen_;
        report(os.str());
      }
      violations += q.codel.CheckValid(subfail);
    }
  }
  if (resident != total_packets_) {
    std::ostringstream os;
    os << "resident recount mismatch: queues hold " << resident
       << " packets but total_packets=" << total_packets_;
    report(os.str());
  }
  return violations;
}

void FqCodelQdisc::CorruptBacklogHeapForTesting() {
  // Swapping the top with the last element breaks the order at the last
  // element's parent link while keeping every back-pointer consistent.
  if (backlog_.size() >= 2) {
    backlog_.SwapForTesting(0, backlog_.size() - 1);
  }
}

}  // namespace airfair
