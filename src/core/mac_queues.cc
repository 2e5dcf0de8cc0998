#include "src/core/mac_queues.h"

#include <string>
#include <utility>

#include "src/util/check.h"

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
    : config_(Validated(config)),
      flows_(std::move(clock), config.flow_queues, config.quantum_bytes) {}

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
    slot->tin.station = station;
  }
  return *slot;
}

void MacQueues::Enqueue(PacketPtr packet, StationId station, Tid tid) {
  // Global limit check (Algorithm 1, lines 2-4): find_longest_queue() over
  // every backlogged queue, flow and overflow queues alike.
  while (flows_.packet_count() >= config_.global_limit_packets) {
    flows_.DropFattest();
  }

  TidQueue& txq = GetOrCreateTid(station, tid);
  FlowQueue* queue = &flows_.queue(flows_.Index(*packet));
  // Hash collision across TIDs: divert to this TID's overflow queue
  // (Algorithm 1, lines 6-8).
  if (queue->tin != nullptr && queue->tin != &txq.tin) {
    queue = &txq.overflow;
  }
  // The tie is the number of packets enqueued before this one, so among
  // equal backlogs the queue that joined the backlog first is the victim.
  flows_.Push(*queue, txq.tin, std::move(packet), static_cast<uint64_t>(flows_.enqueued_total()));
}

PacketPtr MacQueues::Dequeue(StationId station, Tid tid) {
  TidQueue* txq = FindTid(station, tid);
  if (txq == nullptr) {
    return nullptr;
  }
  return flows_.Dequeue(txq->tin, codel_params_ ? codel_params_(station) : CoDelParams::Default());
}

int64_t MacQueues::FlushStation(StationId station) {
  int64_t drained = 0;
  for (Tid tid = 0; tid < kNumTids; ++tid) {
    TidQueue* txq = FindTid(station, tid);
    if (txq == nullptr) {
      continue;
    }
    // Every queue the tin owns is on its new or old list, the overflow
    // queue included; Flush takes each off.
    for (auto* list : {&txq->tin.new_flows, &txq->tin.old_flows}) {
      while (FlowQueue* q = list->Front()) {
        drained += flows_.Flush(*q);
      }
    }
    tids_[static_cast<size_t>(station) * kNumTids + static_cast<size_t>(tid)].reset();
  }
  return drained;
}

int MacQueues::CheckInvariants(AuditFailFn fail) const {
  auto prefixed = [&](const std::string& message) { fail("mac_queues: " + message); };
  int violations = flows_.CheckInvariants(prefixed);
  for (const auto& txq : tids_) {
    if (txq != nullptr) {  // nullptr: never created, or torn down by FlushStation.
      violations += flows_.CheckTin(txq->tin, prefixed);
    }
  }
  return violations;
}

FlowQueue* MacQueues::AnyScheduledQueue() {
  for (auto& txq : tids_) {
    if (txq == nullptr) {
      continue;
    }
    for (auto* list : {&txq->tin.new_flows, &txq->tin.old_flows}) {
      if (FlowQueue* q = list->Front(); q != nullptr) {
        return q;
      }
    }
  }
  return nullptr;
}

void MacQueues::CorruptDeficitForTesting() {
  if (FlowQueue* q = AnyScheduledQueue(); q != nullptr) {
    q->deficit = config_.quantum_bytes * 16;
  }
}

void MacQueues::CorruptCodelStateForTesting() {
  if (FlowQueue* q = AnyScheduledQueue(); q != nullptr) {
    // Dropping with an unarmed next-drop clock is unreachable by the
    // control law; the auditor must flag it.
    q->codel.ForceStateForTesting(/*dropping=*/true, TimeUs::Zero(), /*count=*/0,
                                  /*lastcount=*/5);
  }
}

void MacQueues::CorruptTidBacklogForTesting() {
  if (FlowQueue* q = AnyScheduledQueue(); q != nullptr) {
    q->tin->backlog_packets += 7;
  }
}

int MacQueues::PeekBytes(StationId station, Tid tid) const {
  const TidQueue* txq = FindTid(station, tid);
  if (txq == nullptr || txq->tin.backlog_packets == 0) {
    return -1;
  }
  // Advisory: head of the first backlogged queue in service order.
  for (const auto* list : {&txq->tin.new_flows, &txq->tin.old_flows}) {
    for (const FlowQueue* q : *list) {
      if (!q->packets.empty()) {
        return q->packets.front()->size_bytes;
      }
    }
  }
  return -1;
}

int MacQueues::TidBacklog(StationId station, Tid tid) const {
  const TidQueue* txq = FindTid(station, tid);
  return txq == nullptr ? 0 : txq->tin.backlog_packets;
}

}  // namespace airfair
