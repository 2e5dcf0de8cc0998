#include "src/obs/trace.h"

#include <cstdio>
#include <cstdlib>

#include "src/util/env.h"

namespace airfair {
namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

}  // namespace

const char* TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kNone:
      return "none";
    case TraceEventType::kEnqueue:
      return "enqueue";
    case TraceEventType::kDequeue:
      return "dequeue";
    case TraceEventType::kCodelDrop:
      return "codel_drop";
    case TraceEventType::kCodelState:
      return "codel_state";
    case TraceEventType::kOverflowDrop:
      return "overflow_drop";
    case TraceEventType::kAggregate:
      return "aggregate";
    case TraceEventType::kTxStart:
      return "tx_start";
    case TraceEventType::kTxEnd:
      return "tx";
    case TraceEventType::kCollision:
      return "collision";
    case TraceEventType::kBlockAck:
      return "block_ack";
    case TraceEventType::kDeliver:
      return "deliver";
    case TraceEventType::kReorderHold:
      return "reorder_hold";
    case TraceEventType::kReorderRelease:
      return "reorder_release";
    case TraceEventType::kReorderFlush:
      return "reorder_flush";
    case TraceEventType::kDuplicateDrop:
      return "duplicate_drop";
    case TraceEventType::kSchedPick:
      return "sched_pick";
    case TraceEventType::kSchedCharge:
      return "sched_charge";
    case TraceEventType::kSchedMove:
      return "sched_move";
    case TraceEventType::kDispatch:
      return "dispatch";
  }
  return "unknown";
}

TraceBuffer::TraceBuffer(const Config& config) {
  const size_t capacity = RoundUpPow2(config.capacity < 2 ? 2 : config.capacity);
  ring_.resize(capacity);
  mask_ = capacity - 1;
}

void TraceBuffer::ForEach(FunctionRef<void(const TraceRecord&)> fn) const {
  for (uint64_t seq = overwritten(); seq < head_; ++seq) {
    fn(ring_[static_cast<size_t>(seq) & mask_]);
  }
}

std::vector<TraceRecord> TraceBuffer::Snapshot() const {
  std::vector<TraceRecord> out;
  out.reserve(size());
  ForEach([&out](const TraceRecord& rec) { out.push_back(rec); });
  return out;
}

void TraceBuffer::DumpTail(size_t n) const {
  const size_t resident = size();
  const size_t count = n < resident ? n : resident;
  const uint64_t begin = head_ - count;
  std::fprintf(stderr,
               "[trace] flight recorder: last %zu of %llu events "
               "(%llu overwritten)\n",
               count, static_cast<unsigned long long>(head_),
               static_cast<unsigned long long>(overwritten()));
  for (uint64_t seq = begin; seq < head_; ++seq) {
    const TraceRecord& rec = ring_[static_cast<size_t>(seq) & mask_];
    std::fprintf(stderr,
                 "[trace] #%llu t=%lldus %-15s station=%d tid=%d "
                 "a0=%lld a1=%lld a2=%lld\n",
                 static_cast<unsigned long long>(seq),
                 static_cast<long long>(rec.t_us),
                 TraceEventTypeName(static_cast<TraceEventType>(rec.type)),
                 rec.station, rec.tid, static_cast<long long>(rec.a0),
                 static_cast<long long>(rec.a1), static_cast<long long>(rec.a2));
  }
  std::fflush(stderr);
}

TraceBuffer* SetCurrentTraceBuffer(TraceBuffer* buffer) {
  TraceBuffer* previous = current_trace_buffer;
  current_trace_buffer = buffer;
  return previous;
}

bool TraceEnabledByDefault() {
  // An explicit AIRFAIR_TRACE wins in both directions; else asking for an
  // export implies tracing.
  const auto set = [](const char* name) {
    const char* v = std::getenv(name);
    return v != nullptr && v[0] != '\0';
  };
  return EnvFlag("AIRFAIR_TRACE", set("AIRFAIR_TRACE_JSON") || set("AIRFAIR_TIMESERIES_JSON"));
}

}  // namespace airfair
