#include "src/obs/trace.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace airfair {
namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

TraceBuffer*& CurrentSlot() {
  static TraceBuffer* current = nullptr;
  return current;
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
  interned_.reserve(config.intern_capacity < 1 ? 1 : config.intern_capacity);
}

uint16_t TraceBuffer::Intern(const char* s) {
  if (s == nullptr) {
    return 0;
  }
  // Fast path: pointer identity (string literals re-passed from the same
  // instrumentation site).
  for (size_t i = 0; i < interned_.size(); ++i) {
    if (interned_[i] == s) {
      return static_cast<uint16_t>(i + 1);
    }
  }
  // Slow path: contents match across distinct literals.
  for (size_t i = 0; i < interned_.size(); ++i) {
    if (std::strcmp(interned_[i], s) == 0) {
      return static_cast<uint16_t>(i + 1);
    }
  }
  if (interned_.size() >= interned_.capacity() || interned_.size() >= 0xFFFF) {
    return 0;  // Table full: never allocate past the reservation.
  }
  interned_.push_back(s);
  return static_cast<uint16_t>(interned_.size());
}

const char* TraceBuffer::LabelName(uint16_t id) const {
  if (id == 0 || id > interned_.size()) {
    return "";
  }
  return interned_[id - 1];
}

void TraceBuffer::ForEachSince(uint64_t since,
                               FunctionRef<void(const TraceRecord&)> fn) const {
  const uint64_t oldest = overwritten();
  uint64_t begin = since > oldest ? since : oldest;
  for (uint64_t seq = begin; seq < head_; ++seq) {
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
                 "a0=%lld a1=%lld a2=%lld%s%s\n",
                 static_cast<unsigned long long>(seq),
                 static_cast<long long>(rec.t_us),
                 TraceEventTypeName(static_cast<TraceEventType>(rec.type)),
                 rec.station, rec.tid, static_cast<long long>(rec.a0),
                 static_cast<long long>(rec.a1), static_cast<long long>(rec.a2),
                 rec.label != 0 ? " label=" : "", LabelName(rec.label));
  }
  std::fflush(stderr);
}

TraceBuffer* CurrentTraceBuffer() { return CurrentSlot(); }

TraceBuffer* SetCurrentTraceBuffer(TraceBuffer* buffer) {
  TraceBuffer* previous = CurrentSlot();
  CurrentSlot() = buffer;
  return previous;
}

bool TraceEnabledByDefault() {
#if !AIRFAIR_TRACE_ENABLED
  return false;  // Compiled out: macros are no-ops, a buffer would be inert.
#else
  // Explicit AIRFAIR_TRACE wins in both directions.
  if (const char* env = std::getenv("AIRFAIR_TRACE"); env != nullptr && env[0] != '\0') {
    return !(env[0] == '0' && env[1] == '\0');
  }
  // Asking for an export implies tracing.
  const auto set = [](const char* name) {
    const char* v = std::getenv(name);
    return v != nullptr && v[0] != '\0';
  };
  return set("AIRFAIR_TRACE_JSON") || set("AIRFAIR_TIMESERIES_JSON");
#endif
}

size_t TraceRingCapacityFromEnv(size_t fallback) {
  if (const char* env = std::getenv("AIRFAIR_TRACE_RING");
      env != nullptr && env[0] != '\0') {
    const long long parsed = std::atoll(env);
    if (parsed > 0) {
      return static_cast<size_t>(parsed);
    }
  }
  return fallback;
}

}  // namespace airfair
