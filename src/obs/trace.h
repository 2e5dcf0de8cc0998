// Flight-recorder trace buffer: fixed-size binary records of packet
// lifecycle and scheduler decisions, appended from the simulator's hot
// paths at near-zero cost.
//
// Design constraints (DESIGN.md §7):
//   - No hot-path allocation: the ring is pre-sized at construction;
//     Append is a store into a preallocated slot plus a counter increment.
//     Overwrite-oldest semantics make the buffer a crash flight recorder:
//     the last `capacity` events are always available for post-mortem
//     dumps.
//   - One runtime gate: instrumentation sites use the AF_TRACE_* macros
//     below, which cost a single load + null check when no buffer is
//     installed (BM_TraceDisabledOverhead). Benches therefore carry the
//     instrumentation at no measurable cost unless a run opts in
//     (AIRFAIR_TRACE=1 or one of the AIRFAIR_TRACE_JSON /
//     AIRFAIR_TIMESERIES_JSON export paths is set).
//   - Records are PODs of exactly 48 bytes; strings never enter the ring.
//   - The "current" buffer is one process-wide pointer, like the
//     check-failure hooks in util/check.h: the live Testbed installs its
//     buffer and restores the previous one on destruction (DESIGN.md §8).

#ifndef AIRFAIR_SRC_OBS_TRACE_H_
#define AIRFAIR_SRC_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/function_ref.h"
#include "src/util/inline_function.h"
#include "src/util/time.h"

namespace airfair {

// One entry per instrumented lifecycle point. Argument meanings (a0..a2)
// are per-type; see the AF_TRACE_* macros at the bottom of this header
// for the authoritative mapping (also documented in DESIGN.md §7).
enum class TraceEventType : uint16_t {
  kNone = 0,
  kEnqueue,         // a0=bytes          a1=queue depth after
  kDequeue,         // a0=sojourn us     a1=queue depth after
  kCodelDrop,       // a0=sojourn us     a1=codel drop count
  kCodelState,      // a0=dropping?1:0   a1=count        a2=drop_next us
  kOverflowDrop,    // a0=queue depth    a1=bytes
  kAggregate,       // a0=mpdus          a1=duration us  a2=bytes
  kTxStart,         // a0=mpdus          a1=duration us
  kTxEnd,           // a0=duration us    a1=mpdus ok     a2=mpdus lost
  kCollision,       // a0=contenders     a1=penalty us
  kBlockAck,        // a0=mpdus acked
  kDeliver,         // a0=latency us     a1=bytes
  kReorderHold,     // a0=held count     a1=mac seq
  kReorderRelease,  // a0=released run   a1=next expected seq
  kReorderFlush,    // a0=flushed count  a1=timeout?1:0
  kDuplicateDrop,   // a0=mac seq
  kSchedPick,       // a0=deficit us at pick a1=picked from new list?1:0
  kSchedCharge,     // a0=airtime us     a1=deficit after us
  kSchedMove,       // a0=from list      a1=to list (TraceSchedList values)
  kDispatch,        // a0=live events pending after pop
};

// Stable names for exporters and dumps ("enqueue", "tx_end", ...).
const char* TraceEventTypeName(TraceEventType type);
constexpr int kNumTraceEventTypes = static_cast<int>(TraceEventType::kDispatch) + 1;

// List identifiers for kSchedMove events (Algorithm 3's DRR lists).
enum TraceSchedList : int64_t {
  kTraceListNone = 0,  // Not queued (fully drained / inactive).
  kTraceListNew = 1,
  kTraceListOld = 2,
};

// Fixed-size binary trace record. 48 bytes, trivially copyable; the ring
// is a flat array of these.
struct TraceRecord {
  int64_t t_us = 0;     // Simulated time of the event.
  int64_t a0 = 0;       // Per-type arguments, see TraceEventType.
  int64_t a1 = 0;
  int64_t a2 = 0;
  int32_t station = -1; // Station id, -1 when not applicable.
  int32_t tid = -1;     // 802.11 TID, -1 when not applicable.
  uint16_t type = 0;    // TraceEventType; trailing padding rounds to 48.
};
static_assert(sizeof(TraceRecord) == 48, "trace records are 48-byte PODs");

// Overwrite-oldest ring of TraceRecords. One buffer belongs to one
// repetition (see SetCurrentTraceBuffer below).
class TraceBuffer {
 public:
  struct Config {
    // Ring capacity in records; rounded up to a power of two. The default
    // (64Ki records = 3 MiB) holds the last few hundred milliseconds of a
    // dense run — plenty for a flight-recorder dump, bounded for exports.
    size_t capacity = size_t{1} << 16;
  };

  TraceBuffer() : TraceBuffer(Config()) {}
  explicit TraceBuffer(const Config& config);

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  // Clock used by AppendNow (instrumentation sites that have no local
  // notion of time, e.g. the airtime scheduler). The Testbed installs the
  // owning simulation's clock.
  using ClockFn = InlineFunction<TimeUs()>;
  void set_clock(ClockFn clock) { clock_ = std::move(clock); }

  // Appends a record with an explicit timestamp. Never allocates.
  void Append(TimeUs t, TraceEventType type, int32_t station, int32_t tid,
              int64_t a0, int64_t a1, int64_t a2) {
    TraceRecord& rec = ring_[static_cast<size_t>(head_) & mask_];
    rec.t_us = t.us();
    rec.a0 = a0;
    rec.a1 = a1;
    rec.a2 = a2;
    rec.station = station;
    rec.tid = tid;
    rec.type = static_cast<uint16_t>(type);
    ++head_;
  }

  // Appends stamped with the installed clock (t=0 when none is set).
  void AppendNow(TraceEventType type, int32_t station, int32_t tid,
                 int64_t a0, int64_t a1, int64_t a2) {
    Append(clock_ ? clock_() : TimeUs(0), type, station, tid, a0, a1, a2);
  }

  // Monotonic count of all records ever appended.
  uint64_t total_appended() const { return head_; }
  // Records currently resident (<= capacity).
  size_t size() const {
    return head_ < ring_.size() ? static_cast<size_t>(head_) : ring_.size();
  }
  size_t capacity() const { return ring_.size(); }
  // Records lost to overwrite.
  uint64_t overwritten() const {
    return head_ > ring_.size() ? head_ - ring_.size() : 0;
  }

  // Visits resident records oldest-first.
  void ForEach(FunctionRef<void(const TraceRecord&)> fn) const;

  // Copies out the resident records, oldest-first.
  std::vector<TraceRecord> Snapshot() const;

  // Writes the newest `n` records to stderr, oldest-first — the crash
  // flight recorder (invoked from the AF_CHECK failure path).
  void DumpTail(size_t n) const;

 private:
  std::vector<TraceRecord> ring_;
  size_t mask_ = 0;
  uint64_t head_ = 0;
  ClockFn clock_;
};

// --- Current-buffer installation (runtime gate) ----------------------------

// The installed buffer, nullptr when tracing is off. Written only by
// SetCurrentTraceBuffer; an inline variable so every AF_TRACE_* site reads
// it with one load, not a call.
inline TraceBuffer* current_trace_buffer = nullptr;

inline TraceBuffer* CurrentTraceBuffer() { return current_trace_buffer; }
// Installs `buffer` (nullptr disables tracing) and returns the previously
// installed buffer.
TraceBuffer* SetCurrentTraceBuffer(TraceBuffer* buffer);

// RAII installer used by the Testbed and tests.
class ScopedTraceBuffer {
 public:
  explicit ScopedTraceBuffer(TraceBuffer* buffer)
      : previous_(SetCurrentTraceBuffer(buffer)) {}
  ~ScopedTraceBuffer() { SetCurrentTraceBuffer(previous_); }

  ScopedTraceBuffer(const ScopedTraceBuffer&) = delete;
  ScopedTraceBuffer& operator=(const ScopedTraceBuffer&) = delete;

 private:
  TraceBuffer* previous_;
};

// Whether new Testbeds should build + install a trace buffer. The
// environment decides: AIRFAIR_TRACE=1/0 wins (any other value exits 2,
// src/util/env.h); else setting either export path (AIRFAIR_TRACE_JSON /
// AIRFAIR_TIMESERIES_JSON) implies tracing; else off.
bool TraceEnabledByDefault();

}  // namespace airfair

// --- Instrumentation macros ------------------------------------------------
//
// Hot-path code (src/{core,mac,aqm,sim}) must use these macros and never
// call TraceBuffer methods directly (lint rule trace-macro-discipline):
// the macros carry the installed-buffer null check, so a run without a
// buffer pays one load and one branch per site.

// Explicit-timestamp append; `type` is a TraceEventType enumerator name.
#define AF_TRACE_AT(t, type, station, tid, a0, a1, a2)                        \
  do {                                                                        \
    ::airfair::TraceBuffer* af_trace_buf = ::airfair::CurrentTraceBuffer();   \
    if (af_trace_buf != nullptr) {                                            \
      af_trace_buf->Append((t), ::airfair::TraceEventType::type, (station),   \
                           (tid), (a0), (a1), (a2));                          \
    }                                                                         \
  } while (0)

// Buffer-clock append, for sites without a local time source.
#define AF_TRACE_NOW(type, station, tid, a0, a1, a2)                          \
  do {                                                                        \
    ::airfair::TraceBuffer* af_trace_buf = ::airfair::CurrentTraceBuffer();   \
    if (af_trace_buf != nullptr) {                                            \
      af_trace_buf->AppendNow(::airfair::TraceEventType::type, (station),     \
                              (tid), (a0), (a1), (a2));                       \
    }                                                                         \
  } while (0)

// Named lifecycle wrappers (argument mapping documented per event type in
// TraceEventType above). These expand through AF_TRACE_AT / AF_TRACE_NOW,
// so they share the same runtime gate.
#define AF_TRACE_ENQUEUE(t, station, tid, bytes, depth) \
  AF_TRACE_AT(t, kEnqueue, station, tid, bytes, depth, 0)
#define AF_TRACE_DEQUEUE(t, station, tid, sojourn_us, depth) \
  AF_TRACE_AT(t, kDequeue, station, tid, sojourn_us, depth, 0)
#define AF_TRACE_CODEL_DROP(t, station, tid, sojourn_us, drops) \
  AF_TRACE_AT(t, kCodelDrop, station, tid, sojourn_us, drops, 0)
#define AF_TRACE_CODEL_STATE(t, dropping, count, drop_next_us) \
  AF_TRACE_AT(t, kCodelState, -1, -1, dropping, count, drop_next_us)
#define AF_TRACE_OVERFLOW_DROP(t, station, tid, depth, bytes) \
  AF_TRACE_AT(t, kOverflowDrop, station, tid, depth, bytes, 0)
// Aggregation runs without a local clock (BuildAggregate is a free
// function); the buffer's installed clock stamps the event.
#define AF_TRACE_AGGREGATE(station, tid, mpdus, duration_us, bytes) \
  AF_TRACE_NOW(kAggregate, station, tid, mpdus, duration_us, bytes)
#define AF_TRACE_TX_START(t, station, mpdus, duration_us) \
  AF_TRACE_AT(t, kTxStart, station, -1, mpdus, duration_us, 0)
#define AF_TRACE_TX_END(t, station, duration_us, mpdus_ok, mpdus_lost) \
  AF_TRACE_AT(t, kTxEnd, station, -1, duration_us, mpdus_ok, mpdus_lost)
#define AF_TRACE_COLLISION(t, contenders, penalty_us) \
  AF_TRACE_AT(t, kCollision, -1, -1, contenders, penalty_us, 0)
#define AF_TRACE_BLOCK_ACK(t, station, acked) \
  AF_TRACE_AT(t, kBlockAck, station, -1, acked, 0, 0)
#define AF_TRACE_DELIVER(t, station, tid, latency_us, bytes) \
  AF_TRACE_AT(t, kDeliver, station, tid, latency_us, bytes, 0)
#define AF_TRACE_REORDER_HOLD(t, station, held, mac_seq) \
  AF_TRACE_AT(t, kReorderHold, station, -1, held, mac_seq, 0)
#define AF_TRACE_REORDER_RELEASE(t, station, released, next_seq) \
  AF_TRACE_AT(t, kReorderRelease, station, -1, released, next_seq, 0)
#define AF_TRACE_REORDER_FLUSH(t, station, flushed, timeout) \
  AF_TRACE_AT(t, kReorderFlush, station, -1, flushed, timeout, 0)
#define AF_TRACE_DUP_DROP(t, station, mac_seq) \
  AF_TRACE_AT(t, kDuplicateDrop, station, -1, mac_seq, 0, 0)
#define AF_TRACE_SCHED_PICK(station, deficit_us, from_new) \
  AF_TRACE_NOW(kSchedPick, station, -1, deficit_us, from_new, 0)
#define AF_TRACE_SCHED_CHARGE(station, airtime_us, deficit_after_us) \
  AF_TRACE_NOW(kSchedCharge, station, -1, airtime_us, deficit_after_us, 0)
#define AF_TRACE_SCHED_MOVE(station, from_list, to_list) \
  AF_TRACE_NOW(kSchedMove, station, -1, from_list, to_list, 0)
#define AF_TRACE_DISPATCH(t, pending) \
  AF_TRACE_AT(t, kDispatch, -1, -1, pending, 0, 0)

#endif  // AIRFAIR_SRC_OBS_TRACE_H_
