// Flight-recorder trace buffer: fixed-size binary records of packet
// lifecycle and scheduler decisions, appended from the simulator's hot
// paths at near-zero cost.
//
// Design constraints (DESIGN.md §7):
//   - No hot-path allocation: the ring and the string-intern table are
//     pre-sized at construction; Append is a store into a preallocated
//     slot plus a counter increment. Overwrite-oldest semantics make the
//     buffer a crash flight recorder: the last `capacity` events are
//     always available for post-mortem dumps.
//   - Compile-time gate (AIRFAIR_TRACE, on by default) plus a runtime
//     gate: instrumentation sites use the AF_TRACE_* macros below, which
//     compile to nothing when tracing is compiled out and to a single
//     load + null check when it is compiled in but no buffer is installed.
//     Benches therefore carry the instrumentation at no measurable cost
//     unless a run opts in (AIRFAIR_TRACE=1 or one of the
//     AIRFAIR_TRACE_JSON / AIRFAIR_TIMESERIES_JSON export paths is set).
//   - Records are PODs of exactly 48 bytes; strings never enter the ring.
//     The few sites that want a name attach an interned id resolved
//     against a pointer-identity table (string literals only).
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
  kDispatch,        // a0=heap size after pop
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
  uint16_t type = 0;    // TraceEventType.
  uint16_t label = 0;   // Interned string id, 0 = none.
  uint32_t pad = 0;
};
static_assert(sizeof(TraceRecord) == 48, "trace records are 48-byte PODs");

// Overwrite-oldest ring of TraceRecords plus a small string-intern table.
// One buffer belongs to one repetition (see SetCurrentTraceBuffer below).
class TraceBuffer {
 public:
  struct Config {
    // Ring capacity in records; rounded up to a power of two. The default
    // (64Ki records = 3 MiB) holds the last few hundred milliseconds of a
    // dense run — plenty for a flight-recorder dump, bounded for exports.
    size_t capacity = size_t{1} << 16;
    // Intern-table slots, pre-reserved so Intern never allocates.
    size_t intern_capacity = 256;
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

  // Synchronous observer for kDeliver records, invoked from Append with the
  // freshly written record. The Testbed's sampler feeds its per-station
  // latency accumulators from here — O(1) per delivery — instead of
  // re-scanning the ring every sample tick, which was O(ring) per sample
  // and fell over at large station counts. A plain function pointer plus
  // context (no std::function) keeps the disabled path a single null check
  // and the hot path allocation-free. The sink must not append to the
  // buffer reentrantly.
  using DeliverSinkFn = void (*)(void* ctx, const TraceRecord& rec);
  void set_deliver_sink(DeliverSinkFn sink, void* ctx) {
    deliver_sink_ = sink;
    deliver_sink_ctx_ = ctx;
  }

  // Appends a record with an explicit timestamp. Never allocates.
  void Append(TimeUs t, TraceEventType type, int32_t station, int32_t tid,
              int64_t a0, int64_t a1, int64_t a2, uint16_t label = 0) {
    TraceRecord& rec = ring_[static_cast<size_t>(head_) & mask_];
    rec.t_us = t.us();
    rec.a0 = a0;
    rec.a1 = a1;
    rec.a2 = a2;
    rec.station = station;
    rec.tid = tid;
    rec.type = static_cast<uint16_t>(type);
    rec.label = label;
    ++head_;
    if (type == TraceEventType::kDeliver && deliver_sink_ != nullptr) {
      deliver_sink_(deliver_sink_ctx_, rec);
    }
  }

  // Appends stamped with the installed clock (t=0 when none is set).
  void AppendNow(TraceEventType type, int32_t station, int32_t tid,
                 int64_t a0, int64_t a1, int64_t a2, uint16_t label = 0) {
    Append(clock_ ? clock_() : TimeUs(0), type, station, tid, a0, a1, a2, label);
  }

  // Interns a string literal and returns its id (1-based; 0 = table full
  // or null). Fast path is a pointer-identity scan, so passing the same
  // literal repeatedly is cheap; a strcmp pass catches distinct pointers
  // with equal contents. Only pointers are stored — the caller's string
  // must outlive the buffer (string literals do). Never allocates beyond
  // the reservation made at construction.
  uint16_t Intern(const char* s);

  // Resolves an interned id; "" for 0 / out of range.
  const char* LabelName(uint16_t id) const;
  size_t interned_count() const { return interned_.size(); }

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

  // Visits resident records oldest-first. `since` is a total_appended()
  // watermark: records with sequence < since are skipped (sampling code
  // remembers the previous head to visit only new records).
  void ForEachSince(uint64_t since, FunctionRef<void(const TraceRecord&)> fn) const;
  void ForEach(FunctionRef<void(const TraceRecord&)> fn) const { ForEachSince(0, fn); }

  // Copies out the resident records, oldest-first.
  std::vector<TraceRecord> Snapshot() const;

  // Writes the newest `n` records to stderr, oldest-first — the crash
  // flight recorder (invoked from the AF_CHECK failure path).
  void DumpTail(size_t n) const;

  void Clear() { head_ = 0; }

 private:
  std::vector<TraceRecord> ring_;
  size_t mask_ = 0;
  uint64_t head_ = 0;
  std::vector<const char*> interned_;
  ClockFn clock_;
  DeliverSinkFn deliver_sink_ = nullptr;
  void* deliver_sink_ctx_ = nullptr;
};

// --- Current-buffer installation (runtime gate) ----------------------------

TraceBuffer* CurrentTraceBuffer();
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

// Whether new Testbeds should build + install a trace buffer. False when
// tracing is compiled out. Otherwise the environment decides:
// AIRFAIR_TRACE=1/0 wins (any other value exits 2, src/util/env.h); else
// setting either export path (AIRFAIR_TRACE_JSON / AIRFAIR_TIMESERIES_JSON)
// implies tracing; else off.
bool TraceEnabledByDefault();

}  // namespace airfair

// --- Instrumentation macros ------------------------------------------------
//
// Hot-path code (src/{core,mac,aqm,sim}) must use these macros and never
// call TraceBuffer methods directly (lint rule trace-macro-discipline):
// the macros are the only spelling that compiles to nothing when tracing
// is compiled out, keeping the disabled path zero-cost.

#if defined(AIRFAIR_TRACE)
#define AIRFAIR_TRACE_ENABLED 1
#else
#define AIRFAIR_TRACE_ENABLED 0
#endif

#if AIRFAIR_TRACE_ENABLED

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

#else  // !AIRFAIR_TRACE_ENABLED

// Disabled: the arguments still have to compile (same discipline as the
// AF_DCHECK no-op forms) but are never evaluated at runtime — the dead
// branch keeps variables that only feed tracing from tripping
// -Wunused-but-set-variable.
#define AF_TRACE_AT(t, type, station, tid, a0, a1, a2)               \
  do {                                                               \
    if (false) {                                                     \
      (void)(t);                                                     \
      (void)(station);                                               \
      (void)(tid);                                                   \
      (void)(a0);                                                    \
      (void)(a1);                                                    \
      (void)(a2);                                                    \
    }                                                                \
  } while (0)
#define AF_TRACE_NOW(type, station, tid, a0, a1, a2) \
  AF_TRACE_AT(::airfair::TimeUs(0), type, station, tid, a0, a1, a2)

#endif  // AIRFAIR_TRACE_ENABLED

// Named lifecycle wrappers (argument mapping documented per event type in
// TraceEventType above). These expand through AF_TRACE_AT / AF_TRACE_NOW,
// so they share the same compile-time and runtime gates.
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
#define AF_TRACE_DISPATCH(t, heap_size) \
  AF_TRACE_AT(t, kDispatch, -1, -1, heap_size, 0, 0)

#endif  // AIRFAIR_SRC_OBS_TRACE_H_
