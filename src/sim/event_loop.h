// Discrete-event simulation core.
//
// A binary-heap event queue keyed by (time, sequence number); the sequence
// number makes same-time events fire in scheduling order, which keeps runs
// deterministic. Events are arbitrary callables and can be cancelled through
// the returned handle.
//
// The heap is an explicit std::vector managed with std::push_heap/pop_heap
// (rather than std::priority_queue) so the invariant auditor can inspect it:
// CheckInvariants verifies the heap property, that no pending event is in the
// past, and that dispatch time is monotone.
//
// Hot-path allocation behaviour (see DESIGN.md "Performance architecture"):
//  * Callables are stored in a move-only InlineFunction with 48 bytes of
//    inline storage, so closures capturing a couple of pointers and a moved
//    PacketPtr never touch the heap and never need copyable captures.
//  * PostAt/PostAfter schedule *detached* (fire-and-forget) events with no
//    cancellation token at all — the common case on the packet paths.
//  * ScheduleAt/ScheduleAfter still return an EventHandle; the shared_ptr
//    tokens backing the handles are recycled through a per-loop free list,
//    so steady-state timer reschedules allocate nothing.

#ifndef AIRFAIR_SRC_SIM_EVENT_LOOP_H_
#define AIRFAIR_SRC_SIM_EVENT_LOOP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/util/attributes.h"
#include "src/util/function_ref.h"
#include "src/util/inline_function.h"
#include "src/util/time.h"

namespace airfair {

// Callable type stored per event. 48 inline bytes comfortably fits the
// simulator's hot-path closures (a this-pointer, a moved PacketPtr, and a
// couple of scalars); anything larger transparently falls back to the heap.
using EventFn = InlineFunction<void(), 48>;

// Cancellation token shared between the loop and at most one EventHandle.
// Shared ownership is the point: the loop recycles a token into its pool
// only once it holds the sole reference, so a live handle can never observe
// a recycled token flip back to "pending".
// airfair-lint: allow(hot-shared-ptr): pooled cancellation token; loop and handle share ownership by design
using CancelToken = std::shared_ptr<bool>;

// Cancellation handle for a scheduled event. Copyable; cancelling twice is
// harmless. A default-constructed handle refers to nothing.
class EventHandle {
 public:
  EventHandle() = default;

  // True while the event is still pending (not fired, not cancelled).
  bool pending() const { return state_ && !*state_; }

  // Prevents the event from firing. No-op if it already fired or was
  // cancelled.
  void Cancel() {
    if (state_) {
      *state_ = true;
    }
  }

 private:
  friend class EventLoop;
  explicit EventHandle(CancelToken state) : state_(std::move(state)) {}

  CancelToken state_;  // true = cancelled-or-fired
};

class EventLoop {
 public:
  EventLoop() = default;

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Publishes lifetime totals (events dispatched/scheduled, simulated time,
  // token-recycling stats) into the named-counter registry for the bench
  // harness. See util/stats.h.
  ~EventLoop();

  TimeUs now() const { return now_; }

  // Schedules `fn` to run at absolute time `when` (>= now) and returns a
  // cancellation handle. The handle's shared token comes from a free list,
  // so steady-state use allocates nothing. AF_NODISCARD: dropping the
  // handle makes the event uncancellable — use PostAt for that.
  AF_NODISCARD EventHandle ScheduleAt(TimeUs when, EventFn fn);

  // Schedules `fn` to run `delay` from now.
  AF_NODISCARD EventHandle ScheduleAfter(TimeUs delay, EventFn fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  // Fire-and-forget scheduling: no EventHandle, no cancellation token, no
  // shared state at all. Use for the majority of events that nobody ever
  // cancels (packet arrivals, transmission completions, one-shot kicks).
  void PostAt(TimeUs when, EventFn fn);
  void PostAfter(TimeUs delay, EventFn fn) { PostAt(now_ + delay, std::move(fn)); }

  // Runs events until the queue is empty or simulated time would pass `end`.
  // The clock finishes at `end` (or earlier if the queue drains).
  void RunUntil(TimeUs end);

  // Runs a single event if one is pending; returns false when the queue is
  // empty. Mostly for tests.
  bool RunOne();

  size_t pending_events() const { return heap_.size(); }

  // Dispatch time of the most recently fired event (Zero before any fire).
  TimeUs last_dispatched() const { return last_dispatched_; }
  int64_t dispatched_events() const { return dispatched_events_; }
  int64_t scheduled_events() const { return scheduled_events_; }

  // Token free-list statistics, exposed for tests and the bench harness.
  int64_t tokens_created() const { return tokens_created_; }
  int64_t tokens_recycled() const { return tokens_recycled_; }

  // Verifies event-queue invariants, calling `fail` once per violation:
  //  * the heap property holds over the pending-event array;
  //  * no pending event is scheduled before `now()`;
  //  * sequence numbers are within the issued range (duplicates would break
  //    deterministic same-time ordering);
  //  * the dispatch clock never ran ahead of the loop clock.
  // (Detached events legitimately carry no cancellation token, so a null
  // token is *not* a violation.)
  // Returns the number of violations found. Read-only; safe to call from an
  // audit event while the loop runs.
  int CheckInvariants(AuditFailFn fail) const;

 private:
  struct Event {
    TimeUs when;
    uint64_t seq;
    EventFn fn;
    CancelToken cancelled;  // nullptr for detached (Post*) events.
  };

  // Min-heap on (when, seq) via the std heap algorithms (which build a
  // max-heap with respect to the comparator: invert).
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  // Removes and returns the earliest event.
  Event PopTop();

  // Token free list: AcquireToken reuses a previously released token when
  // possible; ReleaseToken returns a token to the pool iff the loop holds
  // the only reference (no live EventHandle still observes it).
  CancelToken AcquireToken();
  void ReleaseToken(CancelToken&& token);

  TimeUs now_ = TimeUs::Zero();
  TimeUs last_dispatched_ = TimeUs::Zero();
  int64_t dispatched_events_ = 0;
  int64_t scheduled_events_ = 0;
  int64_t detached_events_ = 0;
  int64_t tokens_created_ = 0;
  int64_t tokens_recycled_ = 0;
  uint64_t next_seq_ = 0;
  std::vector<Event> heap_;
  std::vector<CancelToken> token_pool_;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_SIM_EVENT_LOOP_H_
