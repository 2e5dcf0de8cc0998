// Discrete-event simulation core.
//
// Events fire in (time, sequence number) order; the sequence number makes
// same-time events fire in scheduling order, which keeps runs deterministic.
// Events are arbitrary callables and can be cancelled through the returned
// handle.
//
// Each scheduled event, detached or not, occupies an EventSlot from a slab
// whose addresses never move. The queue is the indexed BacklogHeap of
// src/util/backlog_heap.h over those slots, keyed on -when with the sequence
// number as the tie, so it holds pointers to live events only:
//  * a callable is moved once, into its slot, and runs there in place; it is
//    destroyed and the slot freed right after it returns;
//  * Cancel removes the slot from the heap in O(log n) through its position
//    back-pointer, destroys the callable at once and frees the slot, so a
//    cancelled timer never lingers in the queue;
//  * free slots are linked through themselves, so steady-state scheduling,
//    dispatch and cancellation allocate nothing (see DESIGN.md
//    "Performance architecture").
//
// Callables are stored in a move-only InlineFunction with 48 bytes of inline
// storage, so closures capturing a couple of pointers and a moved PacketPtr
// never touch the heap. PostAt/PostAfter schedule *detached* events that
// nobody can cancel, the common case on the packet paths.
//
// CheckInvariants verifies the heap structure, that no pending event is in
// the past, and that dispatch time is monotone.

#ifndef AIRFAIR_SRC_SIM_EVENT_LOOP_H_
#define AIRFAIR_SRC_SIM_EVENT_LOOP_H_

#include <cstdint>
#include <deque>
#include <utility>

#include "src/util/attributes.h"
#include "src/util/backlog_heap.h"
#include "src/util/function_ref.h"
#include "src/util/inline_function.h"
#include "src/util/time.h"

namespace airfair {

// Callable type stored per event. 48 inline bytes comfortably fits the
// simulator's hot-path closures (a this-pointer, a moved PacketPtr, and a
// couple of scalars); anything larger transparently falls back to the heap.
using EventFn = InlineFunction<void(), 48>;

class EventLoop;

// One scheduled event. Owned by its EventLoop; public only so the heap and
// EventHandle can name its members.
struct EventSlot {
  int64_t neg_when = 0;            // -dispatch time (us): the heap's max is the earliest.
  HeapSlot heap;                   // Queue position (-1 when not queued); tie = seq.
  uint32_t gen = 0;                // Bumped each time the slot is freed.
  EventSlot* next_free = nullptr;  // Free-list link while the slot is unused.
  EventFn fn;
};

// Cancellation handle for a scheduled event. Copyable; cancelling twice is
// harmless. A default-constructed handle refers to nothing.
//
// Lifetime contract: a handle must not be used (not even pending() or
// Cancel()) after its EventLoop is destroyed. Components that keep handles
// are destroyed before the Simulation that owns the loop.
class EventHandle {
 public:
  EventHandle() = default;

  // True while the event is still pending (not fired, not cancelled, not
  // running). A handle to a freed slot reports false even once the slot
  // carries a new event: the generation no longer matches.
  bool pending() const {
    return slot_ != nullptr && slot_->gen == gen_ && slot_->heap.pos >= 0;
  }

  // Prevents the event from firing and destroys its callable. No-op if it
  // already fired, is running, or was cancelled.
  inline void Cancel();

 private:
  friend class EventLoop;
  EventHandle(EventLoop* loop, EventSlot* slot) : loop_(loop), slot_(slot), gen_(slot->gen) {}

  EventLoop* loop_ = nullptr;
  EventSlot* slot_ = nullptr;
  uint32_t gen_ = 0;
};

class EventLoop {
 public:
  EventLoop() = default;

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Publishes lifetime totals (events dispatched/scheduled, simulated time,
  // event slots) into the named-counter registry for the bench harness. See
  // util/stats.h.
  ~EventLoop();

  TimeUs now() const { return now_; }

  // Schedules `fn` to run at absolute time `when` (>= now) and returns a
  // cancellation handle. AF_NODISCARD: dropping the handle makes the event
  // uncancellable — use PostAt for that.
  AF_NODISCARD EventHandle ScheduleAt(TimeUs when, EventFn fn) {
    return EventHandle(this, Enqueue(when, std::move(fn)));
  }

  // Schedules `fn` to run `delay` from now.
  AF_NODISCARD EventHandle ScheduleAfter(TimeUs delay, EventFn fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  // Fire-and-forget scheduling: no EventHandle. Use for the majority of
  // events that nobody ever cancels (packet arrivals, transmission
  // completions, one-shot kicks).
  void PostAt(TimeUs when, EventFn fn) {
    ++detached_events_;
    Enqueue(when, std::move(fn));
  }
  void PostAfter(TimeUs delay, EventFn fn) { PostAt(now_ + delay, std::move(fn)); }

  // Runs events until the queue is empty or simulated time would pass `end`.
  // The clock finishes at `end` (or earlier if the queue drains).
  void RunUntil(TimeUs end);

  // Runs the earliest pending event, if any; returns false (leaving the
  // clock alone) when none is pending. Mostly for tests.
  bool RunOne();

  // Live (scheduled, not yet fired or cancelled) events.
  size_t pending_events() const { return queue_.size(); }

  // Dispatch time of the most recently fired event (Zero before any fire).
  TimeUs last_dispatched() const { return last_dispatched_; }
  int64_t dispatched_events() const { return dispatched_events_; }
  int64_t scheduled_events() const { return scheduled_events_; }

  // Event slots the slab has created: the peak number of events that were
  // pending or running at once. Read by the tests and perfbench.
  int64_t tokens_created() const { return static_cast<int64_t>(slots_.size()); }

  // Verifies event-queue invariants, calling `fail` once per violation:
  //  * the heap's position back-pointers and (when, seq) order hold;
  //  * no pending event is scheduled before `now()`;
  //  * sequence numbers are within the issued range (duplicates would break
  //    deterministic same-time ordering);
  //  * the dispatch clock never ran ahead of the loop clock.
  // Returns the number of violations found. Read-only; safe to call from an
  // audit event while the loop runs.
  int CheckInvariants(AuditFailFn fail) const;

 private:
  friend class EventHandle;

  // Takes a free slot (or grows the slab), stores `fn` in it and queues it.
  EventSlot* Enqueue(TimeUs when, EventFn&& fn);
  // Unqueues `slot`, advances the clock to it, runs its callable in place and
  // frees the slot.
  void Dispatch(EventSlot* slot);
  // Unqueues a pending `slot` and frees it without running it.
  void Cancel(EventSlot* slot);
  // Destroys the callable, bumps the generation and links the slot into the
  // free list.
  void Free(EventSlot* slot);

  TimeUs now_ = TimeUs::Zero();
  TimeUs last_dispatched_ = TimeUs::Zero();
  int64_t dispatched_events_ = 0;
  int64_t scheduled_events_ = 0;
  int64_t detached_events_ = 0;
  uint64_t next_seq_ = 0;
  std::deque<EventSlot> slots_;  // Never shrinks; addresses are stable.
  EventSlot* free_ = nullptr;
  BacklogHeap<EventSlot, &EventSlot::neg_when, &EventSlot::heap> queue_;
};

inline void EventHandle::Cancel() {
  if (pending()) {
    loop_->Cancel(slot_);
  }
}

}  // namespace airfair

#endif  // AIRFAIR_SRC_SIM_EVENT_LOOP_H_
