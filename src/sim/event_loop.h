// Discrete-event simulation core.
//
// Events fire in (time, sequence number) order; the sequence number makes
// same-time events fire in scheduling order, which keeps runs deterministic.
// Events are arbitrary callables and can be cancelled through the returned
// handle.
//
// Each scheduled event, detached or not, occupies an EventSlot from a slab
// whose addresses never move. The queue holds pointers to live events only,
// in two tiers:
//  * the near tier, every event due within kWheelUs of now: a timing wheel
//    with one bucket per microsecond. A bucket is a FIFO ring linked through
//    the slots themselves, and an occupancy bitmap (one bit per bucket, with
//    a summary bit per bitmap word) finds the next due bucket in a few word
//    operations, so scheduling, dispatching and cancelling a near event are
//    O(1);
//  * the far tier, every later event: the indexed BacklogHeap of
//    src/util/backlog_heap.h, keyed on -when with the sequence number as the
//    tie. Cancel removes a far event in O(log n) through its position
//    back-pointer.
// Advance(t) is the only writer of the clock. Each time the clock moves it
// brings every far event now inside the window into its bucket, in heap
// order, before anything can be scheduled straight into that bucket; so a
// bucket holds events of one time, in sequence order, and the wheel's next
// occupied bucket after now's holds the earliest event.
//
// Slots never move:
//  * a callable is moved once, into its slot, and runs there in place; it is
//    destroyed and the slot freed right after it returns;
//  * Cancel unqueues the slot at once, destroys the callable and frees the
//    slot, so a cancelled timer never lingers in the queue;
//  * free slots are linked through themselves, and the bucket heads are
//    allocated once per loop, so steady-state scheduling, dispatch and
//    cancellation allocate nothing (see DESIGN.md "Performance
//    architecture").
//
// Callables are stored in a move-only InlineFunction with 48 bytes of inline
// storage, so closures capturing a couple of pointers and a moved PacketPtr
// never touch the heap. PostAt/PostAfter schedule *detached* events that
// nobody can cancel, the common case on the packet paths.
//
// CheckInvariants verifies both tiers, that no pending event is in the past,
// and that dispatch time is monotone.

#ifndef AIRFAIR_SRC_SIM_EVENT_LOOP_H_
#define AIRFAIR_SRC_SIM_EVENT_LOOP_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

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
  int64_t neg_when = 0;  // -dispatch time (us): the far heap's max is the earliest.
  HeapSlot heap;         // Far-tier position (-1 when not there); tie = seq.
  uint32_t gen = 0;      // Bumped each time the slot is freed.
  // Near-tier bucket ring links; `next` is null when the slot is not in the
  // wheel. While the slot is unused, `prev` links the free list, which keeps
  // the slot at two cache lines.
  EventSlot* prev = nullptr;
  EventSlot* next = nullptr;
  EventFn fn;

  // In either tier of the queue: pending, not running or free.
  bool queued() const { return heap.pos >= 0 || next != nullptr; }
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
    return slot_ != nullptr && slot_->gen == gen_ && slot_->queued();
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
  // Span of the near tier, in microseconds: events due before now + kWheelUs
  // go into the wheel, later ones into the far heap. The smallest power of
  // two (so a bucket is `when & (kWheelUs - 1)`) above the longest delay the
  // packet paths post on every packet: the 6,400 us period of a CBR source
  // sending 1,500-byte packets at 480 Mbit/s split over 256 stations. The
  // other per-packet delays are shorter (an A-MPDU is at most 4 ms, and the
  // wired backlog those 256 sources leave at 1 Gbit/s about 3 ms); what stays
  // far is a few timers per flow (TCP's >= 200 ms RTO and 40 ms delayed ACK,
  // 100 ms pings, the 10 ms audit). The bucket heads cost 8 bytes each,
  // 64 KB per loop.
  static constexpr int64_t kWheelUs = 8192;

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

  // Live (scheduled, not yet fired or cancelled) events, in both tiers.
  size_t pending_events() const { return wheel_size_ + far_.size(); }

  // Dispatch time of the most recently fired event (Zero before any fire).
  TimeUs last_dispatched() const { return last_dispatched_; }
  int64_t dispatched_events() const { return dispatched_events_; }
  int64_t scheduled_events() const { return scheduled_events_; }

  // Event slots the slab has created: the peak number of events that were
  // pending or running at once. Read by the tests and perfbench.
  int64_t tokens_created() const { return static_cast<int64_t>(slots_.size()); }

  // Verifies event-queue invariants, calling `fail` once per violation:
  //  * the far heap's position back-pointers and (when, seq) order hold, and
  //    every far event is due at or after now() + kWheelUs;
  //  * every bucket ring's links are consistent, each wheel event lies in
  //    [now(), now() + kWheelUs) and in its own bucket, and sequence numbers
  //    strictly increase along each ring;
  //  * the occupancy bitmap and its summary agree with the buckets, and the
  //    wheel's event count with its rings;
  //  * sequence numbers are within the issued range (duplicates would break
  //    deterministic same-time ordering);
  //  * the dispatch clock never ran ahead of the loop clock.
  // Returns the number of violations found. Read-only; safe to call from an
  // audit event while the loop runs.
  int CheckInvariants(AuditFailFn fail) const;

  // Test-only corruptions of the wheel, each caught by CheckInvariants:
  // moves the first event of `when`'s bucket behind the second (which must
  // exist), so sequence numbers fall out of order along the ring;
  void SwapBucketHeadForTesting(TimeUs when);
  // clears the occupancy bit of `when`'s bucket, keeping the summary in step
  // with the bitmap words.
  void ClearOccupancyForTesting(TimeUs when);

 private:
  friend class EventHandle;

  static constexpr size_t kWords = kWheelUs / 64;  // Occupancy bitmap words.
  static_assert((kWheelUs & (kWheelUs - 1)) == 0, "the bucket index is a mask");
  static_assert(kWords == 2 * 64, "the summary is two words");

  static size_t Bucket(int64_t when) { return static_cast<size_t>(when & (kWheelUs - 1)); }

  // Takes a free slot (or grows the slab), stores `fn` in it and queues it.
  EventSlot* Enqueue(TimeUs when, EventFn&& fn);
  // The earliest pending event, or nullptr.
  EventSlot* Next() const;
  // Unqueues `slot`, advances the clock to it, runs its callable in place and
  // frees the slot.
  void Dispatch(EventSlot* slot);
  // Unqueues a pending `slot` and frees it without running it.
  void Cancel(EventSlot* slot);
  // Destroys the callable, bumps the generation and links the slot into the
  // free list.
  void Free(EventSlot* slot);
  // Sets the clock to `t` (>= now) and moves every far event now due before
  // t + kWheelUs into its bucket, in (when, seq) order. The only writer of
  // now_.
  void Advance(TimeUs t);
  // Link appends `slot` to its bucket's ring and Unlink takes it out;
  // Unqueue takes a pending slot out of whichever tier holds it.
  void Link(EventSlot* slot);
  void Unlink(EventSlot* slot);
  void Unqueue(EventSlot* slot);
  // The first occupied bucket at or after `from`, wrapping past the end of
  // the wheel. The wheel must not be empty.
  size_t NextBucket(size_t from) const;
  bool Occupied(size_t bucket) const { return (occupied_[bucket / 64] >> (bucket % 64)) & 1; }
  void SetOccupied(size_t bucket);
  void ClearOccupied(size_t bucket);

  TimeUs now_ = TimeUs::Zero();
  TimeUs last_dispatched_ = TimeUs::Zero();
  int64_t dispatched_events_ = 0;
  int64_t scheduled_events_ = 0;
  int64_t detached_events_ = 0;
  uint64_t next_seq_ = 0;
  std::deque<EventSlot> slots_;  // Never shrinks; addresses are stable.
  EventSlot* free_ = nullptr;
  // Near tier: bucket `when & (kWheelUs - 1)` is the head of the FIFO ring of
  // the events due at `when`; bit b of occupied_ is set iff bucket b is
  // non-empty, and bit w of summary_ iff occupied_[w] is non-zero.
  std::vector<EventSlot*> buckets_ = std::vector<EventSlot*>(kWheelUs, nullptr);
  std::array<uint64_t, kWords> occupied_{};
  std::array<uint64_t, 2> summary_{};
  size_t wheel_size_ = 0;
  // Far tier: events due at or after now_ + kWheelUs.
  BacklogHeap<EventSlot, &EventSlot::neg_when, &EventSlot::heap> far_;
};

inline void EventHandle::Cancel() {
  if (pending()) {
    loop_->Cancel(slot_);
  }
}

}  // namespace airfair

#endif  // AIRFAIR_SRC_SIM_EVENT_LOOP_H_
