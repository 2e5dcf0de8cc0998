#include "src/sim/event_loop.h"

#include <sstream>
#include <string>
#include <utility>

#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/stats.h"

namespace airfair {

EventLoop::~EventLoop() {
  // Publish lifetime totals for the perf-tracking bench harness. Counter
  // lookups are string-keyed (not hot-path material), so this happens once
  // at teardown rather than per event.
  GetCounter("sim.events.dispatched").Increment(dispatched_events_);
  GetCounter("sim.events.scheduled").Increment(scheduled_events_);
  GetCounter("sim.events.detached").Increment(detached_events_);
  GetCounter("sim.event_slots").Increment(tokens_created());
  GetCounter("sim.simulated_us").Increment(now_.us());
}

EventSlot* EventLoop::Enqueue(TimeUs when, EventFn&& fn) {
  AF_CHECK_GE(when.us(), now_.us()) << " cannot schedule in the past";
  EventSlot* slot = free_;
  if (slot != nullptr) {
    free_ = slot->next_free;
  } else {
    slot = &slots_.emplace_back();
  }
  slot->neg_when = -when.us();
  slot->fn = std::move(fn);
  ++scheduled_events_;
  queue_.Push(slot, next_seq_++);
  return slot;
}

void EventLoop::Dispatch(EventSlot* slot) {
  queue_.Remove(slot);
  const TimeUs when(-slot->neg_when);
  AF_DCHECK_GE(when.us(), now_.us()) << " event-loop time went backwards";
  now_ = when;
  last_dispatched_ = when;
  ++dispatched_events_;
  AF_TRACE_DISPATCH(now_, static_cast<int64_t>(queue_.size()));
  // Runs in place: the slab never moves a slot, even if fn() grows it.
  slot->fn();
  Free(slot);
}

void EventLoop::Cancel(EventSlot* slot) {
  queue_.Remove(slot);
  Free(slot);
}

void EventLoop::Free(EventSlot* slot) {
  slot->fn = nullptr;
  ++slot->gen;
  slot->next_free = free_;
  free_ = slot;
}

void EventLoop::RunUntil(TimeUs end) {
  for (EventSlot* next = queue_.Top(); next != nullptr && -next->neg_when <= end.us();
       next = queue_.Top()) {
    Dispatch(next);
  }
  if (now_ < end) {
    now_ = end;
  }
}

bool EventLoop::RunOne() {
  EventSlot* next = queue_.Top();
  if (next == nullptr) {
    return false;
  }
  Dispatch(next);
  return true;
}

int EventLoop::CheckInvariants(AuditFailFn fail) const {
  int violations = queue_.CheckIntegrity(fail);
  auto report = [&](const std::string& message) {
    ++violations;
    fail(message);
  };

  for (const EventSlot* slot : queue_) {
    if (-slot->neg_when < now_.us()) {
      std::ostringstream os;
      os << "pending event at position " << slot->heap.pos
         << " is in the past: when=" << -slot->neg_when << "us now=" << now_.us() << "us";
      report(os.str());
    }
    if (slot->heap.tie >= next_seq_) {
      std::ostringstream os;
      os << "pending event at position " << slot->heap.pos << " has unissued seq "
         << slot->heap.tie << " (next_seq=" << next_seq_ << ")";
      report(os.str());
    }
  }
  if (last_dispatched_ > now_) {
    std::ostringstream os;
    os << "dispatch clock ran ahead of loop clock: last_dispatched=" << last_dispatched_.us()
       << "us now=" << now_.us() << "us";
    report(os.str());
  }
  return violations;
}

}  // namespace airfair
