#include "src/sim/event_loop.h"

#include <algorithm>
#include <sstream>
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
  GetCounter("sim.tokens.created").Increment(tokens_created_);
  GetCounter("sim.tokens.recycled").Increment(tokens_recycled_);
  GetCounter("sim.simulated_us").Increment(now_.us());
}

CancelToken EventLoop::AcquireToken() {
  if (!token_pool_.empty()) {
    CancelToken token = std::move(token_pool_.back());
    token_pool_.pop_back();
    *token = false;
    ++tokens_recycled_;
    return token;
  }
  ++tokens_created_;
  return std::make_shared<bool>(false);
}

void EventLoop::ReleaseToken(CancelToken&& token) {
  // Only recycle when the loop holds the sole reference: a live EventHandle
  // could otherwise observe a recycled token flipping back to "pending".
  if (token.use_count() == 1) {
    token_pool_.push_back(std::move(token));
  } else {
    token.reset();
  }
}

EventHandle EventLoop::ScheduleAt(TimeUs when, EventFn fn) {
  AF_CHECK_GE(when.us(), now_.us()) << " cannot schedule in the past";
  CancelToken cancelled = AcquireToken();
  EventHandle handle(cancelled);
  ++scheduled_events_;
  heap_.push_back(Event{when, next_seq_++, std::move(fn), std::move(cancelled)});
  std::push_heap(heap_.begin(), heap_.end(), EventAfter());
  return handle;
}

void EventLoop::PostAt(TimeUs when, EventFn fn) {
  AF_CHECK_GE(when.us(), now_.us()) << " cannot schedule in the past";
  ++scheduled_events_;
  ++detached_events_;
  heap_.push_back(Event{when, next_seq_++, std::move(fn), nullptr});
  std::push_heap(heap_.begin(), heap_.end(), EventAfter());
}

EventLoop::Event EventLoop::PopTop() {
  std::pop_heap(heap_.begin(), heap_.end(), EventAfter());
  Event event = std::move(heap_.back());
  heap_.pop_back();
  return event;
}

void EventLoop::RunUntil(TimeUs end) {
  while (!heap_.empty()) {
    if (heap_.front().when > end) {
      break;
    }
    Event event = PopTop();
    AF_DCHECK_GE(event.when.us(), now_.us()) << " event-loop time went backwards";
    now_ = event.when;
    if (event.cancelled == nullptr) {
      // Detached fast path: nothing to mark, nothing to recycle.
      last_dispatched_ = event.when;
      ++dispatched_events_;
      AF_TRACE_DISPATCH(now_, static_cast<int64_t>(heap_.size()));
      event.fn();
      continue;
    }
    const bool was_cancelled = *event.cancelled;
    if (!was_cancelled) {
      *event.cancelled = true;  // Mark fired so handles report !pending().
      last_dispatched_ = event.when;
      ++dispatched_events_;
      AF_TRACE_DISPATCH(now_, static_cast<int64_t>(heap_.size()));
      event.fn();
    }
    // Recycle after fn() ran: callbacks commonly overwrite the member
    // EventHandle holding the last reference (self-rescheduling timers),
    // which is exactly when the token becomes reusable.
    ReleaseToken(std::move(event.cancelled));
  }
  if (now_ < end) {
    now_ = end;
  }
}

bool EventLoop::RunOne() {
  while (!heap_.empty()) {
    Event event = PopTop();
    AF_DCHECK_GE(event.when.us(), now_.us()) << " event-loop time went backwards";
    now_ = event.when;
    if (event.cancelled == nullptr) {
      last_dispatched_ = event.when;
      ++dispatched_events_;
      AF_TRACE_DISPATCH(now_, static_cast<int64_t>(heap_.size()));
      event.fn();
      return true;
    }
    if (*event.cancelled) {
      ReleaseToken(std::move(event.cancelled));
      continue;
    }
    *event.cancelled = true;
    last_dispatched_ = event.when;
    ++dispatched_events_;
    AF_TRACE_DISPATCH(now_, static_cast<int64_t>(heap_.size()));
    event.fn();
    ReleaseToken(std::move(event.cancelled));
    return true;
  }
  return false;
}

int EventLoop::CheckInvariants(AuditFailFn fail) const {
  int violations = 0;
  auto report = [&](const std::string& message) {
    ++violations;
    fail(message);
  };

  if (!std::is_heap(heap_.begin(), heap_.end(), EventAfter())) {
    report("event heap violates the heap property");
  }
  for (size_t i = 0; i < heap_.size(); ++i) {
    const Event& event = heap_[i];
    if (event.when < now_) {
      std::ostringstream os;
      os << "pending event at index " << i << " is in the past: when=" << event.when.us()
         << "us now=" << now_.us() << "us";
      report(os.str());
    }
    if (event.seq >= next_seq_) {
      std::ostringstream os;
      os << "pending event at index " << i << " has unissued seq " << event.seq
         << " (next_seq=" << next_seq_ << ")";
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
