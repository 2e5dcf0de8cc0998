#include "src/sim/event_loop.h"

#include <array>
#include <bit>
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
    free_ = slot->prev;
  } else {
    slot = &slots_.emplace_back();
  }
  slot->neg_when = -when.us();
  slot->fn = std::move(fn);
  ++scheduled_events_;
  const uint64_t seq = next_seq_++;
  if (when.us() - now_.us() < kWheelUs) {
    slot->heap.tie = seq;
    Link(slot);
  } else {
    far_.Push(slot, seq);
  }
  return slot;
}

EventSlot* EventLoop::Next() const {
  // Wheel events all precede far ones, and lie in [now, now + kWheelUs): the
  // first occupied bucket from now's, wrapping, holds the earliest.
  return wheel_size_ == 0 ? far_.Top() : buckets_[NextBucket(Bucket(now_.us()))];
}

void EventLoop::Dispatch(EventSlot* slot) {
  Unqueue(slot);
  const TimeUs when(-slot->neg_when);
  AF_DCHECK_GE(when.us(), now_.us()) << " event-loop time went backwards";
  Advance(when);
  last_dispatched_ = when;
  ++dispatched_events_;
  AF_TRACE_DISPATCH(now_, static_cast<int64_t>(pending_events()));
  // Runs in place: the slab never moves a slot, even if fn() grows it.
  slot->fn();
  Free(slot);
}

void EventLoop::Cancel(EventSlot* slot) {
  Unqueue(slot);
  Free(slot);
}

void EventLoop::Free(EventSlot* slot) {
  slot->fn = nullptr;
  ++slot->gen;
  slot->prev = free_;
  free_ = slot;
}

void EventLoop::Advance(TimeUs t) {
  now_ = t;
  const int64_t horizon = t.us() + kWheelUs;
  for (EventSlot* far = far_.Top(); far != nullptr && -far->neg_when < horizon;
       far = far_.Top()) {
    far_.Remove(far);
    Link(far);
  }
}

void EventLoop::Link(EventSlot* slot) {
  const size_t bucket = Bucket(-slot->neg_when);
  EventSlot* head = buckets_[bucket];
  if (head == nullptr) {
    slot->prev = slot;
    slot->next = slot;
    buckets_[bucket] = slot;
    SetOccupied(bucket);
  } else {
    slot->prev = head->prev;
    slot->next = head;
    head->prev->next = slot;
    head->prev = slot;
  }
  ++wheel_size_;
}

void EventLoop::Unlink(EventSlot* slot) {
  const size_t bucket = Bucket(-slot->neg_when);
  if (slot->next == slot) {
    buckets_[bucket] = nullptr;
    ClearOccupied(bucket);
  } else {
    slot->prev->next = slot->next;
    slot->next->prev = slot->prev;
    if (buckets_[bucket] == slot) {
      buckets_[bucket] = slot->next;
    }
  }
  slot->next = nullptr;
  --wheel_size_;
}

void EventLoop::Unqueue(EventSlot* slot) {
  if (slot->next != nullptr) {
    Unlink(slot);
  } else {
    far_.Remove(slot);
  }
}

namespace {

// The first set bit at or after `from` in a two-word bitmap, or 128 if none.
size_t FirstSetFrom(const std::array<uint64_t, 2>& bits, size_t from) {
  for (size_t word = from / 64; word < bits.size(); ++word) {
    const uint64_t mask = word == from / 64 ? ~uint64_t{0} << (from % 64) : ~uint64_t{0};
    if ((bits[word] & mask) != 0) {
      return word * 64 + static_cast<size_t>(std::countr_zero(bits[word] & mask));
    }
  }
  return 2 * 64;
}

}  // namespace

size_t EventLoop::NextBucket(size_t from) const {
  size_t word = from / 64;
  const uint64_t later = occupied_[word] & (~uint64_t{0} << (from % 64));
  if (later != 0) {
    return word * 64 + static_cast<size_t>(std::countr_zero(later));
  }
  // The first occupied word after `word`, else the first from the start.
  word = FirstSetFrom(summary_, word + 1);
  if (word == kWords) {
    word = FirstSetFrom(summary_, 0);
  }
  return word * 64 + static_cast<size_t>(std::countr_zero(occupied_[word]));
}

void EventLoop::SetOccupied(size_t bucket) {
  const size_t word = bucket / 64;
  occupied_[word] |= uint64_t{1} << (bucket % 64);
  summary_[word / 64] |= uint64_t{1} << (word % 64);
}

void EventLoop::ClearOccupied(size_t bucket) {
  const size_t word = bucket / 64;
  occupied_[word] &= ~(uint64_t{1} << (bucket % 64));
  if (occupied_[word] == 0) {
    summary_[word / 64] &= ~(uint64_t{1} << (word % 64));
  }
}

void EventLoop::RunUntil(TimeUs end) {
  for (EventSlot* next = Next(); next != nullptr && -next->neg_when <= end.us(); next = Next()) {
    Dispatch(next);
  }
  if (now_ < end) {
    Advance(end);
  }
}

bool EventLoop::RunOne() {
  EventSlot* next = Next();
  if (next == nullptr) {
    return false;
  }
  Dispatch(next);
  return true;
}

int EventLoop::CheckInvariants(AuditFailFn fail) const {
  int violations = far_.CheckIntegrity(fail);
  auto report = [&](const std::string& message) {
    ++violations;
    fail(message);
  };
  const int64_t now = now_.us();
  const int64_t horizon = now + kWheelUs;
  auto check_seq = [&](const EventSlot* slot, const char* where) {
    if (slot->heap.tie >= next_seq_) {
      std::ostringstream os;
      os << where << " event at " << -slot->neg_when << "us has unissued seq " << slot->heap.tie
         << " (next_seq=" << next_seq_ << ")";
      report(os.str());
    }
  };

  for (const EventSlot* slot : far_) {
    if (-slot->neg_when < horizon) {
      std::ostringstream os;
      os << "far event at heap position " << slot->heap.pos << " is due inside the wheel: when="
         << -slot->neg_when << "us now=" << now << "us";
      report(os.str());
    }
    check_seq(slot, "far");
  }

  size_t walked = 0;
  for (size_t word = 0; word < kWords; ++word) {
    const EventSlot* const* heads = &buckets_[word * 64];
    bool any = false;  // A cheap first pass: most words have no ring.
    for (size_t i = 0; i < 64; ++i) {
      any |= heads[i] != nullptr;
    }
    uint64_t filled = 0;  // Bit i: bucket 64 * word + i has a ring.
    for (size_t i = 0; any && i < 64; ++i) {
      filled |= static_cast<uint64_t>(heads[i] != nullptr) << i;
    }
    for (uint64_t wrong = filled ^ occupied_[word]; wrong != 0; wrong &= wrong - 1) {
      const size_t bucket = word * 64 + static_cast<size_t>(std::countr_zero(wrong));
      std::ostringstream os;
      os << "wheel bucket " << bucket
         << (Occupied(bucket) ? " is empty but its occupancy bit is set"
                              : " holds events but its occupancy bit is clear");
      report(os.str());
    }
    for (; filled != 0; filled &= filled - 1) {
      const size_t bucket = word * 64 + static_cast<size_t>(std::countr_zero(filled));
      const EventSlot* head = buckets_[bucket];
      const EventSlot* slot = head;
      do {
        ++walked;
        const int64_t when = -slot->neg_when;
        if (when < now || when >= horizon) {
          std::ostringstream os;
          os << "wheel event in bucket " << bucket << " is outside [now, now + " << kWheelUs
             << "): when=" << when << "us now=" << now << "us";
          report(os.str());
        } else if (Bucket(when) != bucket) {
          std::ostringstream os;
          os << "wheel event due at " << when << "us sits in bucket " << bucket;
          report(os.str());
        }
        check_seq(slot, "wheel");
        const EventSlot* next = slot->next;
        if (next == nullptr || next->prev != slot) {
          std::ostringstream os;
          os << "wheel bucket " << bucket << " ring is broken after seq " << slot->heap.tie;
          report(os.str());
          break;
        }
        if (next != head && next->heap.tie <= slot->heap.tie) {
          std::ostringstream os;
          os << "wheel bucket " << bucket << " ring is out of seq order: " << slot->heap.tie
             << " then " << next->heap.tie;
          report(os.str());
        }
        slot = next;
      } while (slot != head && walked <= wheel_size_);
    }
  }
  if (walked != wheel_size_) {
    std::ostringstream os;
    os << "wheel counts " << wheel_size_ << " events but its rings hold " << walked;
    report(os.str());
  }
  for (size_t word = 0; word < kWords; ++word) {
    const bool summarised = ((summary_[word / 64] >> (word % 64)) & 1) != 0;
    if (summarised != (occupied_[word] != 0)) {
      std::ostringstream os;
      os << "wheel summary bit " << word << " is " << (summarised ? "set" : "clear")
         << " but bitmap word " << word << " is " << (summarised ? "zero" : "non-zero");
      report(os.str());
    }
  }
  if (last_dispatched_ > now_) {
    std::ostringstream os;
    os << "dispatch clock ran ahead of loop clock: last_dispatched=" << last_dispatched_.us()
       << "us now=" << now << "us";
    report(os.str());
  }
  return violations;
}

void EventLoop::SwapBucketHeadForTesting(TimeUs when) {
  const size_t bucket = Bucket(when.us());
  EventSlot* first = buckets_[bucket];
  AF_CHECK(first != nullptr && first->next != first) << " needs two events in the bucket";
  EventSlot* second = first->next;
  // Take `first` out of the ring, then put it back right after `second`.
  first->prev->next = second;
  second->prev = first->prev;
  first->next = second->next;
  first->prev = second;
  second->next->prev = first;
  second->next = first;
  buckets_[bucket] = second;
}

void EventLoop::ClearOccupancyForTesting(TimeUs when) { ClearOccupied(Bucket(when.us())); }

}  // namespace airfair
