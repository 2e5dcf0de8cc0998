// Intrusive indexed binary max-heap over queues, ordered by backlog.
//
// Algorithm 1 drops from find_longest_queue() whenever the global limit is
// hit, and fq_codel drops from its fattest flow on overflow. Paper-era
// mac80211 kept its queues sorted by backlog (fq_recalc_backlog) so the
// longest queue was the head of a list; this heap gives the same answer in
// O(1) with an O(log n) sift per byte-count change, instead of a scan over
// every backlogged queue per overflowing packet.
//
// The order is (key descending, tie ascending). Callers give every element a
// distinct tie, so the order is strict and total: Top() is exactly the first
// maximum a scan in tie order would return. That makes the victim choice
// independent of the heap's internal layout.
//
// Each element embeds a HeapSlot holding its position in the heap array (the
// back-pointer that makes updates and removals O(log n)) and its tie.
//
// Its second user is the event queue's far tier (src/sim/event_loop.h), the
// events due beyond the timing wheel's window: keyed on -when with the
// sequence number as the tie, Top() is the earliest of them, the next to
// move into the wheel, and Remove() cancels a far timer in O(log n).

#ifndef AIRFAIR_SRC_UTIL_BACKLOG_HEAP_H_
#define AIRFAIR_SRC_UTIL_BACKLOG_HEAP_H_

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/util/check.h"
#include "src/util/function_ref.h"

namespace airfair {

// Embed one of these per heap a type can be on.
struct HeapSlot {
  int32_t pos = -1;  // Index in the heap array; -1 when not in the heap.
  uint64_t tie = 0;  // Among equal keys, the lower tie is on top.
};

// A max-heap of T keyed on the int64_t member `Key`, linked through the
// HeapSlot member `Slot`. Does not own its elements. Example:
//
//   struct Queue { int64_t bytes; HeapSlot slot; ... };
//   BacklogHeap<Queue, &Queue::bytes, &Queue::slot> heap;
//   q->bytes += size;
//   heap.Contains(q) ? heap.KeyIncreased(q) : heap.Push(q, ++joins);
//   Queue* longest = heap.Top();
template <typename T, int64_t T::* Key, HeapSlot T::* Slot>
class BacklogHeap {
 public:
  BacklogHeap() = default;

  BacklogHeap(const BacklogHeap&) = delete;
  BacklogHeap& operator=(const BacklogHeap&) = delete;

  size_t size() const { return items_.size(); }

  // The element with the largest key (lowest tie among equals), or nullptr.
  T* Top() const { return items_.empty() ? nullptr : items_.front(); }

  static bool Contains(const T* item) { return (item->*Slot).pos >= 0; }

  // Inserts `item` with the given tie. The item must not be in the heap.
  void Push(T* item, uint64_t tie) {
    AF_DCHECK(!Contains(item)) << " Push of an element already in the heap";
    (item->*Slot).tie = tie;
    items_.push_back(item);
    SiftUp(item, items_.size() - 1);
  }

  // Restore the order after `item`'s key grew / shrank.
  void KeyIncreased(T* item) { SiftUp(item, Pos(item)); }
  void KeyDecreased(T* item) { SiftDown(item, Pos(item)); }

  // Removes `item`, which must be in the heap.
  void Remove(T* item) {
    const size_t i = Pos(item);
    T* last = items_.back();
    items_.pop_back();
    (item->*Slot).pos = -1;
    if (last == item) {
      return;
    }
    if (i > 0 && Before(last, items_[(i - 1) / 2])) {
      SiftUp(last, i);
    } else {
      SiftDown(last, i);
    }
  }

  // Unordered iteration over the elements (for audits).
  auto begin() const { return items_.begin(); }
  auto end() const { return items_.end(); }

  // Structural audit: every element's position back-pointer names its array
  // slot, and every parent is strictly before its children. Calls `fail` once
  // per problem; returns the number of problems found. Read-only.
  int CheckIntegrity(AuditFailFn fail) const {
    int violations = 0;
    auto report = [&](const char* what, size_t i) {
      ++violations;
      std::ostringstream os;
      os << "backlog heap " << what << " at position " << i;
      fail(os.str());
    };
    for (size_t i = 0; i < items_.size(); ++i) {
      const T* item = items_[i];
      if (item == nullptr) {
        report("holds a null element", i);
        continue;
      }
      if ((item->*Slot).pos != static_cast<int32_t>(i)) {
        report("position back-pointer mismatch", i);
      }
      const T* parent = i > 0 ? items_[(i - 1) / 2] : nullptr;
      if (parent != nullptr && !Before(parent, item)) {
        report("order violated (child not after its parent)", i);
      }
    }
    return violations;
  }

  // Test-only: swaps two array slots, keeping the back-pointers consistent,
  // so only the order audit can tell.
  void SwapForTesting(size_t a, size_t b) {
    std::swap(items_[a], items_[b]);
    (items_[a]->*Slot).pos = static_cast<int32_t>(a);
    (items_[b]->*Slot).pos = static_cast<int32_t>(b);
  }

 private:
  static bool Before(const T* a, const T* b) {
    const int64_t ka = a->*Key;
    const int64_t kb = b->*Key;
    return ka != kb ? ka > kb : (a->*Slot).tie < (b->*Slot).tie;
  }

  static size_t Pos(const T* item) {
    AF_DCHECK(Contains(item)) << " element is not in the heap";
    return static_cast<size_t>((item->*Slot).pos);
  }

  void Place(T* item, size_t i) {
    items_[i] = item;
    (item->*Slot).pos = static_cast<int32_t>(i);
  }

  // Moves `item` (logically at hole `i`) up past every parent it is before.
  void SiftUp(T* item, size_t i) {
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (!Before(item, items_[parent])) {
        break;
      }
      Place(items_[parent], i);
      i = parent;
    }
    Place(item, i);
  }

  // Moves `item` (logically at hole `i`) down past every child before it.
  void SiftDown(T* item, size_t i) {
    const size_t n = items_.size();
    for (;;) {
      size_t child = 2 * i + 1;
      if (child >= n) {
        break;
      }
      if (child + 1 < n && Before(items_[child + 1], items_[child])) {
        ++child;
      }
      if (!Before(items_[child], item)) {
        break;
      }
      Place(items_[child], i);
      i = child;
    }
    Place(item, i);
  }

  std::vector<T*> items_;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_UTIL_BACKLOG_HEAP_H_
