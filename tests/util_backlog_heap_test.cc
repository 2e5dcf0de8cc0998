#include "src/util/backlog_heap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/util/rng.h"

namespace airfair {
namespace {

struct Item {
  int64_t bytes = 0;
  HeapSlot slot;
};

using ItemHeap = BacklogHeap<Item, &Item::bytes, &Item::slot>;

int Integrity(const ItemHeap& heap, std::vector<std::string>* messages = nullptr) {
  return heap.CheckIntegrity([messages](const std::string& m) {
    if (messages != nullptr) {
      messages->push_back(m);
    }
  });
}

TEST(BacklogHeap, StartsEmpty) {
  ItemHeap heap;
  EXPECT_EQ(heap.size(), 0u);
  EXPECT_EQ(heap.Top(), nullptr);
  EXPECT_EQ(Integrity(heap), 0);
}

TEST(BacklogHeap, LargestKeyOnTopAndLowestTieAmongEquals) {
  ItemHeap heap;
  Item a, b, c;
  a.bytes = 3000;
  b.bytes = 4500;
  c.bytes = 4500;
  heap.Push(&a, 1);
  heap.Push(&c, 3);
  heap.Push(&b, 2);
  EXPECT_EQ(heap.Top(), &b);  // Ties with c on bytes, joined earlier.
  c.bytes = 6000;
  heap.KeyIncreased(&c);
  EXPECT_EQ(heap.Top(), &c);
  c.bytes = 1500;
  heap.KeyDecreased(&c);
  EXPECT_EQ(heap.Top(), &b);
  heap.Remove(&b);
  EXPECT_FALSE(ItemHeap::Contains(&b));
  EXPECT_EQ(heap.Top(), &a);
  EXPECT_EQ(heap.size(), 2u);
  EXPECT_EQ(Integrity(heap), 0);
}

TEST(BacklogHeap, CheckIntegrityDetectsDisorderAndBrokenBackPointers) {
  ItemHeap heap;
  Item items[4];
  for (int i = 0; i < 4; ++i) {
    items[i].bytes = 1500 * (i + 1);
    heap.Push(&items[i], static_cast<uint64_t>(i));
  }
  ASSERT_EQ(Integrity(heap), 0);

  heap.SwapForTesting(0, heap.size() - 1);
  std::vector<std::string> messages;
  EXPECT_GT(Integrity(heap, &messages), 0);
  ASSERT_FALSE(messages.empty());
  EXPECT_NE(messages[0].find("order violated"), std::string::npos) << messages[0];
  heap.SwapForTesting(0, heap.size() - 1);
  ASSERT_EQ(Integrity(heap), 0);

  heap.Top()->slot.pos = 3;
  messages.clear();
  EXPECT_GT(Integrity(heap, &messages), 0);
  ASSERT_FALSE(messages.empty());
  EXPECT_NE(messages[0].find("back-pointer"), std::string::npos) << messages[0];
}

// Property: after every operation of a seeded random sequence, Top() is the
// element a linear scan in join order picks (the first strictly-larger
// maximum, exactly what the replaced scans did), and the heap audits clean.
// Keys come from a handful of packet multiples, so equal keys are common and
// the tie-break is exercised on most operations.
TEST(BacklogHeap, TopMatchesFirstMaxScanUnderRandomOps) {
  for (const int n : {1, 2, 3, 5, 17, 64, 255, 1024}) {
    SCOPED_TRACE(n);
    Rng rng(static_cast<uint64_t>(n) * 7919);
    std::vector<Item> items(static_cast<size_t>(n));
    std::vector<Item*> join_order;  // The replaced backlogged list.
    ItemHeap heap;
    uint64_t joins = 0;
    const int ops = std::max(400, 6 * n);
    for (int op = 0; op < ops; ++op) {
      Item* item = &items[static_cast<size_t>(rng.UniformInt(0, n - 1))];
      const int64_t delta = 1500 * rng.UniformInt(1, 2);
      if (!ItemHeap::Contains(item)) {
        item->bytes = delta;
        heap.Push(item, ++joins);
        join_order.push_back(item);
      } else if (rng.Chance(0.5)) {
        item->bytes += delta;
        heap.KeyIncreased(item);
      } else if (item->bytes > delta) {
        item->bytes -= delta;
        heap.KeyDecreased(item);
      } else {
        item->bytes = 0;
        heap.Remove(item);
        join_order.erase(std::find(join_order.begin(), join_order.end(), item));
      }

      Item* first_max = nullptr;
      for (Item* q : join_order) {
        if (first_max == nullptr || q->bytes > first_max->bytes) {
          first_max = q;
        }
      }
      ASSERT_EQ(heap.Top(), first_max) << "after op " << op;
      ASSERT_EQ(heap.size(), join_order.size());
      ASSERT_EQ(Integrity(heap), 0) << "after op " << op;
    }
  }
}

}  // namespace
}  // namespace airfair
