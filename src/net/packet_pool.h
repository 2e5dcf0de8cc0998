// PacketPool: a per-simulation free-list arena for Packet objects.
//
// Every simulated packet used to cost one heap allocation + one deallocation
// (std::make_unique<Packet> at ~10 call sites). With tens of millions of
// packets per figure run, the allocator became a measurable fraction of the
// simulator's time.
//
// The pool allocates Packet storage in chunks and recycles returned packets
// through an intrusive free list (`Packet::pool_next`). The custom deleter
// on PacketPtr routes each packet back to its origin pool (`origin_pool`
// back-pointer), so ownership transfer via PacketPtr works exactly as
// before and call sites only change from `std::make_unique<Packet>()` to
// `host->NewPacket()`. After the initial warmup the steady state performs
// zero heap allocations per packet. A pool belongs to one simulation
// (= one repetition).

#ifndef AIRFAIR_SRC_NET_PACKET_POOL_H_
#define AIRFAIR_SRC_NET_PACKET_POOL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/net/packet.h"
#include "src/util/attributes.h"

namespace airfair {

class PacketPool {
 public:
  // Default packets per chunk. 256 * sizeof(Packet) ≈ 40 KiB: large enough
  // to make chunk allocations rare, small enough not to bloat 30-station
  // scenarios. Larger topologies pass a bigger `chunk_packets` (the Testbed
  // scales it with the station count) so a 256-station warmup does not pay
  // hundreds of chunk allocations.
  static constexpr int kChunkPackets = 256;

  explicit PacketPool(int chunk_packets = kChunkPackets)
      : chunk_packets_(chunk_packets > 0 ? chunk_packets : kChunkPackets) {}

  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  // All packets must have been returned before the pool dies — a live
  // PacketPtr outliving its pool would return into freed chunk memory.
  // (The Testbed declares the pool before the Simulation so event-loop
  // closures holding packets are destroyed first.)
  ~PacketPool();

  // Returns a freshly value-initialised packet owned by this pool. Reuses a
  // recycled packet from the free list when available; grows by one chunk
  // otherwise. AF_NODISCARD: a dropped PacketPtr bounces straight back into
  // the free list.
  AF_NODISCARD PacketPtr Allocate();

  // Called by PacketDeleter. Not for direct use. Returns the packet to the
  // free list.
  void Release(Packet* packet);

  // Introspection for tests / the bench harness.
  int64_t total_allocated() const { return allocated_; }
  int64_t total_recycled() const { return recycled_; }
  int64_t outstanding() const { return outstanding_; }
  int64_t chunks() const { return static_cast<int64_t>(chunks_.size()); }

 private:
  void AddChunk();

  const int chunk_packets_;
  Packet* free_head_ = nullptr;
  int64_t allocated_ = 0;    // Allocate() calls.
  int64_t recycled_ = 0;     // Allocate() calls served from the free list.
  int64_t outstanding_ = 0;  // Allocated minus released.
  std::vector<std::unique_ptr<Packet[]>> chunks_;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_NET_PACKET_POOL_H_
