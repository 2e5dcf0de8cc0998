#include "src/net/packet_pool.h"

#include <utility>

#include "src/util/check.h"
#include "src/util/stats.h"

namespace airfair {

void PacketDeleter::operator()(Packet* packet) const noexcept {
  if (packet == nullptr) {
    return;
  }
  if (packet->origin_pool != nullptr) {
    packet->origin_pool->Release(packet);
  } else {
    // airfair-lint: allow(hot-naked-new): deleter half of NewHeapPacket
    delete packet;
  }
}

PacketPool::~PacketPool() {
  AF_CHECK_EQ(outstanding(), 0)
      << " packets still live at pool destruction (a PacketPtr outlived the "
         "pool; check Testbed member ordering)";
  GetCounter("packets.pool.allocated").Increment(total_allocated());
  GetCounter("packets.pool.recycled").Increment(total_recycled());
  GetCounter("packets.pool.chunks").Increment(chunks());
}

void PacketPool::AddChunk() {
  // make_unique<Packet[]> value-initialises; fields are overwritten again on
  // Allocate, but the free-list links must start out sane.
  std::unique_ptr<Packet[]> storage =
      std::make_unique<Packet[]>(static_cast<size_t>(chunk_packets_));
  Packet* chunk = storage.get();
  chunks_.push_back(std::move(storage));
  for (int i = chunk_packets_ - 1; i >= 0; --i) {
    chunk[i].pool_next = free_head_;
    free_head_ = &chunk[i];
  }
}

PacketPtr PacketPool::Allocate() {
  if (free_head_ == nullptr) {
    AddChunk();
  } else {
    ++recycled_;
  }
  Packet* packet = free_head_;
  free_head_ = packet->pool_next;
  // Reset to a pristine packet. Assigning a value-initialised temporary
  // keeps this in lockstep with the Packet field list (no hand-maintained
  // reset routine to fall out of date) and costs a ~160-byte store.
  *packet = Packet{};
  packet->origin_pool = this;
  ++allocated_;
  ++outstanding_;
  return PacketPtr(packet);
}

void PacketPool::Release(Packet* packet) {
  AF_DCHECK_EQ(packet->origin_pool, this);
  packet->pool_next = free_head_;
  free_head_ = packet;
  --outstanding_;
}

}  // namespace airfair

