// Full-duplex point-to-point wired link (the Gigabit Ethernet hop between the
// server and the access point in the paper's testbed).
//
// Each direction serializes packets in FIFO order at the configured rate,
// then adds a fixed one-way propagation/processing delay. The transmit
// schedule is computed in closed form when a packet is sent, so a packet
// costs one event: its delivery. The buffer limit counts the packets
// waiting to serialize, not the one on the wire; at 1 Gbit/s the buffer
// never becomes the bottleneck in the evaluated scenarios, but the limit
// exists so misconfigured scenarios fail loudly rather than grow without
// bound. The configurable extra delay models the paper's baseline one-way
// delays (5 ms / 50 ms in Table 2).

#ifndef AIRFAIR_SRC_NET_WIRED_LINK_H_
#define AIRFAIR_SRC_NET_WIRED_LINK_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/net/packet.h"
#include "src/sim/simulation.h"
#include "src/util/inline_function.h"

namespace airfair {

class WiredLink {
 public:
  struct Config {
    double rate_bps = 1e9;
    TimeUs one_way_delay = TimeUs::FromMicroseconds(100);
    // Switch-like shallow buffer; the standing queue should form at the
    // WiFi bottleneck, not here.
    int max_queue_packets = 2000;
  };

  // One direction of the link. Wire two of these for full duplex.
  class Direction {
   public:
    Direction(Simulation* sim, const Config& config);

    void set_deliver(InlineFunction<void(PacketPtr)> deliver) { deliver_ = std::move(deliver); }

    void Send(PacketPtr packet);

    int64_t drops() const { return drops_; }
    int64_t delivered() const { return delivered_; }

   private:
    Simulation* sim_;
    Config config_;
    InlineFunction<void(PacketPtr)> deliver_;
    // Serialization start times of the packets still waiting for the
    // transmitter, oldest first: the buffer occupancy. A ring of
    // max_queue_packets slots, allocated once, so a backlogged link
    // allocates nothing.
    std::vector<TimeUs> waiting_;
    size_t waiting_head_ = 0;
    int waiting_count_ = 0;
    // When the transmitter finishes the last packet it accepted.
    TimeUs free_at_;
    int64_t drops_ = 0;
    int64_t delivered_ = 0;
  };

  WiredLink(Simulation* sim, const Config& config) : forward_(sim, config), reverse_(sim, config) {}

  Direction& forward() { return forward_; }
  Direction& reverse() { return reverse_; }
  const Direction& forward() const { return forward_; }
  const Direction& reverse() const { return reverse_; }

 private:
  Direction forward_;
  Direction reverse_;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_NET_WIRED_LINK_H_
