// Full-duplex point-to-point wired link (the Gigabit Ethernet hop between the
// server and the access point in the paper's testbed).
//
// Each direction serializes packets at the configured rate after a fixed
// one-way propagation/processing delay. The buffer is a plain FIFO; at
// 1 Gbit/s it never becomes the bottleneck in the evaluated scenarios, but
// the limit exists so misconfigured scenarios fail loudly rather than grow
// without bound. The configurable extra delay models the paper's baseline
// one-way delays (5 ms / 50 ms in Table 2).

#ifndef AIRFAIR_SRC_NET_WIRED_LINK_H_
#define AIRFAIR_SRC_NET_WIRED_LINK_H_

#include <cstdint>
#include <deque>
#include <utility>

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
    Direction(Simulation* sim, const Config& config) : sim_(sim), config_(config) {}

    void set_deliver(InlineFunction<void(PacketPtr)> deliver) { deliver_ = std::move(deliver); }

    void Send(PacketPtr packet);

    int64_t drops() const { return drops_; }
    int64_t delivered() const { return delivered_; }

   private:
    void StartNext();

    Simulation* sim_;
    Config config_;
    InlineFunction<void(PacketPtr)> deliver_;
    std::deque<PacketPtr> queue_;
    bool busy_ = false;
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
