#include "src/net/wired_link.h"
#include "src/util/check.h"

#include <algorithm>
#include <utility>

namespace airfair {

WiredLink::Direction::Direction(Simulation* sim, const Config& config)
    : sim_(sim), config_(config) {
  AF_CHECK(config_.max_queue_packets >= 0)
      << " wired link buffer of " << config_.max_queue_packets << " packets";
  waiting_.resize(static_cast<size_t>(config_.max_queue_packets));
}

void WiredLink::Direction::Send(PacketPtr packet) {
  const TimeUs now = sim_->now();
  while (waiting_count_ > 0 && waiting_[waiting_head_] <= now) {
    if (++waiting_head_ == waiting_.size()) {
      waiting_head_ = 0;
    }
    --waiting_count_;
  }
  // Checked before the push, so a zero-packet buffer drops every packet.
  if (waiting_count_ >= config_.max_queue_packets) {
    ++drops_;
    return;
  }
  const TimeUs start = std::max(now, free_at_);
  if (start > now) {
    size_t tail = waiting_head_ + static_cast<size_t>(waiting_count_);
    if (tail >= waiting_.size()) {
      tail -= waiting_.size();
    }
    waiting_[tail] = start;
    ++waiting_count_;
  }
  const double tx_seconds = static_cast<double>(packet->size_bytes) * 8.0 / config_.rate_bps;
  free_at_ = start + TimeUs::FromSeconds(tx_seconds);
  // Delivery happens after serialization + propagation. The packet moves
  // straight into the event closure (EventFn accepts move-only captures, so
  // no shared_ptr holder and no heap traffic); if the simulation ends before
  // the event fires, the closure's destructor releases the packet.
  // airfair-lint: allow(callback-lifetime): no event runs once ~Testbed starts, destroying a queued closure never touches its `this`, and its PacketPtrs return to the Testbed's packet pool, which outlives its Simulation.
  sim_->PostAt(free_at_ + config_.one_way_delay, [this, packet = std::move(packet)]() mutable {
    AF_DCHECK(deliver_) << " wired link delivery not wired";
    ++delivered_;
    deliver_(std::move(packet));
  });
}

}  // namespace airfair
