#include "src/net/wired_link.h"
#include "src/util/check.h"

#include <algorithm>
#include <utility>

namespace airfair {

void WiredLink::Direction::Send(PacketPtr packet) {
  const TimeUs now = sim_->now();
  while (!waiting_.empty() && waiting_.front() <= now) {
    waiting_.pop_front();
  }
  if (static_cast<int>(waiting_.size()) >= config_.max_queue_packets) {
    ++drops_;
    return;
  }
  const TimeUs start = std::max(now, free_at_);
  if (start > now) {
    waiting_.push_back(start);
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
