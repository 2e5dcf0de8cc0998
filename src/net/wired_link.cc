#include "src/net/wired_link.h"
#include "src/util/check.h"

#include <utility>

namespace airfair {

void WiredLink::Direction::Send(PacketPtr packet) {
  if (static_cast<int>(queue_.size()) >= config_.max_queue_packets) {
    ++drops_;
    return;
  }
  queue_.push_back(std::move(packet));
  if (!busy_) {
    StartNext();
  }
}

void WiredLink::Direction::StartNext() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  PacketPtr packet = std::move(queue_.front());
  queue_.pop_front();
  const double tx_seconds = static_cast<double>(packet->size_bytes) * 8.0 / config_.rate_bps;
  const TimeUs tx_time = TimeUs::FromSeconds(tx_seconds);
  // Delivery happens after serialization + propagation; the transmitter is
  // free again after serialization alone. The packet moves straight into the
  // event closure (EventFn accepts move-only captures, so no shared_ptr
  // holder and no heap traffic); if the simulation ends before the event
  // fires, the closure's destructor releases the packet.
  // airfair-lint: allow(callback-lifetime): no event runs once ~Testbed starts, destroying a queued closure never touches its `this`, and its PacketPtrs return to the Testbed's packet pool, which outlives its Simulation.
  sim_->PostAfter(tx_time + config_.one_way_delay, [this, packet = std::move(packet)]() mutable {
    AF_DCHECK(deliver_) << " wired link delivery not wired";
    ++delivered_;
    deliver_(std::move(packet));
  });
  // airfair-lint: allow(callback-lifetime): same reason as above.
  sim_->PostAfter(tx_time, [this] { StartNext(); });
}

}  // namespace airfair
