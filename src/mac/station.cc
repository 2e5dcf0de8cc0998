#include "src/mac/station.h"

#include <utility>

#include "src/mac/aggregation.h"
#include "src/mac/wifi_constants.h"

namespace airfair {
namespace {

// Per-AC uplink FIFO length: the stock pfifo's 1000 packets.
constexpr size_t kUplinkQueueLimit = 1000;

}  // namespace

WifiStation::WifiStation(Simulation* sim, WifiMedium* medium, const StationTable* stations,
                         StationId id, uint32_t ap_node_id)
    : sim_(sim), medium_(medium), stations_(stations), id_(id), ap_node_id_(ap_node_id) {
  for (int i = 0; i < kNumAccessCategories; ++i) {
    const auto ac = static_cast<AccessCategory>(i);
    acs_[static_cast<size_t>(i)] = std::make_unique<AcQueue>(this, ac);
    acs_[static_cast<size_t>(i)]->contender_id_ =
        medium_->Register(acs_[static_cast<size_t>(i)].get(), EdcaFor(ac), /*from_ap=*/false);
  }
}

void WifiStation::Detach() {
  detached_ = true;
  for (auto& q : acs_) {
    churn_drained_ += static_cast<int64_t>(q->fifo_.size());
    churn_drained_ += static_cast<int64_t>(q->retry_.size());
    q->fifo_.clear();
    q->retry_.clear();
  }
  // Uplink half of the block-ack teardown; the AP-side ReorderBuffer for
  // this transmitter is flushed by the caller so both sides restart at
  // sequence 0 on rejoin.
  sequencer_.ResetReceiver(ap_node_id_);
}

void WifiStation::SendUplink(PacketPtr packet) {
  if (detached_) {
    ++churn_drained_;
    return;
  }
  AcQueue* q = acs_[static_cast<size_t>(packet->ac())].get();
  if (q->fifo_.size() >= kUplinkQueueLimit) {
    ++uplink_drops_;
    return;
  }
  q->fifo_.push_back(std::move(packet));
  medium_->NotifyBacklog(q->contender_id_);
}

TxDescriptor WifiStation::AcQueue::BuildTransmission() {
  if (!HasPending()) {
    return TxDescriptor{};
  }
  const StationInfo& info = station_->stations_->Get(station_->id_);
  const Tid tid =
      !retry_.empty() ? retry_.front().packet->tid : fifo_.front()->tid;

  AggregationSource source;
  source.peek_bytes = [this]() -> int {
    if (!retry_.empty()) {
      return retry_.front().packet->size_bytes;
    }
    if (!fifo_.empty()) {
      return fifo_.front()->size_bytes;
    }
    return -1;
  };
  source.pop = [this]() -> Mpdu {
    if (!retry_.empty()) {
      Mpdu m = std::move(retry_.front());
      retry_.pop_front();
      return m;
    }
    Mpdu m;
    m.packet = std::move(fifo_.front());
    fifo_.pop_front();
    return m;
  };

  TxDescriptor tx = BuildAggregate(info.node_id, station_->ap_node_id_, station_->id_, tid,
                                   info.rate, AggregationAllowed(ac_, info.rate), source);
  for (auto& mpdu : tx.mpdus) {
    station_->sequencer_.AssignIfNeeded(mpdu.packet.get(), station_->ap_node_id_, tx.tid);
  }
  return tx;
}

void WifiStation::AcQueue::OnTxComplete(TxDescriptor tx, bool collision) {
  (void)collision;
  for (auto& mpdu : tx.mpdus) {
    if (mpdu.packet == nullptr) {
      continue;
    }
    ++mpdu.retries;
    if (mpdu.retries > kMpduRetryLimit) {
      ++station_->retry_drops_;
      continue;
    }
    if (station_->detached_) {
      // The station left while this aggregate was on the air: its failed
      // MPDUs are drained, not retried into a torn-down session.
      ++station_->churn_drained_;
      continue;
    }
    retry_.push_back(std::move(mpdu));
  }
  if (HasPending()) {
    station_->medium_->NotifyBacklog(contender_id_);
  }
}

}  // namespace airfair
