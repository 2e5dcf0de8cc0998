#include "src/mac/access_point.h"

#include <utility>

#include "src/mac/wifi_constants.h"
#include "src/util/check.h"

namespace airfair {

AccessPoint::AccessPoint(Simulation* sim, WifiMedium* medium, const StationTable* stations,
                         uint32_t node_id)
    : sim_(sim), medium_(medium), stations_(stations), node_id_(node_id) {
  for (int i = 0; i < kNumAccessCategories; ++i) {
    const auto ac = static_cast<AccessCategory>(i);
    fronts_[static_cast<size_t>(i)] = std::make_unique<AcFrontEnd>(this, ac);
    fronts_[static_cast<size_t>(i)]->contender_id_ =
        medium_->Register(fronts_[static_cast<size_t>(i)].get(), EdcaFor(ac), /*from_ap=*/true);
  }
}

void AccessPoint::SetBackend(std::unique_ptr<ApQueueBackend> backend) {
  backend_ = std::move(backend);
}

void AccessPoint::EnsureStationStats(StationId station) {
  if (station < 0) {
    return;
  }
  if (station >= static_cast<StationId>(aggregation_by_station_.size())) {
    aggregation_by_station_.resize(static_cast<size_t>(station) + 1);
    estimated_airtime_.resize(static_cast<size_t>(station) + 1, TimeUs::Zero());
  }
}

void AccessPoint::FromWire(PacketPtr packet) {
  AF_CHECK(backend_ != nullptr) << " access point has no queue backend";
  const StationId station = stations_->FromNode(packet->flow.dst_node);
  if (station == kNoStation) {
    ++unroutable_;
    return;
  }
  if (!stations_->IsActive(station)) {
    // Downlink traffic racing a churn departure: the station is gone, so the
    // packet is destroyed and accounted as drained (not dropped — no AQM
    // decision was involved).
    ++churn_drained_;
    return;
  }
  const AccessCategory ac = packet->ac();
  backend_->Enqueue(std::move(packet), station);
  FillHardwareQueue(ac);
}

void AccessPoint::FromWifi(PacketPtr packet) {
  if (wire_egress_) {
    wire_egress_(std::move(packet));
  }
}

void AccessPoint::OnRxAirtime(StationId station, AccessCategory ac, TimeUs airtime) {
  EnsureStationStats(station);
  if (station >= 0) {
    estimated_airtime_[static_cast<size_t>(station)] += airtime;
  }
  if (backend_ != nullptr) {
    backend_->AccountRxAirtime(station, ac, airtime);
    // Received airtime can push a station's deficit negative, changing which
    // station is eligible next; give the scheduler a chance to rebuild.
    for (int i = 0; i < kNumAccessCategories; ++i) {
      FillHardwareQueue(static_cast<AccessCategory>(i));
    }
  }
}

TimeUs AccessPoint::EstimatedAirtime(StationId station) const {
  if (station < 0 || station >= static_cast<StationId>(estimated_airtime_.size())) {
    return TimeUs::Zero();
  }
  return estimated_airtime_[static_cast<size_t>(station)];
}

const RunningStats& AccessPoint::AggregationStats(StationId station) const {
  static const RunningStats kEmpty;
  if (station < 0 || station >= static_cast<StationId>(aggregation_by_station_.size())) {
    return kEmpty;
  }
  return aggregation_by_station_[static_cast<size_t>(station)];
}

void AccessPoint::FillHardwareQueue(AccessCategory ac) {
  AcFrontEnd* front = fronts_[static_cast<size_t>(ac)].get();
  while (static_cast<int>(front->hw_queue_.size()) < kHardwareQueueDepth) {
    TxDescriptor tx = backend_->BuildNext(ac);
    if (tx.empty()) {
      break;
    }
    if (tx.station >= 0 && !stations_->IsActive(tx.station)) {
      // A backend without per-station structure (the baseline qdiscs) still
      // holds packets for a departed station and builds aggregates from
      // them. Like mac80211 for a station no longer associated, drop them
      // here instead of spending airtime on them.
      for (const auto& mpdu : tx.mpdus) {
        if (mpdu.packet != nullptr) {
          ++churn_drained_;
        }
      }
      continue;
    }
    // MAC sequence numbers are assigned when frames are handed to the
    // hardware (after the reordering-capable queueing layers, as Section 3.1
    // requires); retries keep their numbers.
    for (auto& mpdu : tx.mpdus) {
      sequencer_.AssignIfNeeded(mpdu.packet.get(), tx.dst_node, tx.tid);
    }
    front->hw_queue_.push_back(std::move(tx));
  }
  if (!front->hw_queue_.empty()) {
    medium_->NotifyBacklog(front->contender_id_);
  }
}

void AccessPoint::DetachStation(StationId station) {
  if (station < 0) {
    return;
  }
  // Prepared-but-unsent aggregates: every live MPDU they hold is destroyed.
  for (auto& front : fronts_) {
    auto& hw = front->hw_queue_;
    for (auto it = hw.begin(); it != hw.end();) {
      if (it->station != station) {
        ++it;
        continue;
      }
      for (const auto& mpdu : it->mpdus) {
        if (mpdu.packet != nullptr) {
          ++churn_drained_;
        }
      }
      it = hw.erase(it);
    }
  }
  if (backend_ != nullptr) {
    churn_drained_ += backend_->FlushStation(station);
  }
  // Close the transmitter half of the block-ack sessions toward the station;
  // the caller resets the receiver half (ReorderBuffer::FlushStation) so
  // both sequence spaces restart together on rejoin.
  sequencer_.ResetReceiver(stations_->Get(station).node_id);
}

TxDescriptor AccessPoint::AcFrontEnd::BuildTransmission() {
  if (hw_queue_.empty()) {
    return TxDescriptor{};
  }
  TxDescriptor tx = std::move(hw_queue_.front());
  hw_queue_.pop_front();
  return tx;
}

void AccessPoint::AcFrontEnd::OnTxComplete(TxDescriptor tx, bool collision) {
  ap_->HandleTxComplete(this, std::move(tx));
  (void)collision;
}

void AccessPoint::HandleTxComplete(AcFrontEnd* front, TxDescriptor tx) {
  EnsureStationStats(tx.station);
  if (tx_observer_) {
    int succeeded = 0;
    for (const auto& mpdu : tx.mpdus) {
      if (mpdu.packet == nullptr) {
        ++succeeded;
      }
    }
    tx_observer_(tx, succeeded);
  }
  if (tx.aggregated && tx.station >= 0) {
    aggregation_by_station_[static_cast<size_t>(tx.station)].Add(
        static_cast<double>(tx.frame_count()));
  }
  if (tx.station >= 0) {
    estimated_airtime_[static_cast<size_t>(tx.station)] += tx.duration;
  }
  backend_->AccountTxAirtime(tx.station, tx.ac, tx.duration);

  // Failed MPDUs (packets still present) go back through the retry queue.
  for (auto& mpdu : tx.mpdus) {
    if (mpdu.packet == nullptr) {
      continue;
    }
    ++mpdu.retries;
    if (mpdu.retries > kMpduRetryLimit) {
      ++retry_drops_;
      continue;
    }
    if (tx.station >= 0 && !stations_->IsActive(tx.station)) {
      // The station detached while this aggregate was on the air. Requeueing
      // would re-mark a retired station backlogged; drain instead.
      ++churn_drained_;
      continue;
    }
    backend_->Requeue(tx.station, tx.tid, std::move(mpdu));
  }
  FillHardwareQueue(front->ac_);
}

}  // namespace airfair
