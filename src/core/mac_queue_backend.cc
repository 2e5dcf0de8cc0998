#include "src/core/mac_queue_backend.h"

#include <string>
#include <utility>

#include "src/mac/aggregation.h"

namespace airfair {
namespace {

// Expected-throughput estimate fed to the adaptation: PHY rate times this
// MAC-efficiency factor (stands in for the rate-selection algorithm's
// estimate).
constexpr double kRateEfficiency = 0.8;

}  // namespace

MacQueueBackend::MacQueueBackend(Simulation* sim, const StationTable* stations,
                                 uint32_t ap_node_id, const Config& config)
    : sim_(sim),
      stations_(stations),
      ap_node_id_(ap_node_id),
      config_(config),
      queues_([sim] { return sim->now(); }, MacQueues::Config()),
      scheduler_(config.scheduler),
      adaptation_([sim] { return sim->now(); }) {
  if (config_.codel_adaptation) {
    queues_.set_codel_params_provider(
        [this](StationId station) { return adaptation_.ParamsFor(station); });
  }
}

MacQueueBackend::MacQueueBackend(Simulation* sim, const StationTable* stations,
                                 uint32_t ap_node_id)
    : MacQueueBackend(sim, stations, ap_node_id, Config()) {}

void MacQueueBackend::MarkBacklogged(StationId station, Tid tid) {
  const AccessCategory ac = AcForTid(tid);
  if (config_.airtime_fairness) {
    scheduler_.MarkBacklogged(station, ac);
    return;
  }
  const int key = KeyOf(station, tid);
  if (!InRing(key)) {
    SetInRing(key, true);
    ring_[static_cast<size_t>(ac)].push_back(key);
  }
}

void MacQueueBackend::Enqueue(PacketPtr packet, StationId station) {
  // Refresh the rate-selection throughput estimate driving the CoDel
  // adaptation.
  adaptation_.UpdateExpectedThroughput(
      station, stations_->Get(station).rate.bps * kRateEfficiency);
  const Tid tid = packet->tid;
  queues_.Enqueue(std::move(packet), station, tid);
  MarkBacklogged(station, tid);
}

bool MacQueueBackend::HasData(StationId station, AccessCategory ac) const {
  for (Tid tid = 0; tid < kNumTids; ++tid) {
    if (AcForTid(tid) != ac) {
      continue;
    }
    if (queues_.TidBacklog(station, tid) > 0) {
      return true;
    }
    const std::deque<Mpdu>* retry = FindRetry(KeyOf(station, tid));
    if (retry != nullptr && !retry->empty()) {
      return true;
    }
  }
  return false;
}

Tid MacQueueBackend::FirstBackloggedTid(StationId station, AccessCategory ac) const {
  for (Tid tid = 0; tid < kNumTids; ++tid) {
    if (AcForTid(tid) != ac) {
      continue;
    }
    if (queues_.TidBacklog(station, tid) > 0) {
      return tid;
    }
    const std::deque<Mpdu>* retry = FindRetry(KeyOf(station, tid));
    if (retry != nullptr && !retry->empty()) {
      return tid;
    }
  }
  return kBestEffortTid;
}

bool MacQueueBackend::HasPending(AccessCategory ac) {
  if (config_.airtime_fairness) {
    return scheduler_.HasBacklogged(ac);
  }
  return !ring_[static_cast<size_t>(ac)].empty();
}

TxDescriptor MacQueueBackend::BuildFor(StationId station, Tid tid) {
  const StationInfo& info = stations_->Get(station);
  auto& retry = RetrySlot(KeyOf(station, tid));

  AggregationSource source;
  source.peek_bytes = [this, &retry, station, tid]() -> int {
    if (!retry.empty()) {
      return retry.front().packet->size_bytes;
    }
    return queues_.PeekBytes(station, tid);
  };
  source.pop = [this, &retry, station, tid]() -> Mpdu {
    if (!retry.empty()) {
      Mpdu m = std::move(retry.front());
      retry.pop_front();
      --retry_packets_;
      return m;
    }
    Mpdu m;
    m.packet = queues_.Dequeue(station, tid);
    return m;
  };

  // BuildAggregate skips null pops (CoDel can drop the remaining backlog
  // mid-build), so the descriptor only ever contains live packets.
  return BuildAggregate(ap_node_id_, info.node_id, station, tid, info.rate,
                        AggregationAllowed(AcForTid(tid), info.rate), source);
}

TxDescriptor MacQueueBackend::BuildNext(AccessCategory ac) {
  if (config_.airtime_fairness) {
    const StationId station = scheduler_.NextStation(
        ac, [this, ac](StationId s) { return HasData(s, ac); });
    if (station == kNoStation) {
      return TxDescriptor{};
    }
    return BuildFor(station, FirstBackloggedTid(station, ac));
  }

  auto& ring = ring_[static_cast<size_t>(ac)];
  while (!ring.empty()) {
    const int key = ring.front();
    ring.pop_front();
    const StationId station = key / kNumTids;
    const Tid tid = static_cast<Tid>(key % kNumTids);
    const std::deque<Mpdu>* retry = FindRetry(key);
    const bool has_retry = retry != nullptr && !retry->empty();
    if (queues_.TidBacklog(station, tid) == 0 && !has_retry) {
      SetInRing(key, false);
      continue;
    }
    TxDescriptor tx = BuildFor(station, tid);
    retry = FindRetry(key);  // BuildFor may have grown the retry table.
    const bool still_backlogged = queues_.TidBacklog(station, tid) > 0 ||
                                  (retry != nullptr && !retry->empty());
    if (still_backlogged) {
      ring.push_back(key);
    } else {
      SetInRing(key, false);
    }
    if (!tx.empty()) {
      return tx;
    }
  }
  return TxDescriptor{};
}

void MacQueueBackend::Requeue(StationId station, Tid tid, Mpdu mpdu) {
  RetrySlot(KeyOf(station, tid)).push_back(std::move(mpdu));
  ++retry_packets_;
  MarkBacklogged(station, tid);
}

void MacQueueBackend::AccountTxAirtime(StationId station, AccessCategory ac, TimeUs airtime) {
  if (config_.airtime_fairness && station >= 0) {
    scheduler_.ChargeAirtime(station, ac, airtime);
  }
}

void MacQueueBackend::AccountRxAirtime(StationId station, AccessCategory ac, TimeUs airtime) {
  if (config_.airtime_fairness && config_.rx_airtime_accounting && station >= 0) {
    scheduler_.ChargeAirtime(station, ac, airtime);
  }
}

int64_t MacQueueBackend::FlushStation(StationId station) {
  int64_t drained = queues_.FlushStation(station);
  for (Tid tid = 0; tid < kNumTids; ++tid) {
    const int key = KeyOf(station, tid);
    if (key < static_cast<int>(retry_.size()) && !retry_[static_cast<size_t>(key)].empty()) {
      drained += static_cast<int64_t>(retry_[static_cast<size_t>(key)].size());
      retry_packets_ -= static_cast<int>(retry_[static_cast<size_t>(key)].size());
      retry_[static_cast<size_t>(key)].clear();
    }
  }
  for (auto& ring : ring_) {
    for (auto it = ring.begin(); it != ring.end();) {
      if (*it / kNumTids == station) {
        SetInRing(*it, false);
        it = ring.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (config_.airtime_fairness) {
    scheduler_.RetireStation(station);
  }
  return drained;
}

void MacQueueBackend::RegisterAudits(Auditor* auditor) const {
  auditor->AddCheck("mac_queues",
                    [this](const Auditor::FailFn& fail) { queues_.CheckInvariants(fail); });
  if (config_.airtime_fairness) {
    auditor->AddCheck("airtime_scheduler", [this](const Auditor::FailFn& fail) {
      scheduler_.CheckInvariants(fail);
    });
  }
  if (config_.codel_adaptation) {
    auditor->AddCheck("codel_adaptation", [this](const Auditor::FailFn& fail) {
      adaptation_.CheckInvariants(fail);
    });
  }
  auditor->AddCheck("backend_retry", [this](const Auditor::FailFn& fail) {
    // Full recount from scratch: the running retry_packets_ counter that
    // packet_count() trusts is itself under audit here.
    int retries = 0;
    for (size_t key = 0; key < retry_.size(); ++key) {
      const std::deque<Mpdu>& queue = retry_[key];
      for (const Mpdu& mpdu : queue) {
        if (mpdu.packet == nullptr) {
          fail("backend: retry queue holds a null packet for key " + std::to_string(key));
        }
      }
      retries += static_cast<int>(queue.size());
    }
    if (retries != retry_packets_) {
      fail("backend: retry_packets counter disagrees with recount: counter=" +
           std::to_string(retry_packets_) + " recount=" + std::to_string(retries));
    }
    if (queues_.packet_count() + retries != packet_count()) {
      fail("backend: packet_count disagrees with queues + retry recount");
    }
  });
}

int MacQueueBackend::packet_count() const {
  return queues_.packet_count() + retry_packets_;
}

}  // namespace airfair
