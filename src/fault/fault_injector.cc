#include "src/fault/fault_injector.h"

#include <algorithm>
#include <utility>

#include "src/mac/phy_rate.h"
#include "src/util/check.h"

namespace airfair {

FaultInjector::FaultInjector(FaultInjectorContext context, const FaultPlan& plan,
                             uint64_t seed)
    : ctx_(std::move(context)), plan_(plan), seed_(seed) {
  AF_CHECK(ctx_.sim != nullptr && ctx_.stations != nullptr && ctx_.medium != nullptr &&
           ctx_.ap != nullptr)
      << " fault injector wired without its testbed components";
  AF_CHECK_EQ(ctx_.reorder.size(), ctx_.wifi.size() + 1)
      << " fault injector expects one reorder buffer per station plus the AP's";
}

void FaultInjector::Arm() {
  if (plan_.empty()) {
    return;
  }
  const int n = static_cast<int>(ctx_.wifi.size());
  for (const FaultEvent& e : plan_.events) {
    AF_CHECK(e.station >= 0 && e.station < n)
        << " fault event '" << FaultKindName(e.kind) << "' targets unknown station "
        << e.station << " (testbed has " << n << ")";
  }
  if (ctx_.timeseries != nullptr) {
    perturbation_series_ = ctx_.timeseries->Series("perturbation");
    onset_series_ = ctx_.timeseries->Series("perturbation_onset");
  }
  fade_saved_rate_.assign(plan_.events.size(), PhyRate{});

  // Burst chains are seeded in plan order from the dedicated churn RNG, so
  // the trajectories are a pure function of (plan, seed) — independent of
  // query pattern and every other run-time degree of freedom.
  bursts_by_station_.resize(static_cast<size_t>(n));
  Rng chain_seeds(seed_);
  for (const FaultEvent& e : plan_.events) {
    if (e.kind != FaultKind::kBurstLoss) {
      continue;
    }
    GilbertElliottChain::Config chain;
    chain.mean_good = e.mean_good;
    chain.mean_bad = e.mean_bad;
    chain.p_bad = e.p_bad;
    bursts_by_station_[static_cast<size_t>(e.station)].push_back(
        BurstWindow{e.at, e.at + e.duration, GilbertElliottChain(chain_seeds.Next(), chain)});
  }
  for (size_t i = 0; i < bursts_by_station_.size(); ++i) {
    if (bursts_by_station_[i].empty()) {
      continue;
    }
    // Replace the testbed's error model with the layering wrapper; the base
    // model stays reachable through ctx_.base_error inside ErrorFor.
    const int station = static_cast<int>(i);
    ctx_.medium->SetErrorModel(
        static_cast<StationId>(station),
        [this, station](const PhyRate& rate) { return ErrorFor(station, rate); });
  }

  EventLoop& loop = ctx_.sim->loop();
  for (size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& e = plan_.events[i];
    switch (e.kind) {
      case FaultKind::kLeave:
        loop.PostAt(e.at, [this, s = e.station] { ApplyLeave(s); });
        break;
      case FaultKind::kJoin:
        loop.PostAt(e.at, [this, s = e.station] { ApplyJoin(s); });
        break;
      case FaultKind::kBurstLoss:
        // The chain itself needs no events — the error-model wrapper reads
        // it by time. The posts mark the window's edges. Recovery is only
        // expected once the burst ends, so the end mark is the gated one.
        loop.PostAt(e.at, [this, s = e.station] {
          ++bursts_;
          Mark(onset_series_, FaultKind::kBurstLoss, s);
        });
        loop.PostAt(e.at + e.duration, [this, s = e.station] {
          Mark(perturbation_series_, FaultKind::kBurstLoss, s);
        });
        break;
      case FaultKind::kRateFade:
        loop.PostAt(e.at, [this, i] { ApplyFade(i); });
        if (e.restore_after.us() > 0) {
          loop.PostAt(e.at + e.restore_after, [this, i] { RestoreFade(i); });
        }
        break;
    }
  }
}

void FaultInjector::ApplyLeave(int station) {
  const StationId id = static_cast<StationId>(station);
  ctx_.stations->SetActive(id, false);
  // Teardown order: silence the station's own uplink first, then the AP's
  // downlink machinery, then both halves of the block-ack state. Each step
  // accounts what it destroys in its own churn_drained counter.
  ctx_.wifi[static_cast<size_t>(station)]->Detach();
  ctx_.ap->DetachStation(id);
  const uint32_t node = ctx_.stations->Get(id).node_id;
  ctx_.reorder.back()->FlushStation(node);  // AP side: uplink streams from the station.
  ctx_.reorder[static_cast<size_t>(station)]->FlushStation(ctx_.ap_node);  // Downlink streams.
  ++leaves_;
  Mark(perturbation_series_, FaultKind::kLeave, station);
}

void FaultInjector::ApplyJoin(int station) {
  const StationId id = static_cast<StationId>(station);
  ctx_.stations->SetActive(id, true);
  ctx_.wifi[static_cast<size_t>(station)]->Attach();
  ++joins_;
  Mark(perturbation_series_, FaultKind::kJoin, station);
}

void FaultInjector::ApplyFade(size_t event_index) {
  const FaultEvent& e = plan_.events[event_index];
  const StationId id = static_cast<StationId>(e.station);
  fade_saved_rate_[event_index] = ctx_.stations->Get(id).rate;
  // Reaches the CoDel adaptation through the backend's normal rate-estimate
  // path at the next enqueue (its 2 s hysteresis is what a fade exercises).
  // Note: an auto-rate station's Minstrel controller rewrites this on its
  // next transmission report, so fades are meaningful for fixed-rate
  // stations.
  ctx_.stations->GetMutable(id).rate = McsRate(e.mcs);
  ++fades_;
  Mark(perturbation_series_, FaultKind::kRateFade, e.station);
}

void FaultInjector::RestoreFade(size_t event_index) {
  const FaultEvent& e = plan_.events[event_index];
  ctx_.stations->GetMutable(static_cast<StationId>(e.station)).rate =
      fade_saved_rate_[event_index];
  Mark(perturbation_series_, FaultKind::kRateFade, e.station);
}

double FaultInjector::ErrorFor(int station, const PhyRate& rate) {
  auto& base = ctx_.base_error[static_cast<size_t>(station)];
  double p = base ? base(rate) : 0.0;
  const TimeUs now = ctx_.sim->now();
  for (BurstWindow& w : bursts_by_station_[static_cast<size_t>(station)]) {
    if (now >= w.start && now < w.end) {
      p = std::max(p, w.chain.LossAt(now - w.start));
    }
  }
  return p;
}

void FaultInjector::Mark(int series, FaultKind kind, int station) {
  (void)station;
  if (ctx_.timeseries == nullptr || series < 0) {
    return;
  }
  // Value = 1-based FaultKind code; the analysis only needs the instants,
  // the code makes the exported timeline self-describing.
  ctx_.timeseries->Record(series, ctx_.sim->now(),
                          static_cast<double>(static_cast<int>(kind) + 1));
}

}  // namespace airfair
