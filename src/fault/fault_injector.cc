#include "src/fault/fault_injector.h"

#include <utility>

#include "src/util/check.h"

namespace airfair {

FaultInjector::FaultInjector(FaultInjectorContext context, const FaultPlan& plan)
    : ctx_(std::move(context)), plan_(plan) {
  AF_CHECK(ctx_.sim != nullptr && ctx_.stations != nullptr && ctx_.ap != nullptr)
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
  }

  EventLoop& loop = ctx_.sim->loop();
  for (const FaultEvent& e : plan_.events) {
    switch (e.kind) {
      case FaultKind::kLeave:
        loop.PostAt(e.at, [this, s = e.station] { ApplyLeave(s); });
        break;
      case FaultKind::kJoin:
        loop.PostAt(e.at, [this, s = e.station] { ApplyJoin(s); });
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
  Mark(FaultKind::kLeave);
}

void FaultInjector::ApplyJoin(int station) {
  const StationId id = static_cast<StationId>(station);
  ctx_.stations->SetActive(id, true);
  ctx_.wifi[static_cast<size_t>(station)]->Attach();
  ++joins_;
  Mark(FaultKind::kJoin);
}

void FaultInjector::Mark(FaultKind kind) {
  if (perturbation_series_ < 0) {
    return;
  }
  // Value = 1-based FaultKind code; the analysis only needs the instants,
  // the code makes the exported timeline self-describing.
  ctx_.timeseries->Record(perturbation_series_, ctx_.sim->now(),
                          static_cast<double>(static_cast<int>(kind) + 1));
}

}  // namespace airfair
