// Deterministic fault injector: replays a FaultPlan against a live testbed.
//
// The injector is the one component allowed to mutate station lifecycle
// state mid-run. It schedules every perturbation as a plain event on the
// simulation's loop (Simulation::loop()), so a faulted run is a pure
// function of (config, plan): it repeats byte-for-byte
// (tests/fault_injection_test.cc).
//
// What each perturbation does:
//  * leave  — StationTable::SetActive(false), WifiStation::Detach (uplink
//             FIFOs/retries drained, uplink sequencer reset),
//             AccessPoint::DetachStation (hw-queue purge, backend
//             FlushStation, downlink sequencer reset), and both reorder
//             buffers flushed (block-ack session close on each side). Every
//             destroyed packet lands in a churn_drained counter, so the
//             conservation ledger keeps balancing mid-churn:
//             injected == delivered + dropped + drained + in_flight.
//  * join   — SetActive(true) + WifiStation::Attach. Sequence spaces and
//             deficits start fresh (the teardown reset them), so a rejoin
//             is indistinguishable from a first join.
//
// Each perturbation records a mark in the "perturbation" timeseries (value
// = 1-based FaultKind code). trace_stats --perturbations computes the
// per-mark reconvergence time of the windowed Jain index from these marks.

#ifndef AIRFAIR_SRC_FAULT_FAULT_INJECTOR_H_
#define AIRFAIR_SRC_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "src/fault/fault_schedule.h"
#include "src/mac/access_point.h"
#include "src/mac/reorder.h"
#include "src/mac/station.h"
#include "src/mac/station_table.h"
#include "src/obs/timeseries.h"
#include "src/sim/simulation.h"

namespace airfair {

// Non-owning view over the testbed components the injector manipulates.
// All pointers must outlive the injector; the Testbed owns both.
struct FaultInjectorContext {
  Simulation* sim = nullptr;
  StationTable* stations = nullptr;
  AccessPoint* ap = nullptr;
  std::vector<WifiStation*> wifi;            // Index = StationId.
  std::vector<ReorderBuffer*> reorder;       // Index = StationId; back() = AP side.
  Timeseries* timeseries = nullptr;          // Optional (tracing off: null).
  uint32_t ap_node = 1;
};

class FaultInjector {
 public:
  // Churn instants come verbatim from the plan; the injector draws nothing
  // from the simulation's RNG.
  FaultInjector(FaultInjectorContext context, const FaultPlan& plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Schedules the whole plan on the simulation's loop. Call once, before
  // the run starts.
  void Arm();

  // Perturbations applied so far (tests and post-run reporting).
  int64_t leaves_applied() const { return leaves_; }
  int64_t joins_applied() const { return joins_; }

 private:
  void ApplyLeave(int station);
  void ApplyJoin(int station);
  void Mark(FaultKind kind);

  FaultInjectorContext ctx_;
  FaultPlan plan_;
  int perturbation_series_ = -1;
  int64_t leaves_ = 0;
  int64_t joins_ = 0;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_FAULT_FAULT_INJECTOR_H_
