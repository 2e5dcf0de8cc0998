// Deterministic fault injector: replays a FaultPlan against a live testbed.
//
// The injector is the one component allowed to mutate station lifecycle
// state mid-run. It schedules every perturbation as a plain event on the
// simulation's loop (Simulation::loop()), so a faulted run is a pure
// function of (config, plan, seed): it repeats byte-for-byte and is
// identical with the packet pool on or off (tests/fault_injection_test.cc).
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
//  * burst  — a seeded Gilbert-Elliott chain layered over the station's
//             base error model for the window's duration.
//  * fade   — the station's PHY rate is rewritten in the StationTable
//             (down-shift at the fade instant, optional restore later),
//             which reaches the per-station CoDel adaptation through its
//             normal rate-estimate path.
//
// Each perturbation records a mark in the "perturbation" timeseries (value
// = FaultKind code); burst onsets go to "perturbation_onset" since recovery
// is only expected after the burst *ends*. trace_stats --perturbations
// computes the per-mark reconvergence time of the windowed Jain index from
// these marks.

#ifndef AIRFAIR_SRC_FAULT_FAULT_INJECTOR_H_
#define AIRFAIR_SRC_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "src/fault/fault_schedule.h"
#include "src/fault/gilbert_elliott.h"
#include "src/mac/access_point.h"
#include "src/mac/medium.h"
#include "src/mac/reorder.h"
#include "src/mac/station.h"
#include "src/mac/station_table.h"
#include "src/obs/timeseries.h"
#include "src/sim/simulation.h"
#include "src/util/inline_function.h"

namespace airfair {

// Non-owning view over the testbed components the injector manipulates.
// All pointers must outlive the injector; the Testbed owns both.
struct FaultInjectorContext {
  Simulation* sim = nullptr;
  StationTable* stations = nullptr;
  WifiMedium* medium = nullptr;
  AccessPoint* ap = nullptr;
  std::vector<WifiStation*> wifi;            // Index = StationId.
  std::vector<ReorderBuffer*> reorder;       // Index = StationId; back() = AP side.
  // Per-station base error model (the channel the testbed configured);
  // bursts are layered on top of this. One entry per station, all callable.
  std::vector<InlineFunction<double(const PhyRate&)>> base_error;
  Timeseries* timeseries = nullptr;          // Optional (tracing off: null).
  uint32_t ap_node = 1;
};

class FaultInjector {
 public:
  // `seed` drives the burst-loss chains only (see ChurnSeedFromEnv); churn
  // and fade instants come verbatim from the plan.
  FaultInjector(FaultInjectorContext context, const FaultPlan& plan, uint64_t seed);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Schedules the whole plan on the simulation's loop and installs the burst
  // error-model wrappers. Call once, before the run starts.
  void Arm();

  // Perturbations applied so far (tests and post-run reporting).
  int64_t leaves_applied() const { return leaves_; }
  int64_t joins_applied() const { return joins_; }
  int64_t bursts_started() const { return bursts_; }
  int64_t fades_applied() const { return fades_; }

 private:
  void ApplyLeave(int station);
  void ApplyJoin(int station);
  void ApplyFade(size_t event_index);
  void RestoreFade(size_t event_index);
  // Loss probability for `station` at the current simulated time: the base
  // channel model, overridden by any burst window covering this instant.
  double ErrorFor(int station, const PhyRate& rate);
  void Mark(int series, FaultKind kind, int station);

  struct BurstWindow {
    TimeUs start;
    TimeUs end;
    GilbertElliottChain chain;
  };

  FaultInjectorContext ctx_;
  FaultPlan plan_;
  uint64_t seed_;
  std::vector<std::vector<BurstWindow>> bursts_by_station_;
  // Pre-fade rate per plan event index (only kRateFade entries are used).
  std::vector<PhyRate> fade_saved_rate_;
  int perturbation_series_ = -1;
  int onset_series_ = -1;
  int64_t leaves_ = 0;
  int64_t joins_ = 0;
  int64_t bursts_ = 0;
  int64_t fades_ = 0;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_FAULT_FAULT_INJECTOR_H_
