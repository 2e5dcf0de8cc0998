#include "src/core/airtime_scheduler.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "src/obs/trace.h"
#include "src/util/check.h"

namespace airfair {

AirtimeScheduler::AirtimeScheduler(const Config& config) : config_(config) {}

AirtimeScheduler::AirtimeScheduler() : AirtimeScheduler(Config()) {}

AirtimeScheduler::StationState& AirtimeScheduler::StateOf(StationId station,
                                                          AccessCategory ac) {
  AF_CHECK_GE(station, 0) << " scheduler state requested for an invalid station";
  while (station >= static_cast<StationId>(stations_.size())) {
    auto entry = std::make_unique<std::array<StationState, kNumAccessCategories>>();
    for (auto& state : *entry) {
      state.station = static_cast<StationId>(stations_.size());
    }
    stations_.push_back(std::move(entry));
  }
  return (*stations_[static_cast<size_t>(station)])[static_cast<size_t>(ac)];
}

void AirtimeScheduler::MarkBacklogged(StationId station, AccessCategory ac) {
  StationState& state = StateOf(station, ac);
  if (state.node.linked()) {
    return;  // Already scheduled.
  }
  // A newly scheduled station starts with a fresh quantum, mirroring
  // FQ-CoDel's handling of newly active queues (without this the sparse
  // priority round could be consumed by a leftover deficit).
  state.deficit_us = config_.quantum_us;
  AcState& lists = acs_[static_cast<size_t>(ac)];
  if (config_.sparse_station_optimization) {
    // A newly backlogged station gets one priority round ("temporary
    // priority for one round of scheduling (but not more)").
    lists.new_stations.PushBack(&state);
    AF_TRACE_SCHED_MOVE(station, kTraceListNone, kTraceListNew);
  } else {
    lists.old_stations.PushBack(&state);
    AF_TRACE_SCHED_MOVE(station, kTraceListNone, kTraceListOld);
  }
}

StationId AirtimeScheduler::NextStation(AccessCategory ac,
                                        FunctionRef<bool(StationId)> has_data) {
  AcState& lists = acs_[static_cast<size_t>(ac)];
  // Algorithm 3, lines 2-18 (the caller implements the hardware-queue loop
  // and build_aggregate).
  for (;;) {
    StationState* state = nullptr;
    bool from_new = false;
    if (!lists.new_stations.empty()) {
      state = lists.new_stations.Front();
      from_new = true;
    } else if (!lists.old_stations.empty()) {
      state = lists.old_stations.Front();
    } else {
      return kNoStation;
    }
    if (state->deficit_us <= 0) {
      state->deficit_us += config_.quantum_us;
      // Replenishment of a non-positive deficit lands in (-inf, quantum]:
      // the post-replenish value can never exceed one quantum (Algorithm 3
      // line 7 analogue of FQ-CoDel's deficit bound).
      AF_DCHECK_LE(state->deficit_us, config_.quantum_us);
      lists.old_stations.MoveToBack(state);
      AF_TRACE_SCHED_MOVE(state->station,
                          from_new ? kTraceListNew : kTraceListOld, kTraceListOld);
      continue;  // restart
    }
    if (!has_data(state->station)) {
      // Lines 13-18: anti-gaming — emptied new-list stations are demoted to
      // the old list; emptied old-list stations are removed.
      if (from_new) {
        lists.old_stations.MoveToBack(state);
        AF_TRACE_SCHED_MOVE(state->station, kTraceListNew, kTraceListOld);
      } else {
        state->node.Unlink();
        AF_TRACE_SCHED_MOVE(state->station, kTraceListOld, kTraceListNone);
      }
      continue;  // restart
    }
    // A station is only ever selected while its deficit is in (0, quantum].
    AF_DCHECK_GT(state->deficit_us, 0);
    AF_DCHECK_LE(state->deficit_us, config_.quantum_us);
    AF_TRACE_SCHED_PICK(state->station, state->deficit_us, from_new ? 1 : 0);
    return state->station;
  }
}

void AirtimeScheduler::ChargeAirtime(StationId station, AccessCategory ac, TimeUs airtime) {
  AF_DCHECK_GE(airtime.us(), 0) << " negative airtime charge";
  StationState& state = StateOf(station, ac);
  // Guard against wraparound in the deficit accumulator (a runaway charge
  // loop would otherwise flip the deficit positive again).
  AF_DCHECK_GT(state.deficit_us, std::numeric_limits<int64_t>::min() / 2);
  max_single_charge_us_ = std::max(max_single_charge_us_, airtime.us());
  state.deficit_us -= airtime.us();
  min_deficit_seen_us_ = std::min(min_deficit_seen_us_, state.deficit_us);
  AF_TRACE_SCHED_CHARGE(station, airtime.us(), state.deficit_us);
}

void AirtimeScheduler::RetireStation(StationId station) {
  if (station < 0 || station >= static_cast<StationId>(stations_.size())) {
    return;  // Never scheduled: nothing to settle.
  }
  for (size_t ac = 0; ac < static_cast<size_t>(kNumAccessCategories); ++ac) {
    StationState& state = (*stations_[static_cast<size_t>(station)])[ac];
    if (state.node.linked()) {
      state.node.Unlink();
      AF_TRACE_SCHED_MOVE(station, kTraceListOld, kTraceListNone);
    }
    // Settle the deficit: zero is the value an untouched station carries, so
    // a rejoin goes through MarkBacklogged's fresh-quantum path exactly like
    // a first join. Zero also sits inside [min_deficit_seen, quantum], so
    // the audit bounds hold unconditionally.
    state.deficit_us = 0;
  }
}

int64_t AirtimeScheduler::DeficitUs(StationId station, AccessCategory ac) const {
  if (station < 0 || station >= static_cast<StationId>(stations_.size())) {
    return 0;
  }
  return (*stations_[static_cast<size_t>(station)])[static_cast<size_t>(ac)].deficit_us;
}

bool AirtimeScheduler::HasBacklogged(AccessCategory ac) const {
  const AcState& lists = acs_[static_cast<size_t>(ac)];
  return !lists.new_stations.empty() || !lists.old_stations.empty();
}

int AirtimeScheduler::CheckInvariants(AuditFailFn fail) const {
  int violations = 0;
  auto prefixed = [&](const std::string& message) { fail("airtime_scheduler: " + message); };
  auto report = [&](const std::string& message) {
    ++violations;
    prefixed(message);
  };

  // Upper bound holds for *every* station state, listed or not: deficits
  // start at 0, MarkBacklogged resets to exactly one quantum, replenishment
  // caps at one quantum, and charges only subtract.
  for (size_t sid = 0; sid < stations_.size(); ++sid) {
    for (size_t ac = 0; ac < static_cast<size_t>(kNumAccessCategories); ++ac) {
      const StationState& state = (*stations_[sid])[ac];
      if (state.deficit_us > config_.quantum_us) {
        std::ostringstream os;
        os << "deficit above quantum for station " << sid << " ac " << ac << ": deficit="
           << state.deficit_us << "us quantum=" << config_.quantum_us << "us";
        report(os.str());
      }
      if (state.station != static_cast<StationId>(sid)) {
        std::ostringstream os;
        os << "station state at index " << sid << " carries id " << state.station;
        report(os.str());
      }
    }
  }

  // Sound floor: every legitimate negative deficit was produced by a charge,
  // and ChargeAirtime records its low-watermark. Anything lower was written
  // by something other than the scheduler.
  const int64_t floor_us = min_deficit_seen_us_;
  for (size_t ac = 0; ac < acs_.size(); ++ac) {
    const AcState& lists = acs_[ac];
    violations += lists.new_stations.CheckIntegrity(prefixed);
    violations += lists.old_stations.CheckIntegrity(prefixed);
    for (const auto* list : {&lists.new_stations, &lists.old_stations}) {
      for (const StationState* state : *list) {
        if (state->station < 0 || state->station >= static_cast<StationId>(stations_.size())) {
          std::ostringstream os;
          os << "listed station id " << state->station << " out of range for ac " << ac;
          report(os.str());
          continue;
        }
        // Anti-gaming consistency: the listed entry must be the canonical
        // state object for (station, ac) — a stale or cloned entry would let
        // a station hold sparse priority it no longer owns.
        const StationState& canonical =
            (*stations_[static_cast<size_t>(state->station)])[ac];
        if (state != &canonical) {
          std::ostringstream os;
          os << "listed entry for station " << state->station << " ac " << ac
             << " is not the canonical state object";
          report(os.str());
        }
        if (state->deficit_us < floor_us) {
          std::ostringstream os;
          os << "deficit below audited floor for station " << state->station << " ac " << ac
             << ": deficit=" << state->deficit_us << "us floor=" << floor_us << "us";
          report(os.str());
        }
      }
    }
  }
  return violations;
}

void AirtimeScheduler::CorruptDeficitForTesting(AccessCategory ac) {
  AcState& lists = acs_[static_cast<size_t>(ac)];
  StationState* state = lists.new_stations.Front();
  if (state == nullptr) {
    state = lists.old_stations.Front();
  }
  if (state != nullptr) {
    state->deficit_us = config_.quantum_us * 16;
  }
}

void AirtimeScheduler::CorruptDeficitBelowFloorForTesting(AccessCategory ac) {
  AcState& lists = acs_[static_cast<size_t>(ac)];
  StationState* state = lists.new_stations.Front();
  if (state == nullptr) {
    state = lists.old_stations.Front();
  }
  if (state != nullptr) {
    state->deficit_us = min_deficit_seen_us_ - 1000;
  }
}

}  // namespace airfair
