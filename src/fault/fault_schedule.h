// Perturbation schedules for the fault-injection subsystem.
//
// A FaultPlan is a list of timed station-churn events the FaultInjector
// replays against a running testbed. Plans are built programmatically
// (benches, tests) or parsed from the AIRFAIR_FAULT_SCHEDULE environment
// variable, whose grammar is semicolon-separated events:
//
//   leave:<sta>:<t_ms>
//   join:<sta>:<t_ms>
//
// where <sta> is a station index and <t_ms> is simulated milliseconds from
// the start of the run.
//
// Everything here is plain data: a schedule carries no randomness, so a
// faulted run is reproducible from (config, plan) alone.

#ifndef AIRFAIR_SRC_FAULT_FAULT_SCHEDULE_H_
#define AIRFAIR_SRC_FAULT_FAULT_SCHEDULE_H_

#include <string>
#include <vector>

#include "src/util/time.h"

namespace airfair {

enum class FaultKind {
  kLeave,  // Station departs: full MAC-state teardown, traffic drained.
  kJoin,   // Station (re)joins: fresh block-ack sessions, fresh deficits.
};

const char* FaultKindName(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kLeave;
  int station = 0;
  TimeUs at = TimeUs::Zero();
};

struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }

  // Convenience builders (used by the benches and tests; times are absolute
  // simulated time).
  FaultPlan& Leave(int station, TimeUs at);
  FaultPlan& Join(int station, TimeUs at);
};

// Parses the AIRFAIR_FAULT_SCHEDULE grammar above. Returns false (and sets
// `error`, if non-null) on a malformed schedule; `plan` then holds every
// event parsed before the failure.
bool ParseFaultSchedule(const std::string& text, FaultPlan* plan, std::string* error);

// Plan from the AIRFAIR_FAULT_SCHEDULE environment variable (empty plan if
// unset). A malformed schedule is a hard failure: a silently ignored fault
// schedule would invalidate whatever experiment asked for it.
FaultPlan FaultPlanFromEnv();

}  // namespace airfair

#endif  // AIRFAIR_SRC_FAULT_FAULT_SCHEDULE_H_
