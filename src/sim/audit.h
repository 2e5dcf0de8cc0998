// Runtime invariant-audit subsystem.
//
// An Auditor is registered with the event loop and re-runs a set of named
// invariant checks on a fixed simulated-time cadence, so every refactor of
// the queueing structure (Algorithms 1-2), the airtime-DRR scheduler
// (Algorithm 3) or the CoDel machinery is continuously verified against the
// properties the paper's fairness results rest on:
//
//   event_loop        time monotonicity, binary-heap integrity
//   mac_queues        global packet conservation (enqueued == dequeued +
//                     dropped + resident, incl. the TID overflow queues),
//                     FQ-CoDel deficit bounds, per-flow CoDel validity,
//                     intrusive-list integrity
//   airtime_scheduler Algorithm 3 deficit bounds and sparse-station
//                     anti-gaming list state
//   codel_adaptation  50ms/300ms params only below the 12 Mbit/s threshold,
//                     2 s switch hysteresis
//   fq_codel          qdisc-baseline conservation and deficit bounds
//   reorder           block-ack window bound, held-count accounting, flush
//                     timer arming
//
// The checks themselves live next to the audited components as
// `CheckInvariants(fail)` methods; this file only provides the scheduling,
// recording and reporting machinery, so the sim layer stays below core/ and
// mac/ in the dependency order. MacQueueBackend::RegisterAudits and the
// Testbed constructor wire the component checks up.
//
// Enabling: builds configured with -DAIRFAIR_AUDIT=ON (the `audit` CMake
// preset) enable auditing by default, as does AIRFAIR_AUDIT=1 in the
// environment; AIRFAIR_AUDIT=0 in the environment force-disables it. The
// Auditor type itself is always compiled, so tests exercise it in any build.
//
// Sweeps follow the simulated clock only, so which sweeps run never depends
// on how fast the host is.
//
// Results are surfaced through util/stats counters:
//   audit.passes              completed audit sweeps
//   audit.checks              individual check executions
//   audit.violations          total violations found
//   audit.violations.<name>   violations per registered check

#ifndef AIRFAIR_SRC_SIM_AUDIT_H_
#define AIRFAIR_SRC_SIM_AUDIT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/event_loop.h"
#include "src/util/function_ref.h"
#include "src/util/inline_function.h"
#include "src/util/time.h"

namespace airfair {

// One recorded invariant violation.
struct AuditViolation {
  std::string check;    // Registered check name, e.g. "mac_queues".
  std::string message;  // Human-readable description from the component.
  TimeUs when;          // Simulated time of the audit sweep that caught it.
};

class Auditor {
 public:
  struct Config {
    // Simulated-time cadence of audit sweeps.
    TimeUs interval = TimeUs::FromMilliseconds(10);
    // When true, a sweep that finds violations fails an AF_CHECK (aborting
    // unless a check-failure handler is installed). Tests that deliberately
    // inject violations run with fatal = false and inspect the record.
    bool fatal = true;
    // Cap on retained AuditViolation records (counters keep exact totals).
    size_t max_recorded = 256;
  };

  // The auditor observes the loop; both must outlive it. Stops on
  // destruction.
  explicit Auditor(EventLoop* loop);
  Auditor(EventLoop* loop, const Config& config);
  ~Auditor();

  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  // A check receives a fail callback and calls it once per violation found.
  // FailFn is non-owning (util::FunctionRef): the auditor materialises the
  // recording lambda on its stack for each sweep, so checks must not retain
  // the reference past the call. Checks themselves are owned long-term, so
  // they use the inline-storage callable wrapper.
  using FailFn = AuditFailFn;
  using CheckFn = InlineFunction<void(const FailFn&)>;

  // Registers a named invariant check; it runs on every sweep. Names feed
  // the audit.violations.<name> counter, so keep them stable.
  void AddCheck(std::string name, CheckFn check);

  // Registers the event loop's own invariants (heap integrity, time
  // monotonicity) as the check named "event_loop".
  void WatchEventLoop();

  // Begins periodic sweeps on the event loop (idempotent). The first sweep
  // runs one interval from now.
  void Start();
  void Stop();

  // Runs every registered check immediately; returns violations found in
  // this sweep. Called internally on the cadence; tests call it directly.
  int RunChecksNow();

  int64_t passes() const { return passes_; }
  int64_t checks_run() const { return checks_run_; }
  int64_t violations() const { return violations_; }
  bool running() const { return timer_.pending(); }

  // Most recent violations, oldest first, capped at Config::max_recorded.
  const std::vector<AuditViolation>& recorded() const { return recorded_; }

 private:
  void Sweep();

  EventLoop* loop_;
  Config config_;
  std::vector<std::pair<std::string, CheckFn>> checks_;
  std::vector<AuditViolation> recorded_;
  EventHandle timer_;
  int64_t passes_ = 0;
  int64_t checks_run_ = 0;
  int64_t violations_ = 0;
};

// True when invariant auditing should be on by default: the build defined
// AIRFAIR_AUDIT, or the environment sets AIRFAIR_AUDIT=1. AIRFAIR_AUDIT=0 in
// the environment overrides the compile-time default, so audit binaries can
// run un-audited benchmarks; any other value exits 2 (src/util/env.h).
bool AuditEnabledByDefault();

}  // namespace airfair

#endif  // AIRFAIR_SRC_SIM_AUDIT_H_
