// CoDel AQM (Nichols & Jacobson, RFC 8289).
//
// CoDelState holds the per-queue controller state and runs the control law
// against any backing queue, supplied as a pull callback. This is the shape
// the algorithm takes inside FQ-CoDel and inside the paper's per-TID MAC
// queues: one CoDelState per flow queue, applied at dequeue time. There is
// no standalone CoDel qdisc; no scheme of the evaluation runs one.
//
// The parameters are a separate struct because the paper's Section 3.1.1
// adapts them *per station*: target 50 ms / interval 300 ms when the
// station's expected throughput drops below 12 Mbit/s.

#ifndef AIRFAIR_SRC_AQM_CODEL_H_
#define AIRFAIR_SRC_AQM_CODEL_H_

#include <cstdint>

#include "src/net/packet.h"
#include "src/util/function_ref.h"
#include "src/util/time.h"

namespace airfair {

struct CoDelParams {
  TimeUs target = TimeUs::FromMilliseconds(5);
  TimeUs interval = TimeUs::FromMilliseconds(100);

  static CoDelParams Default() { return CoDelParams{}; }
  // The paper's low-rate setting for stations below 12 Mbit/s.
  static CoDelParams LowRate() {
    return CoDelParams{TimeUs::FromMilliseconds(50), TimeUs::FromMilliseconds(300)};
  }
};

class CoDelState {
 public:
  // Non-owning (util::FunctionRef): both hooks are materialised by the
  // caller for the duration of one Dequeue call — the classic function_ref
  // shape — so the per-dequeue hot path pays two words, no allocation.
  using PullFn = FunctionRef<PacketPtr()>;
  using DropFn = FunctionRef<void(PacketPtr)>;

  // Runs the CoDel control law: pulls packets via `pull`, dropping those the
  // law selects (handing them to `drop`), and returns the first survivor (or
  // nullptr if the backing queue drained). `now` is the dequeue time; sojourn
  // time is measured against Packet::enqueued.
  PacketPtr Dequeue(TimeUs now, const CoDelParams& params, const PullFn& pull,
                    const DropFn& drop);

  int64_t drop_count() const { return drop_count_; }
  bool dropping() const { return dropping_; }

  // State-machine validity audit (see src/sim/audit.h). Verifies the
  // invariants the control law maintains:
  //  * dropping implies the next-drop clock is armed and count >= 1;
  //  * the RFC 8289 count hysteresis keeps count >= lastcount while in the
  //    dropping state;
  //  * the cumulative drop counter never runs behind the in-state count.
  // Calls `fail` once per violation; returns the number found.
  int CheckValid(AuditFailFn fail) const;

  // Test-only: forces raw controller state so the auditor's detection of an
  // invalid state machine can itself be tested.
  void ForceStateForTesting(bool dropping, TimeUs drop_next, uint32_t count,
                            uint32_t lastcount) {
    dropping_ = dropping;
    drop_next_ = drop_next;
    count_ = count;
    lastcount_ = lastcount;
  }

 private:
  struct DodequeueResult {
    PacketPtr packet;
    bool ok_to_drop = false;
  };

  DodequeueResult Dodequeue(TimeUs now, const CoDelParams& params, const PullFn& pull);
  static TimeUs ControlLaw(TimeUs t, TimeUs interval, uint32_t count);

  TimeUs first_above_time_ = TimeUs::Zero();
  TimeUs drop_next_ = TimeUs::Zero();
  uint32_t count_ = 0;
  uint32_t lastcount_ = 0;
  bool dropping_ = false;
  int64_t drop_count_ = 0;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_AQM_CODEL_H_
