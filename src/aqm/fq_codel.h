// FQ-CoDel qdisc (RFC 8290), the paper's second baseline configuration.
//
// Flow queueing with a deficit round-robin scheduler, per-flow CoDel, the
// sparse-flow optimisation (new-flow list gets priority for one round), and
// drop-from-fattest-queue on overflow. Matches the Linux fq_codel defaults:
// 1024 flow queues, 10240-packet limit, quantum = one MTU.
//
// The machinery is src/aqm/flow_queues.h with a single tin over the whole
// pool. The paper's contribution in src/core runs the same machinery with a
// tin per TID so aggregation stays possible — see src/core/mac_queues.h.

#ifndef AIRFAIR_SRC_AQM_FQ_CODEL_H_
#define AIRFAIR_SRC_AQM_FQ_CODEL_H_

#include <cstdint>

#include "src/aqm/flow_queues.h"
#include "src/aqm/queue_discipline.h"
#include "src/util/function_ref.h"
#include "src/util/inline_function.h"
#include "src/util/time.h"

namespace airfair {

// The constructor checks flows > 0, limit_packets >= 0 and quantum_bytes > 0.
struct FqCodelConfig {
  int flows = 1024;
  int limit_packets = 10240;
  int quantum_bytes = 1514;
};

class FqCodelQdisc : public Qdisc {
 public:
  FqCodelQdisc(InlineFunction<TimeUs()> clock, const FqCodelConfig& config);

  void Enqueue(PacketPtr packet) override;
  PacketPtr Dequeue() override;
  int packet_count() const override { return flows_.packet_count(); }

  // Number of distinct flow queues currently backlogged.
  int active_flows() const { return flows_.active_queues(); }
  int64_t codel_drops() const { return flows_.codel_drops(); }
  int64_t overflow_drops() const { return flows_.overflow_drops(); }

  // Invariant audit (see src/sim/audit.h): the flow-queue pool and its one
  // tin (FlowQueues::CheckInvariants and CheckTin). Calls `fail` once per
  // violation and returns the number of calls.
  int CheckInvariants(AuditFailFn fail) const;

  // Test-only corruption hooks for tests/sim_audit_test.cc.
  void CorruptConservationForTesting() { flows_.CorruptConservationForTesting(); }
  void CorruptBacklogHeapForTesting() { flows_.CorruptBacklogHeapForTesting(); }

 private:
  FqCodelConfig config_;
  FlowQueues flows_;
  FlowTin tin_;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_AQM_FQ_CODEL_H_
