#include "src/aqm/fq_codel.h"

#include <string>
#include <utility>

#include "src/util/check.h"

namespace airfair {
namespace {

// Each bad value would hang or fault on the packet path instead: no flow
// queue to hash into, an Enqueue that drops from an empty qdisc forever, or a
// DRR deficit that never turns positive.
const FqCodelConfig& Validated(const FqCodelConfig& config) {
  AF_CHECK_GT(config.flows, 0);
  AF_CHECK_GE(config.limit_packets, 0);
  AF_CHECK_GT(config.quantum_bytes, 0);
  return config;
}

}  // namespace

FqCodelQdisc::FqCodelQdisc(InlineFunction<TimeUs()> clock, const FqCodelConfig& config)
    : config_(Validated(config)), flows_(std::move(clock), config.flows, config.quantum_bytes) {}

void FqCodelQdisc::Enqueue(PacketPtr packet) {
  // The tie is the pool index, so among equal backlogs the lowest index is
  // the overflow victim.
  const uint64_t index = flows_.Index(*packet);
  flows_.Push(flows_.queue(index), tin_, std::move(packet), index);
  while (flows_.packet_count() > config_.limit_packets) {
    flows_.DropFattest();
  }
  drops_ = flows_.drops();
}

PacketPtr FqCodelQdisc::Dequeue() {
  // Every flow queue runs CoDel's RFC 8289 defaults (5 ms / 100 ms).
  PacketPtr packet = flows_.Dequeue(tin_, CoDelParams::Default());
  drops_ = flows_.drops();
  return packet;
}

int FqCodelQdisc::CheckInvariants(AuditFailFn fail) const {
  auto prefixed = [&](const std::string& message) { fail("fq_codel: " + message); };
  return flows_.CheckInvariants(prefixed) + flows_.CheckTin(tin_, prefixed);
}

}  // namespace airfair
