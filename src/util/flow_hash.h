// Flow identification and hashing.
//
// FQ-CoDel (both the stock qdisc and the paper's per-TID variant) hashes the
// transport 5-tuple of each packet into a fixed set of queues. We use a
// 64-bit mix of the tuple fields; the queue index is the hash modulo the
// queue count, matching the kernel's reciprocal-scale behaviour closely
// enough for simulation purposes.

#ifndef AIRFAIR_SRC_UTIL_FLOW_HASH_H_
#define AIRFAIR_SRC_UTIL_FLOW_HASH_H_

#include <cstdint>

namespace airfair {

// Transport-level flow identity. Node ids stand in for IP addresses.
struct FlowKey {
  uint32_t src_node = 0;
  uint32_t dst_node = 0;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint8_t protocol = 0;  // Kernel-style: 6 = TCP, 17 = UDP, 1 = ICMP.

  bool operator==(const FlowKey&) const = default;
};

// 64-bit mix (xxhash-style avalanche over the packed tuple).
uint64_t HashFlow(const FlowKey& key);

}  // namespace airfair

#endif  // AIRFAIR_SRC_UTIL_FLOW_HASH_H_
