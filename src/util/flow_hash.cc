#include "src/util/flow_hash.h"

namespace airfair {

namespace {

uint64_t Avalanche(uint64_t h) {
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ull;
  h ^= h >> 33;
  return h;
}

}  // namespace

uint64_t HashFlow(const FlowKey& key) {
  uint64_t a = (static_cast<uint64_t>(key.src_node) << 32) | key.dst_node;
  uint64_t b = (static_cast<uint64_t>(key.src_port) << 24) |
               (static_cast<uint64_t>(key.dst_port) << 8) | key.protocol;
  uint64_t h = Avalanche(a ^ 0x9E3779B97F4A7C15ull);
  return Avalanche(h ^ b);
}

}  // namespace airfair
