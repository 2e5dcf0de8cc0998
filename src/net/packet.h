// Packet representation shared by every layer of the simulator.
//
// One packet models one IP datagram. WiFi-specific framing (MPDU headers,
// delimiters, padding) is added by the MAC's airtime calculator, not stored
// here. Packets are owned by unique_ptr and move through queues; timestamps
// are stamped along the way (creation for end-to-end latency, enqueue for
// CoDel's sojourn time).

#ifndef AIRFAIR_SRC_NET_PACKET_H_
#define AIRFAIR_SRC_NET_PACKET_H_

#include <cstdint>
#include <memory>

#include "src/util/flow_hash.h"
#include "src/util/time.h"

namespace airfair {

// 802.11e access categories, in the order used by the paper ("VO, VI, BE and
// BK 802.11 precedence levels"). Lower enum value = higher precedence.
enum class AccessCategory : uint8_t {
  kVoice = 0,       // VO: queueing priority + short contention window, no aggregation
  kVideo = 1,       // VI
  kBestEffort = 2,  // BE: default
  kBackground = 3,  // BK
};
inline constexpr int kNumAccessCategories = 4;

// 802.11 User Priority / TID for QoS data frames (0-7). Aggregation is
// per-TID (802.11n requirement the paper's queue structure is built around).
using Tid = uint8_t;
inline constexpr int kNumTids = 8;

// Standard UP -> AC mapping (IEEE 802.1D / 802.11e).
constexpr AccessCategory AcForTid(Tid tid) {
  switch (tid & 7) {
    case 1:
    case 2:
      return AccessCategory::kBackground;
    case 0:
    case 3:
      return AccessCategory::kBestEffort;
    case 4:
    case 5:
      return AccessCategory::kVideo;
    case 6:
    case 7:
      return AccessCategory::kVoice;
  }
  return AccessCategory::kBestEffort;
}

// Default TID used when a packet carries no QoS marking.
inline constexpr Tid kBestEffortTid = 0;
// TID used for VO-marked traffic (Table 2's "VO" rows).
inline constexpr Tid kVoiceTid = 6;

enum class PacketType : uint8_t {
  kUdp,
  kTcpData,
  kTcpAck,   // Pure ACK (no payload).
  kTcpCtrl,  // SYN / SYN-ACK.
  kIcmpEchoRequest,
  kIcmpEchoReply,
};

struct TcpHeaderInfo {
  int64_t seq = 0;       // First payload byte carried (data segments).
  int64_t ack = 0;       // Cumulative ACK number.
  int32_t payload = 0;   // Payload bytes in this segment.
  bool syn = false;
  // TCP-timestamp-style option: segments carry their send time; ACKs echo the
  // timestamp of the segment that triggered them, giving retransmission-safe
  // RTT samples (Karn's problem avoided).
  int64_t ts = 0;
  int64_t ts_echo = 0;
};

class PacketPool;

struct Packet {
  // Wire size in bytes at the IP layer (payload + IP/transport headers).
  int32_t size_bytes = 0;

  PacketType type = PacketType::kUdp;
  FlowKey flow;

  // 802.11 QoS marking. Stamped by the sender from its DSCP-equivalent
  // configuration; the MAC maps it to an access category.
  Tid tid = kBestEffortTid;

  // Monotone per-flow sequence, used by sinks for loss/reordering detection.
  int64_t flow_seq = 0;

  // 802.11 MAC sequence number within the (transmitter, receiver, TID)
  // space; assigned at first transmission (retries keep it) and used by the
  // receiver's block-ack reorder buffer. -1 until assigned.
  int64_t mac_seq = -1;

  // For TCP segments only.
  TcpHeaderInfo tcp;

  // For ICMP echo: identifier echoed back in the reply.
  int64_t echo_id = 0;

  TimeUs created;     // Stamped by the traffic source.
  TimeUs enqueued;    // Stamped on entry to the (last) queueing layer; CoDel input.

  // Pool plumbing (see net/packet_pool.h). `origin_pool` is the arena this
  // packet must be returned to (nullptr = plain heap packet, deleted);
  // `pool_next` links free packets inside the pool's free list. Both are
  // invisible to protocol code: the custom deleter reads origin_pool, the
  // pool reads pool_next, and neither field survives a pool reset.
  PacketPool* origin_pool = nullptr;
  Packet* pool_next = nullptr;

  AccessCategory ac() const { return AcForTid(tid); }
};

// Deleter behind PacketPtr: returns pooled packets to their origin pool and
// deletes heap packets. Stateless, so PacketPtr stays pointer-sized.
// Defined in packet_pool.cc (needs the PacketPool definition).
struct PacketDeleter {
  void operator()(Packet* packet) const noexcept;
};

using PacketPtr = std::unique_ptr<Packet, PacketDeleter>;

// Allocates a plain heap packet. Used by tests and components that run
// without a Testbed-owned pool; the deleter handles both origins uniformly.
// airfair-lint: allow(hot-naked-new): this IS the heap-fallback allocator
inline PacketPtr NewHeapPacket() { return PacketPtr(new Packet()); }

// Canonical wire sizes (bytes, at the IP layer).
inline constexpr int32_t kFullDataPacketBytes = 1500;
inline constexpr int32_t kTcpAckBytes = 52;
inline constexpr int32_t kTcpCtrlBytes = 52;
inline constexpr int32_t kIcmpPingBytes = 84;  // 56 bytes of payload like `ping`.
inline constexpr int32_t kTcpHeaderBytes = 52;

}  // namespace airfair

#endif  // AIRFAIR_SRC_NET_PACKET_H_
