// 802.11n block-ack receive reorder buffer.
//
// A-MPDU subframes can fail individually; the transmitter software-retries
// them, so MPDUs of one TID may arrive out of order (a retry lands after a
// later aggregate already went out). The receiver holds out-of-order MPDUs
// in a reorder buffer, releasing them in MAC-sequence order, and flushes
// past permanent holes on a timeout or when the buffer exceeds the block-ack
// window — mirroring mac80211's RX reorder machinery. Without this, every
// MAC retry would surface as TCP packet reordering and trigger spurious fast
// retransmits, which does not happen on real WiFi.
//
// Sequence spaces are per (transmitter node, receiver node, TID); the paper
// notes the same constraint from the other side: "any protocol-specific
// encoding that is sensitive to reordering (notably 802.11 sequence
// numbers...) needs to be applied on dequeue" — i.e. sequence numbers are
// assigned when frames are handed to the hardware, which is what
// MacSequencer models.

#ifndef AIRFAIR_SRC_MAC_REORDER_H_
#define AIRFAIR_SRC_MAC_REORDER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/net/packet.h"
#include "src/sim/simulation.h"
#include "src/util/function_ref.h"
#include "src/util/inline_function.h"

namespace airfair {

// Assigns per-(receiver, TID) MAC sequence numbers at first transmission.
class MacSequencer {
 public:
  // Stamps packet->mac_seq if not yet assigned (retries keep their number).
  void AssignIfNeeded(Packet* packet, uint32_t receiver_node, Tid tid) {
    if (packet->mac_seq >= 0) {
      return;
    }
    const uint64_t key = (static_cast<uint64_t>(receiver_node) << 8) | tid;
    packet->mac_seq = next_[key]++;
  }

  // Closes every (receiver_node, tid) sequence space — the transmitter half
  // of a block-ack session teardown. The next frame toward the receiver
  // starts a fresh session at sequence 0, matching the receiver-side
  // ReorderBuffer::FlushStation reset (both sides must restart together or
  // post-rejoin frames would land behind the stale release point and be
  // discarded as duplicates).
  void ResetReceiver(uint32_t receiver_node) {
    for (auto it = next_.begin(); it != next_.end();) {
      if ((it->first >> 8) == receiver_node) {
        it = next_.erase(it);
      } else {
        ++it;
      }
    }
  }

 private:
  std::unordered_map<uint64_t, int64_t> next_;
};

class ReorderBuffer {
 public:
  ReorderBuffer(Simulation* sim, InlineFunction<void(PacketPtr)> deliver);

  // Accepts an MPDU from (transmitter_node, tid); releases in-order packets
  // to the delivery function. Packets without a MAC sequence number bypass
  // reordering.
  void Receive(PacketPtr packet, uint32_t transmitter_node, Tid tid);

  // Block-ack session close for one transmitter (receiver half of a churn
  // teardown): destroys every packet held for that transmitter's streams
  // (accounted in churn_drained), cancels the flush timers and erases the
  // streams, so a rejoin starts a fresh sequence space at 0. The
  // duplicate/timeout counters are preserved — they describe history, not
  // the departed session. Returns the number of packets drained.
  int64_t FlushStation(uint32_t transmitter_node);

  // Drains one packet that arrived for a detached receiver (the testbed's
  // delivery hook routes inactive-station deliveries here so the drain is
  // accounted where the ledger already looks). The packet is destroyed.
  void DrainInactive(PacketPtr packet) {
    ++churn_drained_;
    packet = nullptr;
  }

  int64_t held_packets() const { return held_; }
  int64_t timeout_flushes() const { return timeout_flushes_; }
  // Frames discarded because their sequence number was already released
  // (retries of MPDUs the receiver had). Feeds the conservation ledger.
  int64_t duplicate_drops() const { return duplicate_drops_; }
  // Packets destroyed by churn teardown (FlushStation + DrainInactive);
  // feeds the ledger's `drained` term.
  int64_t churn_drained() const { return churn_drained_; }

  // Invariant audit (see src/sim/audit.h). Verifies, calling `fail` once per
  // violation and returning the violation count:
  //  * the held-packet counter matches a recount over every stream buffer;
  //  * every buffered sequence number is strictly ahead of the stream's
  //    release point (an already-released sequence held in the buffer would
  //    be a duplicate delivery waiting to happen);
  //  * the block-ack window bound: the span between the release point and
  //    the highest buffered sequence stays below the block-ack window;
  //  * the flush timer is armed exactly when a stream holds packets.
  int CheckInvariants(AuditFailFn fail) const;

  // Test-only corruption hook for tests/sim_audit_test.cc.
  void CorruptHeldCountForTesting() { ++held_; }
  void CorruptWindowForTesting();

 private:
  struct Stream {
    int64_t expected = 0;
    // Transmitter node and TID, kept for trace events (the stream key
    // encodes them, but flush paths only hold the Stream*).
    int32_t node = -1;
    Tid tid = 0;
    std::map<int64_t, PacketPtr> buffer;
    EventHandle flush_timer;
  };

  void ReleaseContiguous(Stream* stream);
  void FlushHole(Stream* stream, bool timeout);
  void ArmTimer(Stream* stream);

  Simulation* sim_;
  InlineFunction<void(PacketPtr)> deliver_;
  std::unordered_map<uint64_t, std::unique_ptr<Stream>> streams_;
  int64_t held_ = 0;
  int64_t timeout_flushes_ = 0;
  int64_t duplicate_drops_ = 0;
  int64_t churn_drained_ = 0;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_MAC_REORDER_H_
