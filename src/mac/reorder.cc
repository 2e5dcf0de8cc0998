#include "src/mac/reorder.h"

#include <sstream>
#include <string>
#include <utility>

#include "src/mac/wifi_constants.h"
#include "src/obs/trace.h"

namespace airfair {

// Note on trace records: reorder events are per (transmitter node, TID)
// stream, so the `station` field of AF_TRACE_REORDER_* / AF_TRACE_DUP_DROP
// events carries the *node* id (2 + station index in the Testbed topology).

ReorderBuffer::ReorderBuffer(Simulation* sim, InlineFunction<void(PacketPtr)> deliver)
    : sim_(sim), deliver_(std::move(deliver)) {}

void ReorderBuffer::Receive(PacketPtr packet, uint32_t transmitter_node, Tid tid) {
  if (packet->mac_seq < 0) {
    deliver_(std::move(packet));
    return;
  }
  const uint64_t key = (static_cast<uint64_t>(transmitter_node) << 8) | tid;
  auto& slot = streams_[key];
  if (slot == nullptr) {
    slot = std::make_unique<Stream>();
    slot->node = static_cast<int32_t>(transmitter_node);
    slot->tid = tid;
  }
  Stream* stream = slot.get();

  const int64_t seq = packet->mac_seq;
  if (seq < stream->expected) {
    ++duplicate_drops_;  // Duplicate of an already-released frame.
    AF_TRACE_DUP_DROP(sim_->now(), stream->node, seq);
    return;
  }
  if (seq == stream->expected) {
    ++stream->expected;
    deliver_(std::move(packet));
    ReleaseContiguous(stream);
    return;
  }
  // Hole: buffer and wait for the retry.
  if (stream->buffer.emplace(seq, std::move(packet)).second) {
    ++held_;
    AF_TRACE_REORDER_HOLD(sim_->now(), stream->node, held_, seq);
  }
  // Window pressure: never hold more than the block-ack window's span.
  while (!stream->buffer.empty() &&
         stream->buffer.rbegin()->first - stream->expected >= kBlockAckWindow) {
    FlushHole(stream, /*timeout=*/false);
  }
  if (!stream->buffer.empty()) {
    ArmTimer(stream);
  }
}

void ReorderBuffer::ReleaseContiguous(Stream* stream) {
  int64_t released = 0;
  auto it = stream->buffer.begin();
  while (it != stream->buffer.end() && it->first == stream->expected) {
    ++stream->expected;
    --held_;
    ++released;
    deliver_(std::move(it->second));
    it = stream->buffer.erase(it);
  }
  if (released > 0) {
    AF_TRACE_REORDER_RELEASE(sim_->now(), stream->node, released, stream->expected);
  }
  if (stream->buffer.empty()) {
    stream->flush_timer.Cancel();
  } else {
    ArmTimer(stream);
  }
}

void ReorderBuffer::FlushHole(Stream* stream, bool timeout) {
  if (stream->buffer.empty()) {
    return;
  }
  // Skip to the first buffered frame, abandoning the hole.
  const int64_t skipped = stream->buffer.begin()->first - stream->expected;
  AF_TRACE_REORDER_FLUSH(sim_->now(), stream->node, skipped, timeout ? 1 : 0);
  stream->expected = stream->buffer.begin()->first;
  ReleaseContiguous(stream);
}

int64_t ReorderBuffer::FlushStation(uint32_t transmitter_node) {
  int64_t drained = 0;
  for (auto it = streams_.begin(); it != streams_.end();) {
    if ((it->first >> 8) != transmitter_node) {
      ++it;
      continue;
    }
    Stream* stream = it->second.get();
    drained += static_cast<int64_t>(stream->buffer.size());
    held_ -= static_cast<int64_t>(stream->buffer.size());
    // Destroying the map destroys the held PacketPtrs (pool outstanding
    // drops in the same call, keeping the ledger balanced at this instant).
    stream->buffer.clear();
    stream->flush_timer.Cancel();
    it = streams_.erase(it);
  }
  churn_drained_ += drained;
  if (drained > 0) {
    AF_TRACE_REORDER_FLUSH(sim_->now(), static_cast<int32_t>(transmitter_node), drained,
                           /*timeout=*/0);
  }
  return drained;
}

int ReorderBuffer::CheckInvariants(AuditFailFn fail) const {
  int violations = 0;
  auto report = [&](const std::string& message) {
    ++violations;
    fail("reorder: " + message);
  };

  int64_t recount = 0;
  for (const auto& [key, stream] : streams_) {
    recount += static_cast<int64_t>(stream->buffer.size());
    for (const auto& [seq, packet] : stream->buffer) {
      if (seq < stream->expected) {
        std::ostringstream os;
        os << "stream " << key << " holds already-released seq " << seq
           << " (expected=" << stream->expected << ")";
        report(os.str());
      }
      if (seq == stream->expected) {
        std::ostringstream os;
        os << "stream " << key << " buffers its own release point seq " << seq;
        report(os.str());
      }
      if (packet == nullptr) {
        std::ostringstream os;
        os << "stream " << key << " holds a null packet at seq " << seq;
        report(os.str());
      }
    }
    if (!stream->buffer.empty()) {
      const int64_t span = stream->buffer.rbegin()->first - stream->expected;
      if (span >= kBlockAckWindow) {
        std::ostringstream os;
        os << "stream " << key << " exceeds the block-ack window: span=" << span
           << " window=" << kBlockAckWindow;
        report(os.str());
      }
      if (!stream->flush_timer.pending()) {
        std::ostringstream os;
        os << "stream " << key << " holds packets but its flush timer is not armed";
        report(os.str());
      }
    } else if (stream->flush_timer.pending()) {
      std::ostringstream os;
      os << "stream " << key << " is empty but its flush timer is still armed";
      report(os.str());
    }
  }
  if (recount != held_) {
    std::ostringstream os;
    os << "held-packet counter mismatch: recount=" << recount << " stored=" << held_;
    report(os.str());
  }
  return violations;
}

void ReorderBuffer::CorruptWindowForTesting() {
  for (auto& [key, stream] : streams_) {
    (void)key;
    if (!stream->buffer.empty()) {
      // Pretend the release point regressed far behind the highest buffered
      // frame, blowing the window bound.
      stream->expected = stream->buffer.begin()->first - kBlockAckWindow * 4;
      return;
    }
  }
}

void ReorderBuffer::ArmTimer(Stream* stream) {
  // mac80211's reorder release timeout (HT_RX_REORDER_BUF_TIMEOUT, HZ / 10).
  constexpr TimeUs kReleaseTimeout = TimeUs::FromMilliseconds(100);
  if (stream->flush_timer.pending()) {
    return;
  }
  stream->flush_timer = sim_->After(kReleaseTimeout, [this, stream] {
    ++timeout_flushes_;
    FlushHole(stream, /*timeout=*/true);
  });
}

}  // namespace airfair
