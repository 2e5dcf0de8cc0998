#include "src/mac/medium.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "src/obs/trace.h"
#include "src/util/check.h"

namespace airfair {

namespace {

constexpr size_t kWordBits = 64;

// Calls visit(i) for every set bit i of `words`, in increasing order. Each
// word is copied before its bits are visited, so `visit` may clear bit i
// (but must set none).
template <typename Visit>
void ForEachSetBit(const std::vector<uint64_t>& words, Visit visit) {
  for (size_t w = 0; w < words.size(); ++w) {
    for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      visit(w * kWordBits + static_cast<size_t>(std::countr_zero(bits)));
    }
  }
}

}  // namespace

WifiMedium::WifiMedium(Simulation* sim) : sim_(sim) {}

WifiMedium::ContenderId WifiMedium::Register(MediumClient* client, const EdcaParams& edca,
                                             bool from_ap) {
  Contender c;
  c.client = client;
  c.edca = edca;
  c.from_ap = from_ap;
  c.cw = edca.cw_min;
  contenders_.push_back(c);
  backlog_bits_.resize((contenders_.size() + kWordBits - 1) / kWordBits, 0);
  return static_cast<ContenderId>(contenders_.size() - 1);
}

bool WifiMedium::IsBacklogged(ContenderId id) const {
  const auto i = static_cast<size_t>(id);
  return ((backlog_bits_[i / kWordBits] >> (i % kWordBits)) & 1) != 0;
}

void WifiMedium::SetBacklogged(ContenderId id, bool backlogged) {
  const auto i = static_cast<size_t>(id);
  const uint64_t bit = uint64_t{1} << (i % kWordBits);
  uint64_t& word = backlog_bits_[i / kWordBits];
  word = backlogged ? (word | bit) : (word & ~bit);
}

void WifiMedium::SetErrorModel(StationId station,
                               InlineFunction<double(const PhyRate&)> model) {
  if (station >= static_cast<StationId>(error_model_by_station_.size())) {
    error_model_by_station_.resize(static_cast<size_t>(station) + 1);
  }
  error_model_by_station_[static_cast<size_t>(station)] = std::move(model);
}

void WifiMedium::SetErrorRate(StationId station, double per_mpdu_error_probability) {
  if (per_mpdu_error_probability <= 0.0) {
    SetErrorModel(station, nullptr);
    return;
  }
  SetErrorModel(station,
                [per_mpdu_error_probability](const PhyRate&) { return per_mpdu_error_probability; });
}

void WifiMedium::ChargeAirtime(StationId station, TimeUs duration) {
  if (station < 0) {
    return;
  }
  if (station >= static_cast<StationId>(airtime_by_station_.size())) {
    airtime_by_station_.resize(station + 1, TimeUs::Zero());
  }
  airtime_by_station_[station] += duration;
}

TimeUs WifiMedium::AirtimeUsed(StationId station) const {
  if (station < 0 || station >= static_cast<StationId>(airtime_by_station_.size())) {
    return TimeUs::Zero();
  }
  return airtime_by_station_[station];
}

void WifiMedium::NotifyBacklog(ContenderId id) {
  if (IsBacklogged(id)) {
    return;
  }
  SetBacklogged(id, true);
  if (!busy_) {
    RestartContention();
  }
}

void WifiMedium::RestartContention() {
  AF_DCHECK(!busy_) << " transmission started while the medium is busy";
  grant_event_.Cancel();

  // Refresh backlog states (clients may have drained) and draw missing
  // backoffs. Draws happen in id order, so the RNG stream does not depend on
  // how many idle contenders are registered.
  bool any = false;
  int best_defer = 0;
  ForEachSetBit(backlog_bits_, [&](size_t i) {
    Contender& c = contenders_[i];
    if (!c.client->HasPending()) {
      SetBacklogged(static_cast<ContenderId>(i), false);
      c.backoff_slots = -1;
      return;
    }
    if (c.backoff_slots < 0) {
      c.backoff_slots = static_cast<int>(sim_->rng().NextBelow(static_cast<uint64_t>(c.cw) + 1));
    }
    const int defer = c.edca.aifsn + c.backoff_slots;
    if (!any || defer < best_defer) {
      best_defer = defer;
    }
    any = true;
  });
  if (!any) {
    return;
  }
  const TimeUs wait = kSifs + best_defer * kSlotTime;
  const int defer_copy = best_defer;
  grant_event_ = sim_->After(wait, [this, defer_copy] { ResolveGrant(defer_copy); });
}

void WifiMedium::ResolveGrant(int defer_slots) {
  if (busy_) {
    return;  // Defensive: a stale grant must never overlap a transmission.
  }
  // Mark busy *before* asking clients to build transmissions: building can
  // re-fill hardware queues and call NotifyBacklog, which must not restart
  // contention mid-grant.
  busy_ = true;
  // One pass over the backlogged contenders: those whose counters expire at
  // this round's minimum win; the others lose. A contender's class depends
  // only on its own counter before the grant, so updating a loser's counter
  // cannot change another's class. Member scratch vector: capacity persists
  // across grants, so steady-state rounds do not allocate.
  std::vector<int>& winner_ids = winner_scratch_;
  winner_ids.clear();
  ForEachSetBit(backlog_bits_, [&](size_t i) {
    Contender& c = contenders_[i];
    if (c.edca.aifsn + c.backoff_slots == defer_slots) {
      winner_ids.push_back(static_cast<int>(i));
      return;
    }
    // Losers consume the backoff slots that elapsed beyond their AIFS.
    const int consumed = std::max(0, defer_slots - c.edca.aifsn);
    c.backoff_slots = std::max(0, c.backoff_slots - consumed);
  });

  // Ask the winners to build their transmissions. The vector is recycled
  // through tx_scratch_ (capacity returns after CompleteTransmissions).
  std::vector<std::pair<int, TxDescriptor>> transmissions = std::move(tx_scratch_);
  transmissions.clear();
  for (int id : winner_ids) {
    Contender& c = contenders_[static_cast<size_t>(id)];
    TxDescriptor tx = c.client->BuildTransmission();
    if (tx.empty()) {
      SetBacklogged(id, c.client->HasPending());
      c.backoff_slots = -1;
      continue;
    }
    transmissions.emplace_back(id, std::move(tx));
  }
  if (transmissions.empty()) {
    tx_scratch_ = std::move(transmissions);  // Keep the capacity.
    busy_ = false;
    RestartContention();
    return;
  }

  const bool collision = transmissions.size() > 1;
  TimeUs occupancy = TimeUs::Zero();
  for (const auto& [id, tx] : transmissions) {
    occupancy = std::max(occupancy, tx.duration);
    AF_TRACE_TX_START(sim_->now(), tx.station, static_cast<int64_t>(tx.mpdus.size()),
                      tx.duration.us());
  }
  if (collision) {
    occupancy += kEifs - kDifs;  // Extended IFS penalty after a collision.
    ++collisions_;
    AF_TRACE_COLLISION(sim_->now(), static_cast<int64_t>(transmissions.size()),
                       (kEifs - kDifs).us());
  }

  busy_time_ += occupancy;
  // Move the descriptors straight into the completion event: EventFn takes
  // move-only captures (no shared_ptr holder), and the closure — a pointer,
  // a vector, a bool — fits EventFn's inline buffer, so scheduling the
  // completion allocates nothing.
  // airfair-lint: allow(callback-lifetime): no event runs once ~Testbed starts, destroying a queued closure never touches its `this`, and its PacketPtrs return to the Testbed's packet pool, which outlives its Simulation.
  sim_->PostAfter(occupancy,
                  [this, pending = std::move(transmissions), collision]() mutable {
                    CompleteTransmissions(std::move(pending), collision);
                  });
}

void WifiMedium::CompleteTransmissions(std::vector<std::pair<int, TxDescriptor>> transmissions,
                                       bool collision) {
  for (auto& [id, tx] : transmissions) {
    Contender& c = contenders_[static_cast<size_t>(id)];
    ++transmissions_;

    // Every collider pays for its own transmission time.
    ChargeAirtime(tx.station, tx.duration);
    if (!c.from_ap && rx_airtime_) {
      rx_airtime_(tx.station, tx.ac, tx.duration);
    }

    int64_t mpdus_ok = 0;
    int64_t mpdus_lost = 0;
    if (!collision) {
      // Per-MPDU channel errors (block-ack reports the failures).
      double err = 0.0;
      if (tx.station >= 0 &&
          tx.station < static_cast<StationId>(error_model_by_station_.size()) &&
          error_model_by_station_[static_cast<size_t>(tx.station)]) {
        err = error_model_by_station_[static_cast<size_t>(tx.station)](tx.rate);
      }
      for (auto& mpdu : tx.mpdus) {
        if (err > 0.0 && sim_->rng().Chance(err)) {
          ++mpdu_errors_;
          ++mpdus_lost;
          continue;  // Packet stays in the descriptor: failed.
        }
        ++mpdus_ok;
        if (deliver_) {
          AF_TRACE_DELIVER(sim_->now(), tx.station, mpdu.packet->tid,
                           sim_->now().us() - mpdu.packet->created.us(),
                           mpdu.packet->size_bytes);
          deliver_(std::move(mpdu.packet), tx.src_node, tx.dst_node);
        }
        mpdu.packet = nullptr;
      }
      c.cw = c.edca.cw_min;
      AF_TRACE_BLOCK_ACK(sim_->now(), tx.station, mpdus_ok);
    } else {
      // Whole-frame loss; binary exponential backoff.
      mpdus_lost = static_cast<int64_t>(tx.mpdus.size());
      c.cw = std::min(2 * (c.cw + 1) - 1, c.edca.cw_max);
    }
    AF_TRACE_TX_END(sim_->now(), tx.station, tx.duration.us(), mpdus_ok, mpdus_lost);
    c.backoff_slots = -1;

    c.client->OnTxComplete(std::move(tx), collision);
    SetBacklogged(id, c.client->HasPending());
  }
  // Return the (now element-free) vector's capacity to the scratch slot so
  // the next grant's ResolveGrant reuses it.
  transmissions.clear();
  tx_scratch_ = std::move(transmissions);
  busy_ = false;
  RestartContention();
}

}  // namespace airfair
