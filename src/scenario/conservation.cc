#include "src/scenario/conservation.h"

#include <sstream>

#include "src/mac/ap_backend.h"

namespace airfair {

std::string LedgerTallies::ToString() const {
  std::ostringstream out;
  out << "injected=" << injected << " delivered=" << delivered << " dropped=" << dropped
      << " drained=" << drained << " in_flight=" << in_flight << " imbalance=" << Imbalance()
      << " [drops: backend=" << backend_drops << " ap_retry=" << ap_retry_drops
      << " ap_unroutable=" << ap_unroutable << " station=" << station_drops
      << " link=" << link_drops << " host=" << host_undeliverable
      << " reorder_dup=" << reorder_duplicates << "]"
      << " [drains: ap=" << ap_churn_drained << " station=" << station_churn_drained
      << " reorder=" << reorder_churn_drained << "]";
  return out.str();
}

LedgerTallies PacketLedger::Tally() const {
  LedgerTallies t;
  t.injected = injected_bias_;
  for (const Host* host : hosts_) {
    t.injected += host->packets_created();
    t.delivered += host->packets_delivered();
    t.host_undeliverable += host->undeliverable_count();
  }
  for (const WifiStation* station : stations_) {
    t.station_drops += station->uplink_drops() + station->retry_drops();
    t.station_churn_drained += station->churn_drained();
  }
  for (const ReorderBuffer* reorder : reorders_) {
    t.reorder_duplicates += reorder->duplicate_drops();
    t.reorder_churn_drained += reorder->churn_drained();
  }
  if (ap_ != nullptr) {
    t.ap_retry_drops = ap_->retry_drops();
    t.ap_unroutable = ap_->unroutable_drops();
    t.ap_churn_drained = ap_->churn_drained();
    if (ap_->backend() != nullptr) {
      t.backend_drops = ap_->backend()->drops();
    }
  }
  if (link_ != nullptr) {
    t.link_drops = link_->forward().drops() + link_->reverse().drops();
  }
  t.dropped = t.backend_drops + t.ap_retry_drops + t.ap_unroutable + t.station_drops +
              t.link_drops + t.host_undeliverable + t.reorder_duplicates;
  t.drained = t.ap_churn_drained + t.station_churn_drained + t.reorder_churn_drained;
  if (pool_ != nullptr) {
    t.in_flight = pool_->outstanding();
  }
  return t;
}

int PacketLedger::CheckInvariants(AuditFailFn fail) const {
  const LedgerTallies t = Tally();
  if (t.Imbalance() != 0) {
    fail("packet conservation violated: " + t.ToString());
    return 1;
  }
  return 0;
}

}  // namespace airfair
