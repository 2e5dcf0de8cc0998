#include "src/mac/aggregation.h"

#include <algorithm>
#include <utility>

#include "src/mac/airtime.h"
#include "src/mac/wifi_constants.h"
#include "src/obs/trace.h"

namespace airfair {

bool AggregationAllowed(AccessCategory ac, const PhyRate& rate) {
  return rate.ht && ac != AccessCategory::kVoice;
}

TxDescriptor BuildAggregate(uint32_t src_node, uint32_t dst_node, StationId station, Tid tid,
                            const PhyRate& rate, bool allow_aggregation,
                            const AggregationSource& source) {
  TxDescriptor tx;
  tx.src_node = src_node;
  tx.dst_node = dst_node;
  tx.station = station;
  tx.tid = tid;
  tx.ac = AcForTid(tid);
  tx.rate = rate;
  tx.aggregated = allow_aggregation;

  if (!allow_aggregation) {
    // The pop can come back empty even after a successful peek: CoDel may
    // drop the remaining backlog during the dequeue.
    while (source.peek_bytes() >= 0) {
      Mpdu mpdu = source.pop();
      if (mpdu.packet == nullptr) {
        continue;
      }
      const int bytes = mpdu.packet->size_bytes;
      tx.mpdus.push_back(std::move(mpdu));
      tx.duration = SingleMpduDuration(bytes, rate) + LegacyAckDuration();
      AF_TRACE_AGGREGATE(station, tid, 1, tx.duration.us(), bytes);
      return tx;
    }
    return tx;
  }

  const int max_frames = std::min(kMaxMpdusPerAmpdu, kBlockAckWindow);
  int64_t ampdu_bytes = 0;
  while (tx.frame_count() < max_frames) {
    const int next = source.peek_bytes();
    if (next < 0) {
      break;
    }
    const int64_t projected = ampdu_bytes + PaddedMpduBytes(next);
    if (tx.frame_count() > 0 && AmpduDataDuration(projected, rate) > kMaxAmpduDuration) {
      break;  // Would exceed the TXOP duration cap.
    }
    Mpdu mpdu = source.pop();
    if (mpdu.packet == nullptr) {
      continue;  // CoDel emptied the queue mid-build; re-peek.
    }
    ampdu_bytes = projected;
    tx.mpdus.push_back(std::move(mpdu));
  }
  if (tx.empty()) {
    return tx;
  }
  tx.duration = AmpduDataDuration(ampdu_bytes, rate) + BlockAckDuration(rate);
  AF_TRACE_AGGREGATE(station, tid, tx.frame_count(), tx.duration.us(), ampdu_bytes);
  return tx;
}

}  // namespace airfair
