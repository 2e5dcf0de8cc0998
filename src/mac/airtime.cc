#include "src/mac/airtime.h"

#include <cmath>

#include "src/mac/wifi_constants.h"

namespace airfair {

int64_t PaddedMpduBytes(int packet_bytes) {
  const int raw = packet_bytes + kMpduDelimiterBytes + kMacHeaderBytes + kFcsBytes;
  return (raw + 3) / 4 * 4;  // L_pad: round up to 4 bytes.
}

double AmpduSizeBytes(double n_packets, int packet_bytes) {
  return n_packets * static_cast<double>(PaddedMpduBytes(packet_bytes));
}

TimeUs AmpduDataDuration(int64_t ampdu_bytes, const PhyRate& rate) {
  const double seconds = 8.0 * static_cast<double>(ampdu_bytes) / rate.bps;
  return kPhyHeader + TimeUs(static_cast<int64_t>(std::llround(seconds * 1e6)));
}

TimeUs BlockAckDuration(const PhyRate& rate) {
  const double seconds = 8.0 * kBlockAckBytes / rate.bps;
  return kSifs + TimeUs(static_cast<int64_t>(std::llround(seconds * 1e6)));
}

TimeUs LegacyAckDuration() {
  const double seconds = 8.0 * kAckBytes / kBasicRateBps;
  return kSifs + kPhyHeader + TimeUs(static_cast<int64_t>(std::llround(seconds * 1e6)));
}

TimeUs SingleMpduDuration(int packet_bytes, const PhyRate& rate) {
  const double bits = 8.0 * (packet_bytes + kMacHeaderBytes + kFcsBytes);
  const double seconds = bits / rate.bps;
  return kPhyHeader + TimeUs(static_cast<int64_t>(std::llround(seconds * 1e6)));
}

}  // namespace airfair
