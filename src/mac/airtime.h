// Airtime calculator: transmission durations per the paper's Eqs. (1)-(3).
//
// BuildAggregate (src/mac/aggregation.cc) prices every transmission with
// these functions and stores the result in TxDescriptor::duration. That one
// duration is what the medium holds the air for (the "capture-based" ground
// truth) and what the AP charges to the station's airtime deficit (the
// "in-kernel" estimate), so the two agree, as the paper's third party
// verified to within 1.5%. The analytical model in src/model builds Table 1
// on AmpduSizeBytes, with Eq. (2) in unrounded real numbers.

#ifndef AIRFAIR_SRC_MAC_AIRTIME_H_
#define AIRFAIR_SRC_MAC_AIRTIME_H_

#include <cstdint>

#include "src/mac/phy_rate.h"
#include "src/util/time.h"

namespace airfair {

// Eq. (1), per-MPDU term: on-air bytes of one `packet_bytes` packet inside
// an A-MPDU, with its delimiter, MAC header and FCS, padded to 4 bytes.
int64_t PaddedMpduBytes(int packet_bytes);

// Eq. (1): size in bytes of an n-MPDU A-MPDU with l-byte packets.
// Callable with fractional n for the analytical model.
double AmpduSizeBytes(double n_packets, int packet_bytes);

// Eq. (2): time on the air for the data portion (PHY header + payload) of an
// A-MPDU of `ampdu_bytes` (a sum of PaddedMpduBytes), to the microsecond.
TimeUs AmpduDataDuration(int64_t ampdu_bytes, const PhyRate& rate);

// Block-ack duration as modelled in the paper: SIFS + 58 bytes at the data
// rate. (The SIFS is included, following T_ack's definition in Section 2.2.1.)
TimeUs BlockAckDuration(const PhyRate& rate);

// Regular ACK for a non-aggregated frame: SIFS + 14 bytes at the basic rate,
// plus a PHY header.
TimeUs LegacyAckDuration();

// Duration of a single non-aggregated MPDU (no delimiter/padding): PHY
// header + (payload + MAC header + FCS) at `rate`.
TimeUs SingleMpduDuration(int packet_bytes, const PhyRate& rate);

}  // namespace airfair

#endif  // AIRFAIR_SRC_MAC_AIRTIME_H_
