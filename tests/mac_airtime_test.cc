#include "src/mac/airtime.h"

#include <gtest/gtest.h>

#include "src/mac/phy_rate.h"
#include "src/mac/wifi_constants.h"
#include "src/model/analytical.h"

namespace airfair {
namespace {

using namespace time_literals;

TEST(PhyRate, PaperTestbedRates) {
  EXPECT_NEAR(FastStationRate().Mbps(), 144.4, 0.1);   // MCS 15, HT20, SGI.
  EXPECT_NEAR(SlowStationRate().Mbps(), 7.2, 0.05);    // MCS 0, HT20, SGI.
  EXPECT_NEAR(OneMbpsRate().Mbps(), 1.0, 1e-9);
  EXPECT_FALSE(OneMbpsRate().ht);
  EXPECT_TRUE(FastStationRate().ht);
}

TEST(PhyRate, McsTableMonotoneInIndex) {
  for (int i = 1; i <= 15; ++i) {
    if (i == 8) {
      continue;  // MCS8 (2 streams, BPSK) is below MCS7 (1 stream, 64QAM5/6).
    }
    EXPECT_GT(McsRate(i).bps, McsRate(i - 1).bps) << "MCS " << i;
  }
}

TEST(PhyRate, ShortGiGivesTenNinths) {
  EXPECT_NEAR(McsRate(7, true).bps / McsRate(7, false).bps, 10.0 / 9.0, 1e-9);
}

TEST(Airtime, AmpduSizeMatchesEquationOne) {
  // 1500-byte packet: 1500 + 4 + 34 + 4 = 1542, padded to 1544.
  EXPECT_EQ(PaddedMpduBytes(1500), 1544);
  EXPECT_EQ(PaddedMpduBytes(1498), 1540);
  EXPECT_EQ(PaddedMpduBytes(1499), 1544);
  EXPECT_DOUBLE_EQ(AmpduSizeBytes(1, 1500), 1544.0);
  EXPECT_DOUBLE_EQ(AmpduSizeBytes(2, 1500), 3088.0);
  // Fractional aggregation sizes are allowed (analytical model).
  EXPECT_DOUBLE_EQ(AmpduSizeBytes(1.5, 1500), 2316.0);
  // A 1498-byte packet: 1498+42 = 1540, already a multiple of 4.
  EXPECT_DOUBLE_EQ(AmpduSizeBytes(1, 1498), 1540.0);
  // Padding rounds up: 1499+42 = 1541 -> 1544.
  EXPECT_DOUBLE_EQ(AmpduSizeBytes(1, 1499), 1544.0);
}

TEST(Airtime, DataDurationMatchesEquationTwo) {
  // Slow station (7.2 Mbit/s), one 1500-byte MPDU:
  // 32 us PHY header + 8*1544/7.2 us = 32 + 1715.6 ~= 1748 us.
  const TimeUs t = AmpduDataDuration(PaddedMpduBytes(1500), SlowStationRate());
  EXPECT_NEAR(static_cast<double>(t.us()), 32 + 8.0 * 1544 / 7.2222, 2.0);
}

TEST(Airtime, BaselineRatesReproduceTable1) {
  // Table 1's "Base" column: computed rates for the measured aggregation
  // levels. FIFO rows: 4.47/5.08 aggregates at MCS15, 1.89 at MCS0.
  EXPECT_NEAR(BaselineRateMbps({4.47, 1500, FastStationRate()}), 97.3, 1.0);
  EXPECT_NEAR(BaselineRateMbps({5.08, 1500, FastStationRate()}), 101.1, 1.0);
  EXPECT_NEAR(BaselineRateMbps({1.89, 1500, SlowStationRate()}), 6.5, 0.1);
  // Airtime-fairness rows: 18.44/18.52 aggregates.
  EXPECT_NEAR(BaselineRateMbps({18.44, 1500, FastStationRate()}), 126.7, 1.0);
  EXPECT_NEAR(BaselineRateMbps({18.52, 1500, FastStationRate()}), 126.8, 1.0);
}

TEST(Airtime, TransmissionOverheadMatchesPaperModel) {
  // T_oh = DIFS(34) + SIFS(16) + T_ack + T_BO(68), T_ack = 16 + 8*58/r.
  const double oh_fast = TransmissionOverheadUs(FastStationRate());
  EXPECT_NEAR(oh_fast, 34 + 16 + (16 + 8.0 * 58 / 144.44) + 68, 0.5);
  const double oh_slow = TransmissionOverheadUs(SlowStationRate());
  EXPECT_NEAR(oh_slow, 34 + 16 + (16 + 8.0 * 58 / 7.2222) + 68, 0.5);
}

TEST(Airtime, BlockAckFasterAtHigherRates) {
  EXPECT_LT(BlockAckDuration(FastStationRate()), BlockAckDuration(SlowStationRate()));
  // Both include one SIFS.
  EXPECT_GT(BlockAckDuration(FastStationRate()), kSifs);
}

TEST(Airtime, LegacyAckUsesBasicRate) {
  // SIFS + PHY header + 14 bytes at 24 Mbit/s ~= 16 + 32 + 4.7.
  EXPECT_NEAR(static_cast<double>(LegacyAckDuration().us()), 52.7, 1.0);
}

TEST(Airtime, SingleMpduOmitsDelimiterAndPadding) {
  // Non-aggregated frame: payload + MAC header + FCS only.
  const TimeUs single = SingleMpduDuration(1500, FastStationRate());
  const double expected_us = 32 + 8.0 * (1500 + 34 + 4) / 144.44;
  EXPECT_NEAR(static_cast<double>(single.us()), expected_us, 1.0);
}

TEST(Airtime, DurationScalesInverselyWithRate) {
  const int64_t eight = 8 * PaddedMpduBytes(1500);
  const TimeUs fast = AmpduDataDuration(eight, FastStationRate());
  const TimeUs slow = AmpduDataDuration(eight, SlowStationRate());
  // 144.4/7.2 = 20x the rate; payload portion should be ~20x shorter.
  const double ratio = static_cast<double>(slow.us() - 32) / (fast.us() - 32);
  EXPECT_NEAR(ratio, 20.0, 0.5);
}

}  // namespace
}  // namespace airfair
