#include "src/mac/medium.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include "src/mac/airtime.h"
#include "tests/test_util.h"

namespace airfair {
namespace {

using namespace time_literals;

// A contender that transmits fixed-duration single-MPDU frames.
class FakeClient : public MediumClient {
 public:
  FakeClient(WifiMedium* medium, StationId station, uint32_t dst_node, TimeUs duration)
      : medium_(medium), station_(station), dst_node_(dst_node), duration_(duration) {}

  void Register(const EdcaParams& edca, bool from_ap) {
    id_ = medium_->Register(this, edca, from_ap);
  }

  void QueueFrames(int n) {
    pending_ += n;
    medium_->NotifyBacklog(id_);
  }

  bool HasPending() override { return pending_ > 0; }

  TxDescriptor BuildTransmission() override {
    if (pending_ == 0) {
      return TxDescriptor{};
    }
    --pending_;
    TxDescriptor tx;
    tx.src_node = 100;
    tx.dst_node = dst_node_;
    tx.station = station_;
    tx.rate = FastStationRate();
    tx.duration = duration_;
    Mpdu mpdu;
    mpdu.packet = MakePacket();
    tx.mpdus.push_back(std::move(mpdu));
    ++built_;
    return tx;
  }

  void OnTxComplete(TxDescriptor tx, bool collision) override {
    ++completions_;
    if (collision) {
      ++collisions_seen_;
    }
    for (auto& m : tx.mpdus) {
      if (m.packet != nullptr) {
        ++failed_mpdus_;
        // Retry: put it back.
        ++pending_;
      }
    }
    if (pending_ > 0) {
      medium_->NotifyBacklog(id_);
    }
  }

  WifiMedium* medium_;
  StationId station_;
  uint32_t dst_node_;
  TimeUs duration_;
  WifiMedium::ContenderId id_ = 0;
  int pending_ = 0;
  int built_ = 0;
  int completions_ = 0;
  int collisions_seen_ = 0;
  int failed_mpdus_ = 0;
};

class MediumTest : public ::testing::Test {
 protected:
  MediumTest() : sim_(7), medium_(&sim_) {
    medium_.set_deliver([this](PacketPtr, uint32_t, uint32_t dst) {
      delivered_.push_back(dst);
    });
  }

  Simulation sim_;
  WifiMedium medium_;
  std::vector<uint32_t> delivered_;
};

TEST_F(MediumTest, SingleContenderTransmitsAll) {
  FakeClient c(&medium_, 0, 2, 1_ms);
  c.Register(EdcaFor(AccessCategory::kBestEffort), true);
  c.QueueFrames(10);
  sim_.RunFor(100_ms);
  EXPECT_EQ(c.completions_, 10);
  EXPECT_EQ(delivered_.size(), 10u);
  EXPECT_EQ(medium_.collisions(), 0);
}

TEST_F(MediumTest, AirtimeLedgerChargesExactDurations) {
  FakeClient c(&medium_, 3, 2, 1_ms);
  c.Register(EdcaFor(AccessCategory::kBestEffort), true);
  c.QueueFrames(5);
  sim_.RunFor(100_ms);
  EXPECT_EQ(medium_.AirtimeUsed(3), 5_ms);
  EXPECT_EQ(medium_.busy_time(), 5_ms);
}

TEST_F(MediumTest, TransmissionsSerializeOnTheMedium) {
  // Two backlogged contenders: total busy time equals the sum of their
  // transmissions (no overlap).
  FakeClient a(&medium_, 0, 2, 2_ms);
  FakeClient b(&medium_, 1, 3, 3_ms);
  a.Register(EdcaFor(AccessCategory::kBestEffort), true);
  b.Register(EdcaFor(AccessCategory::kBestEffort), true);
  a.QueueFrames(4);
  b.QueueFrames(4);
  sim_.RunFor(1_s);
  // Collisions may add retries; busy time must be >= the useful airtime and
  // every completion eventually happened.
  EXPECT_GE(medium_.busy_time(), 4 * 2_ms + 4 * 3_ms);
  EXPECT_EQ(delivered_.size(), 8u);
}

TEST_F(MediumTest, ThroughputFairnessBetweenEqualContenders) {
  // The DCF grants equal transmission opportunities to equally backlogged
  // contenders - the root of the 802.11 anomaly.
  FakeClient a(&medium_, 0, 2, 1_ms);
  FakeClient b(&medium_, 1, 3, 1_ms);
  a.Register(EdcaFor(AccessCategory::kBestEffort), false);
  b.Register(EdcaFor(AccessCategory::kBestEffort), false);
  a.QueueFrames(100000);
  b.QueueFrames(100000);
  sim_.RunFor(2_s);
  EXPECT_GT(a.completions_, 500);
  EXPECT_NEAR(static_cast<double>(a.completions_) / b.completions_, 1.0, 0.1);
}

TEST_F(MediumTest, SlowTransmitterGetsEqualOpportunitiesNotEqualAirtime) {
  // One contender's frames take 10x the airtime; DCF still grants ~equal
  // TXOP counts, so it consumes ~10x the airtime (the anomaly itself).
  FakeClient fast(&medium_, 0, 2, 500_us);
  FakeClient slow(&medium_, 1, 3, 5_ms);
  fast.Register(EdcaFor(AccessCategory::kBestEffort), false);
  slow.Register(EdcaFor(AccessCategory::kBestEffort), false);
  fast.QueueFrames(1000000);
  slow.QueueFrames(1000000);
  sim_.RunFor(3_s);
  EXPECT_NEAR(static_cast<double>(fast.completions_) / slow.completions_, 1.0, 0.15);
  const double airtime_ratio =
      medium_.AirtimeUsed(1).ToSeconds() / medium_.AirtimeUsed(0).ToSeconds();
  EXPECT_NEAR(airtime_ratio, 10.0, 1.5);
}

TEST_F(MediumTest, CollisionsHappenAndAreRetried) {
  // Many persistent contenders with CWmin 15 will collide.
  std::vector<std::unique_ptr<FakeClient>> clients;
  for (int i = 0; i < 8; ++i) {
    clients.push_back(
        std::make_unique<FakeClient>(&medium_, i, static_cast<uint32_t>(10 + i), 300_us));
    clients.back()->Register(EdcaFor(AccessCategory::kBestEffort), false);
    clients.back()->QueueFrames(100000);
  }
  sim_.RunFor(2_s);
  EXPECT_GT(medium_.collisions(), 0);
  int total_collision_feedback = 0;
  for (const auto& c : clients) {
    total_collision_feedback += c->collisions_seen_;
  }
  EXPECT_GT(total_collision_feedback, 0);
  // Collided frames were retried, not lost: everything queued kept flowing.
  EXPECT_GT(delivered_.size(), 1000u);
}

TEST_F(MediumTest, PerMpduErrorsReportedToClient) {
  FakeClient c(&medium_, 0, 2, 1_ms);
  c.Register(EdcaFor(AccessCategory::kBestEffort), true);
  medium_.SetErrorRate(0, 0.5);
  c.QueueFrames(200);
  sim_.RunFor(5_s);
  EXPECT_GT(c.failed_mpdus_, 20);
  EXPECT_GT(medium_.mpdu_errors(), 20);
  // Every frame is eventually delivered via retries.
  EXPECT_EQ(delivered_.size(), 200u);
}

TEST_F(MediumTest, RxAirtimeHandlerFiresForStationTransmissions) {
  std::vector<std::pair<StationId, int64_t>> reports;
  medium_.set_rx_airtime_handler(
      [&reports](StationId s, AccessCategory, TimeUs t) { reports.emplace_back(s, t.us()); });
  FakeClient uplink(&medium_, 4, 1, 2_ms);
  uplink.Register(EdcaFor(AccessCategory::kBestEffort), /*from_ap=*/false);
  FakeClient downlink(&medium_, 5, 2, 2_ms);
  downlink.Register(EdcaFor(AccessCategory::kBestEffort), /*from_ap=*/true);
  uplink.QueueFrames(3);
  downlink.QueueFrames(3);
  sim_.RunFor(1_s);
  // Only the station-originated (non-AP) transmissions are reported.
  ASSERT_EQ(reports.size(), 3u);
  for (const auto& [station, us] : reports) {
    EXPECT_EQ(station, 4);
    EXPECT_EQ(us, 2000);
  }
}

TEST_F(MediumTest, VoiceAccessCategoryWinsContention) {
  // VO's AIFSN 2 / CWmin 3 beats BE's AIFSN 3 / CWmin 15 most of the time.
  FakeClient voice(&medium_, 0, 2, 500_us);
  FakeClient best_effort(&medium_, 1, 3, 500_us);
  voice.Register(EdcaFor(AccessCategory::kVoice), false);
  best_effort.Register(EdcaFor(AccessCategory::kBestEffort), false);
  voice.QueueFrames(1000000);
  best_effort.QueueFrames(1000000);
  sim_.RunFor(2_s);
  EXPECT_GT(voice.completions_, best_effort.completions_ * 2);
}

TEST_F(MediumTest, DecliningClientDoesNotStallMedium) {
  // A client that reports pending but builds nothing must not wedge the
  // contention loop.
  class Decliner : public MediumClient {
   public:
    bool HasPending() override { return first_; }
    TxDescriptor BuildTransmission() override {
      first_ = false;
      return TxDescriptor{};
    }
    void OnTxComplete(TxDescriptor, bool) override {}
    bool first_ = true;
  };
  Decliner d;
  const auto id = medium_.Register(&d, EdcaFor(AccessCategory::kBestEffort), true);
  medium_.NotifyBacklog(id);
  FakeClient c(&medium_, 0, 2, 1_ms);
  c.Register(EdcaFor(AccessCategory::kBestEffort), true);
  c.QueueFrames(3);
  sim_.RunFor(1_s);
  EXPECT_EQ(c.completions_, 3);
}

TEST_F(MediumTest, IdleContendersDoNotChangeGrants) {
  // Medium A registers 130 contenders, of which only five, on both sides of
  // the 64-bit word boundaries, ever queue frames. Medium B registers just
  // those five with the same seed. Idle contenders draw no backoff, so every
  // grant, collision and delivery must match between the two.
  const std::vector<StationId> active = {0, 63, 64, 127, 129};
  const auto duration_of = [](StationId s) { return TimeUs(200 + s); };
  const auto edca_of = [](StationId s) {
    // One video contender: a shorter AIFS, so losers consume unequal slots.
    return EdcaFor(s == 64 ? AccessCategory::kVideo : AccessCategory::kBestEffort);
  };
  std::vector<std::unique_ptr<FakeClient>> a;
  for (StationId s = 0; s < 130; ++s) {
    a.push_back(std::make_unique<FakeClient>(&medium_, s, static_cast<uint32_t>(s),
                                             duration_of(s)));
    a.back()->Register(edca_of(s), /*from_ap=*/false);
  }
  std::vector<uint32_t> delivered_b;
  Simulation sim_b(7);
  WifiMedium medium_b(&sim_b);
  medium_b.set_deliver(
      [&delivered_b](PacketPtr, uint32_t, uint32_t dst) { delivered_b.push_back(dst); });
  std::vector<std::unique_ptr<FakeClient>> b;
  for (StationId s : active) {
    b.push_back(std::make_unique<FakeClient>(&medium_b, s, static_cast<uint32_t>(s),
                                             duration_of(s)));
    b.back()->Register(edca_of(s), /*from_ap=*/false);
  }

  const auto expect_same_grants = [&] {
    for (size_t k = 0; k < active.size(); ++k) {
      const FakeClient& ca = *a[static_cast<size_t>(active[k])];
      const FakeClient& cb = *b[k];
      EXPECT_EQ(ca.built_, cb.built_) << "station " << active[k];
      EXPECT_EQ(ca.completions_, cb.completions_) << "station " << active[k];
      EXPECT_EQ(medium_.AirtimeUsed(active[k]), medium_b.AirtimeUsed(active[k]))
          << "station " << active[k];
    }
    EXPECT_EQ(medium_.transmissions(), medium_b.transmissions());
    EXPECT_EQ(medium_.collisions(), medium_b.collisions());
    EXPECT_EQ(medium_.busy_time(), medium_b.busy_time());
    EXPECT_EQ(delivered_, delivered_b);
  };

  // Every active contender queues a finite burst and drains it.
  for (size_t k = 0; k < active.size(); ++k) {
    a[static_cast<size_t>(active[k])]->QueueFrames(50);
    b[k]->QueueFrames(50);
  }
  sim_.RunFor(1_s);
  sim_b.RunFor(1_s);
  EXPECT_GT(medium_.collisions(), 0);
  for (StationId s = 0; s < 130; ++s) {
    const FakeClient& c = *a[static_cast<size_t>(s)];
    EXPECT_EQ(c.pending_, 0) << "station " << s;
    const bool is_active = std::find(active.begin(), active.end(), s) != active.end();
    EXPECT_EQ(c.built_ > 0, is_active) << "station " << s;
  }
  expect_same_grants();

  // Station 127 drained with the medium idle; a new burst must bring it
  // back into contention and out again.
  FakeClient& a127 = *a[127];
  FakeClient& b127 = *b[3];  // active[3] == 127.
  const int built_before = a127.built_;
  const TimeUs airtime_before = medium_.AirtimeUsed(127);
  a127.QueueFrames(5);
  b127.QueueFrames(5);
  sim_.RunFor(100_ms);
  sim_b.RunFor(100_ms);
  EXPECT_EQ(a127.built_, built_before + 5);
  EXPECT_EQ(a127.pending_, 0);
  EXPECT_EQ(medium_.AirtimeUsed(127), airtime_before + 5 * duration_of(127));
  expect_same_grants();
}

}  // namespace
}  // namespace airfair
