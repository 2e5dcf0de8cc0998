// Tests for the runtime invariant-audit subsystem (src/sim/audit.h).
//
// Two layers are covered:
//  * the Auditor itself — sweep cadence, recording, counters, fatal mode;
//  * every invariant class the audit guards — each test corrupts one
//    component through its *ForTesting hook and asserts the corresponding
//    CheckInvariants call reports it (and reported nothing beforehand), and
//    returns exactly the number of violations it reported.
// Finally an integration test runs full Testbed traffic with auditing on and
// a deterministic seed, and requires zero violations across all sweeps.

#include "src/sim/audit.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/aqm/fq_codel.h"
#include "src/core/airtime_scheduler.h"
#include "src/core/codel_adaptation.h"
#include "src/core/mac_queue_backend.h"
#include "src/core/mac_queues.h"
#include "src/mac/reorder.h"
#include "src/net/udp.h"
#include "src/scenario/conservation.h"
#include "src/scenario/testbed.h"
#include "src/sim/simulation.h"
#include "src/util/check.h"
#include "src/util/stats.h"
#include "tests/test_util.h"

namespace airfair {
namespace {

using namespace time_literals;

// Collects violation messages from a component's CheckInvariants call, and
// requires the count it returns to equal the number of messages.
std::vector<std::string> Violations(const std::function<int(const Auditor::FailFn&)>& check) {
  std::vector<std::string> found;
  const int returned = check([&found](const std::string& message) { found.push_back(message); });
  EXPECT_EQ(returned, static_cast<int>(found.size()));
  return found;
}

// ---------------------------------------------------------------------------
// Auditor machinery.

TEST(Auditor, SweepsOnCadenceAndStops) {
  Simulation sim;
  Auditor::Config config;
  config.interval = 10_ms;
  Auditor auditor(&sim.loop(), config);
  int runs = 0;
  auditor.AddCheck("probe", [&runs](const Auditor::FailFn&) { ++runs; });
  auditor.Start();
  EXPECT_TRUE(auditor.running());

  sim.RunFor(105_ms);
  EXPECT_EQ(runs, 10);
  EXPECT_EQ(auditor.passes(), 10);
  EXPECT_EQ(auditor.checks_run(), 10);
  EXPECT_EQ(auditor.violations(), 0);

  auditor.Stop();
  EXPECT_FALSE(auditor.running());
  sim.RunFor(100_ms);
  EXPECT_EQ(runs, 10);  // No further sweeps after Stop.
}

TEST(Auditor, StartIsIdempotent) {
  Simulation sim;
  Auditor::Config config;
  config.interval = 10_ms;
  Auditor auditor(&sim.loop(), config);
  int runs = 0;
  auditor.AddCheck("probe", [&runs](const Auditor::FailFn&) { ++runs; });
  auditor.Start();
  auditor.Start();  // Must not double-schedule.
  sim.RunFor(25_ms);
  EXPECT_EQ(runs, 2);
}

TEST(Auditor, RecordsViolationsWithNamesAndCounters) {
  ResetCounters();
  Simulation sim;
  Auditor::Config config;
  config.fatal = false;
  Auditor auditor(&sim.loop(), config);
  auditor.AddCheck("always_ok", [](const Auditor::FailFn&) {});
  auditor.AddCheck("broken", [](const Auditor::FailFn& fail) {
    fail("first problem");
    fail("second problem");
  });

  EXPECT_EQ(auditor.RunChecksNow(), 2);
  EXPECT_EQ(auditor.violations(), 2);
  ASSERT_EQ(auditor.recorded().size(), 2u);
  EXPECT_EQ(auditor.recorded()[0].check, "broken");
  EXPECT_EQ(auditor.recorded()[0].message, "first problem");
  EXPECT_EQ(auditor.recorded()[1].message, "second problem");

  EXPECT_EQ(GetCounter("audit.violations").value(), 2);
  EXPECT_EQ(GetCounter("audit.violations.broken").value(), 2);
  EXPECT_EQ(GetCounter("audit.checks").value(), 2);
  EXPECT_EQ(GetCounter("audit.passes").value(), 1);
}

TEST(Auditor, RecordCapBoundsMemoryButCountersKeepCounting) {
  Simulation sim;
  Auditor::Config config;
  config.fatal = false;
  config.max_recorded = 3;
  Auditor auditor(&sim.loop(), config);
  auditor.AddCheck("noisy", [](const Auditor::FailFn& fail) {
    for (int i = 0; i < 10; ++i) {
      fail("violation " + std::to_string(i));
    }
  });
  EXPECT_EQ(auditor.RunChecksNow(), 10);
  EXPECT_EQ(auditor.recorded().size(), 3u);
  EXPECT_EQ(auditor.violations(), 10);
}

TEST(Auditor, FatalModeFailsACheckOnViolation) {
  Simulation sim;
  Auditor auditor(&sim.loop());  // fatal = true by default.
  auditor.AddCheck("broken", [](const Auditor::FailFn& fail) { fail("boom"); });

  int check_failures = 0;
  std::string last_message;
  ScopedCheckFailureHandler guard(
      [&](const char*, int, const std::string& message) {
        ++check_failures;
        last_message = message;
      });
  auditor.RunChecksNow();
  EXPECT_EQ(check_failures, 1);
  EXPECT_NE(last_message.find("invariant audit"), std::string::npos) << last_message;
}

TEST(Auditor, WatchEventLoopPassesOnAHealthyLoop) {
  Simulation sim;
  for (int i = 0; i < 20; ++i) {
    sim.PostAfter(TimeUs(100 * (i + 1)), [] {});
  }
  sim.RunFor(550_us);

  Auditor::Config config;
  config.fatal = false;
  Auditor auditor(&sim.loop(), config);
  auditor.WatchEventLoop();
  EXPECT_EQ(auditor.RunChecksNow(), 0);
}

// The event queue's wheel: three events share one bucket, and one waits in
// the far heap. Each corruption is reported exactly once.
class EventLoopAudit : public ::testing::Test {
 protected:
  EventLoopAudit() {
    for (int i = 0; i < 3; ++i) {
      loop_.PostAt(kBucket, [] {});
    }
    loop_.PostAt(TimeUs(3 * EventLoop::kWheelUs), [] {});
  }

  std::vector<std::string> Audit() const {
    return Violations([this](const Auditor::FailFn& fail) { return loop_.CheckInvariants(fail); });
  }

  static constexpr TimeUs kBucket = TimeUs::FromMicroseconds(100);
  EventLoop loop_;
};

TEST_F(EventLoopAudit, CleanStateHasNoViolations) { EXPECT_TRUE(Audit().empty()); }

TEST_F(EventLoopAudit, DetectsABucketRingOutOfSeqOrder) {
  loop_.SwapBucketHeadForTesting(kBucket);
  const std::vector<std::string> found = Audit();
  ASSERT_EQ(found.size(), 1u);
  EXPECT_NE(found[0].find("out of seq order"), std::string::npos) << found[0];
}

TEST_F(EventLoopAudit, DetectsAClearedOccupancyBit) {
  loop_.ClearOccupancyForTesting(kBucket);
  const std::vector<std::string> found = Audit();
  ASSERT_EQ(found.size(), 1u);
  EXPECT_NE(found[0].find("occupancy bit is clear"), std::string::npos) << found[0];
}

TEST(AuditEnvironment, EnvironmentOverridesCompileTimeDefault) {
  // Save and restore whatever the harness set.
  const char* old = std::getenv("AIRFAIR_AUDIT");
  const std::string saved = old != nullptr ? old : "";
  const bool had = old != nullptr;

  setenv("AIRFAIR_AUDIT", "1", 1);
  EXPECT_TRUE(AuditEnabledByDefault());
  setenv("AIRFAIR_AUDIT", "0", 1);
  EXPECT_FALSE(AuditEnabledByDefault());
  unsetenv("AIRFAIR_AUDIT");
#ifdef AIRFAIR_AUDIT
  EXPECT_TRUE(AuditEnabledByDefault());
#else
  EXPECT_FALSE(AuditEnabledByDefault());
#endif

  if (had) {
    setenv("AIRFAIR_AUDIT", saved.c_str(), 1);
  }
}

// ---------------------------------------------------------------------------
// CHECK plumbing used by the audits.

TEST(Check, StreamsContextAndLocationToTheHandler) {
  std::string message;
  const char* file = nullptr;
  ScopedCheckFailureHandler guard(
      [&](const char* f, int, const std::string& m) {
        file = f;
        message = m;
      });
  const int deficit = 999;
  AF_CHECK(deficit <= 100) << " deficit=" << deficit;
  EXPECT_NE(message.find("deficit <= 100"), std::string::npos) << message;
  EXPECT_NE(message.find("deficit=999"), std::string::npos) << message;
  ASSERT_NE(file, nullptr);
  EXPECT_NE(std::string(file).find("sim_audit_test"), std::string::npos);
}

TEST(Check, ComparisonMacrosIncludeBothValues) {
  std::string message;
  ScopedCheckFailureHandler guard(
      [&](const char*, int, const std::string& m) { message = m; });
  AF_CHECK_EQ(2 + 2, 5);
  EXPECT_NE(message.find("(4 vs 5)"), std::string::npos) << message;
}

TEST(Check, TimeProviderStampsFailures) {
  Simulation sim;
  sim.PostAfter(1234_us, [] {});
  sim.RunFor(2000_us);
  SetCheckTimeProvider([&sim] { return sim.now(); });
  std::string message;
  ScopedCheckFailureHandler guard(
      [&](const char*, int, const std::string& m) { message = m; });
  AF_CHECK(false) << " with time";
  SetCheckTimeProvider(nullptr);
  EXPECT_NE(message.find("t=2000us"), std::string::npos) << message;
}

// ---------------------------------------------------------------------------
// Per-component invariant classes: clean state passes, one injected
// corruption per class is detected.

class MacQueuesAudit : public ::testing::Test {
 protected:
  MacQueuesAudit() : queues_([this] { return sim_.now(); }, MacQueues::Config()) {
    for (int i = 0; i < 8; ++i) {
      queues_.Enqueue(MakePacket(1500, static_cast<uint16_t>(1000 + i)), /*station=*/0,
                      /*tid=*/0);
    }
  }

  std::vector<std::string> Audit() const {
    return Violations(
        [this](const Auditor::FailFn& fail) { return queues_.CheckInvariants(fail); });
  }

  Simulation sim_{7};
  MacQueues queues_;
};

TEST_F(MacQueuesAudit, CleanStateHasNoViolations) { EXPECT_TRUE(Audit().empty()); }

TEST_F(MacQueuesAudit, DetectsPacketConservationViolation) {
  queues_.CorruptConservationForTesting();
  EXPECT_FALSE(Audit().empty());
}

TEST_F(MacQueuesAudit, DetectsDeficitOutOfBounds) {
  queues_.CorruptDeficitForTesting();
  EXPECT_FALSE(Audit().empty());
}

TEST_F(MacQueuesAudit, DetectsInvalidCodelState) {
  queues_.CorruptCodelStateForTesting();
  EXPECT_FALSE(Audit().empty());
}

TEST_F(MacQueuesAudit, DetectsTidBacklogMiscount) {
  queues_.CorruptTidBacklogForTesting();
  EXPECT_FALSE(Audit().empty());
}

TEST_F(MacQueuesAudit, DetectsBacklogHeapDisorder) {
  queues_.CorruptBacklogHeapForTesting();
  const std::vector<std::string> found = Audit();
  ASSERT_FALSE(found.empty());
  EXPECT_NE(found[0].find("backlog heap order violated"), std::string::npos) << found[0];
}

TEST(AirtimeSchedulerAudit, DetectsDeficitAboveQuantum) {
  AirtimeScheduler scheduler((AirtimeScheduler::Config()));
  scheduler.MarkBacklogged(/*station=*/0, AccessCategory::kBestEffort);
  scheduler.MarkBacklogged(/*station=*/1, AccessCategory::kBestEffort);
  EXPECT_TRUE(Violations([&](const Auditor::FailFn& fail) {
                return scheduler.CheckInvariants(fail);
              }).empty());

  scheduler.CorruptDeficitForTesting(AccessCategory::kBestEffort);
  EXPECT_FALSE(Violations([&](const Auditor::FailFn& fail) {
                 return scheduler.CheckInvariants(fail);
               }).empty());
}

TEST(AirtimeSchedulerAudit, DetectsDeficitBelowChargeWatermark) {
  AirtimeScheduler scheduler((AirtimeScheduler::Config()));
  scheduler.MarkBacklogged(/*station=*/0, AccessCategory::kBestEffort);
  scheduler.ChargeAirtime(/*station=*/0, AccessCategory::kBestEffort, 1_ms);
  EXPECT_TRUE(Violations([&](const Auditor::FailFn& fail) {
                return scheduler.CheckInvariants(fail);
              }).empty());

  scheduler.CorruptDeficitBelowFloorForTesting(AccessCategory::kBestEffort);
  EXPECT_FALSE(Violations([&](const Auditor::FailFn& fail) {
                 return scheduler.CheckInvariants(fail);
               }).empty());
}

TEST(CodelAdaptationAudit, DetectsHysteresisViolation) {
  Simulation sim;
  CodelAdaptation adaptation([&sim] { return sim.now(); });
  adaptation.UpdateExpectedThroughput(/*station=*/0, 100e6);
  EXPECT_TRUE(Violations([&](const Auditor::FailFn& fail) {
                return adaptation.CheckInvariants(fail);
              }).empty());

  adaptation.CorruptHysteresisForTesting();
  EXPECT_FALSE(Violations([&](const Auditor::FailFn& fail) {
                 return adaptation.CheckInvariants(fail);
               }).empty());
}

TEST(CodelAdaptationAudit, DetectsLowRateStateMismatch) {
  Simulation sim;
  CodelAdaptation adaptation([&sim] { return sim.now(); });
  adaptation.UpdateExpectedThroughput(/*station=*/0, 100e6);
  adaptation.CorruptLowRateStateForTesting(/*station=*/0);
  EXPECT_FALSE(Violations([&](const Auditor::FailFn& fail) {
                 return adaptation.CheckInvariants(fail);
               }).empty());
}

TEST(FqCodelAudit, DetectsConservationViolation) {
  Simulation sim;
  FqCodelQdisc qdisc([&sim] { return sim.now(); }, FqCodelConfig());
  for (int i = 0; i < 8; ++i) {
    qdisc.Enqueue(MakePacket(1500, static_cast<uint16_t>(1000 + i)));
  }
  (void)qdisc.Dequeue();
  EXPECT_TRUE(Violations([&](const Auditor::FailFn& fail) {
                return qdisc.CheckInvariants(fail);
              }).empty());

  qdisc.CorruptConservationForTesting();
  EXPECT_FALSE(Violations([&](const Auditor::FailFn& fail) {
                 return qdisc.CheckInvariants(fail);
               }).empty());
}

TEST(FqCodelAudit, DetectsBacklogHeapDisorder) {
  Simulation sim;
  FqCodelQdisc qdisc([&sim] { return sim.now(); }, FqCodelConfig());
  for (int i = 0; i < 8; ++i) {
    qdisc.Enqueue(MakePacket(1500, static_cast<uint16_t>(1000 + i)));
  }
  EXPECT_TRUE(Violations([&](const Auditor::FailFn& fail) {
                return qdisc.CheckInvariants(fail);
              }).empty());

  qdisc.CorruptBacklogHeapForTesting();
  const std::vector<std::string> found = Violations(
      [&](const Auditor::FailFn& fail) { return qdisc.CheckInvariants(fail); });
  ASSERT_FALSE(found.empty());
  EXPECT_NE(found[0].find("backlog heap order violated"), std::string::npos) << found[0];
}

class ReorderAudit : public ::testing::Test {
 protected:
  ReorderAudit()
      : buffer_(&sim_, [this](PacketPtr packet) { delivered_.push_back(std::move(packet)); }) {
    // Sequence 1 with 0 missing: one frame held, flush timer armed.
    auto p = MakePacket();
    p->mac_seq = 1;
    buffer_.Receive(std::move(p), /*transmitter_node=*/1, /*tid=*/0);
  }

  std::vector<std::string> Audit() const {
    return Violations(
        [this](const Auditor::FailFn& fail) { return buffer_.CheckInvariants(fail); });
  }

  Simulation sim_{11};
  std::vector<PacketPtr> delivered_;
  ReorderBuffer buffer_;
};

TEST_F(ReorderAudit, CleanStateHasNoViolations) { EXPECT_TRUE(Audit().empty()); }

TEST_F(ReorderAudit, DetectsHeldCountMiscount) {
  buffer_.CorruptHeldCountForTesting();
  EXPECT_FALSE(Audit().empty());
}

TEST_F(ReorderAudit, DetectsWindowOverrun) {
  buffer_.CorruptWindowForTesting();
  EXPECT_FALSE(Audit().empty());
}

// ---------------------------------------------------------------------------
// Backend-level registration: RegisterAudits wires the right checks and the
// injected corruption is caught by a real Auditor sweep.

TEST(BackendAudit, RegisteredChecksCatchInjectedCorruption) {
  Simulation sim{3};
  StationTable table;
  table.Add({2, FastStationRate(), "fast"});
  MacQueueBackend::Config config;
  config.airtime_fairness = true;
  MacQueueBackend backend(&sim, &table, /*ap_node_id=*/1, config);
  for (int i = 0; i < 4; ++i) {
    auto p = MakePacket(1500, static_cast<uint16_t>(1000 + i), 2000, 2);
    backend.Enqueue(std::move(p), /*station=*/0);
  }

  Auditor::Config audit_config;
  audit_config.fatal = false;
  Auditor auditor(&sim.loop(), audit_config);
  auditor.WatchEventLoop();
  backend.RegisterAudits(&auditor);
  EXPECT_EQ(auditor.RunChecksNow(), 0);

  backend.queues_for_testing().CorruptConservationForTesting();
  EXPECT_GT(auditor.RunChecksNow(), 0);
  ASSERT_FALSE(auditor.recorded().empty());
  EXPECT_EQ(auditor.recorded().front().check, "mac_queues");
}

// ---------------------------------------------------------------------------
// Integration: a deterministic Testbed run under load with auditing enabled
// must sweep repeatedly and find nothing, for both backend families.

class AuditedRun : public ::testing::TestWithParam<QueueScheme> {};

TEST_P(AuditedRun, FullTrafficRunIsViolationFree) {
  TestbedConfig config;
  config.seed = 42;
  config.scheme = GetParam();
  config.audit = true;  // Force on regardless of build/environment.
  config.audit_config.interval = 10_ms;
  Testbed tb(config);
  ASSERT_NE(tb.auditor(), nullptr);
  ASSERT_NE(tb.ledger(), nullptr);

  // Saturating downlink to all three stations plus an uplink from the slow
  // station — enough load to exercise queues, retries and reordering.
  std::vector<std::unique_ptr<UdpSink>> sinks;
  std::vector<std::unique_ptr<UdpSource>> sources;
  for (int i = 0; i < tb.station_count(); ++i) {
    sinks.push_back(std::make_unique<UdpSink>(tb.station_host(i), 7000));
    UdpSource::Config down;
    down.rate_bps = 40e6;
    sources.push_back(std::make_unique<UdpSource>(
        tb.server_host(), tb.station_node(i), 7000, down));
    sources.back()->Start();
  }
  UdpSink up_sink(tb.server_host(), 7100);
  UdpSource::Config up;
  up.rate_bps = 2e6;
  UdpSource up_source(tb.station_host(2), tb.server_node(), 7100, up);
  up_source.Start();

  tb.sim().RunFor(2_s);

  EXPECT_GT(tb.auditor()->passes(), 100);
  EXPECT_EQ(tb.auditor()->violations(), 0);
  for (const AuditViolation& v : tb.auditor()->recorded()) {
    ADD_FAILURE() << "audit violation [" << v.check << "] at t=" << v.when.us()
                  << "us: " << v.message;
  }

  // The conservation ledger (swept every interval above, including mid-run
  // with packets resident in queues and crossing the medium) also balances
  // exactly at the end, with real traffic on every term of the identity.
  const LedgerTallies tallies = tb.ledger()->Tally();
  EXPECT_GT(tallies.injected, 0);
  EXPECT_GT(tallies.delivered, 0);
  EXPECT_EQ(tallies.Imbalance(), 0) << tallies.ToString();
}

// ---------------------------------------------------------------------------
// Conservation ledger: the identity balances under live traffic (covered
// per-scheme above), an injected leak is caught by the registered check with
// an actionable breakdown, and every testbed builds one.

TEST(ConservationLedger, InjectedLeakIsCaughtWithBreakdown) {
  TestbedConfig config;
  config.seed = 7;
  config.audit = true;
  config.audit_config.fatal = false;  // Inspect the record instead of aborting.
  Testbed tb(config);
  ASSERT_NE(tb.ledger(), nullptr);
  ASSERT_NE(tb.auditor(), nullptr);

  // Real traffic first, so the leak is detected against non-trivial books.
  UdpSink sink(tb.station_host(0), 7000);
  UdpSource::Config down;
  down.rate_bps = 10e6;
  UdpSource source(tb.server_host(), tb.station_node(0), 7000, down);
  source.Start();
  tb.sim().RunFor(200_ms);
  EXPECT_EQ(tb.auditor()->RunChecksNow(), 0);

  // Simulate a layer losing track of three packets.
  tb.ledger()->InjectImbalanceForTesting(3);
  EXPECT_GT(tb.auditor()->RunChecksNow(), 0);
  bool found = false;
  for (const AuditViolation& v : tb.auditor()->recorded()) {
    if (v.check != "conservation") continue;
    found = true;
    EXPECT_NE(v.message.find("imbalance=3"), std::string::npos) << v.message;
    EXPECT_NE(v.message.find("injected="), std::string::npos) << v.message;
  }
  EXPECT_TRUE(found);

  // Direct use of the check outside the auditor reports the same violation.
  tb.ledger()->InjectImbalanceForTesting(-3);  // Back in balance.
  EXPECT_EQ(Violations([&](const Auditor::FailFn& fail) {
              return tb.ledger()->CheckInvariants(fail);
            }).size(),
            0u);
}

TEST(ConservationLedger, EveryTestbedPoolsPacketsAndBuildsTheLedger) {
  {
    Testbed tb(TestbedConfig{});
    EXPECT_NE(tb.server_host()->packet_pool(), nullptr);
    EXPECT_NE(tb.station_host(0)->packet_pool(), nullptr);
    ASSERT_NE(tb.ledger(), nullptr);
    EXPECT_EQ(tb.ledger()->Tally().Imbalance(), 0);
  }

  // A pool-less testbed is a configuration error, reported by a check that
  // names the field.
  std::vector<std::string> failures;
  ScopedCheckFailureHandler guard(
      [&](const char*, int, const std::string& message) { failures.push_back(message); });
  TestbedConfig config;
  config.packet_pool = false;
  Testbed tb(config);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("packet_pool"), std::string::npos) << failures[0];
  EXPECT_NE(tb.ledger(), nullptr);
}

const char* SchemeTestName(const ::testing::TestParamInfo<QueueScheme>& param) {
  switch (param.param) {
    case QueueScheme::kFifo:
      return "Fifo";
    case QueueScheme::kFqCodel:
      return "FqCodel";
    case QueueScheme::kFqMac:
      return "FqMac";
    case QueueScheme::kAirtimeFair:
      return "AirtimeFair";
  }
  return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, AuditedRun,
                         ::testing::Values(QueueScheme::kFifo, QueueScheme::kFqCodel,
                                           QueueScheme::kFqMac, QueueScheme::kAirtimeFair),
                         SchemeTestName);

}  // namespace
}  // namespace airfair
