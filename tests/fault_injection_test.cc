// Tests for the fault-injection subsystem (src/fault): schedule parsing,
// Gilbert-Elliott chain determinism, and the injector's churn / burst /
// fade perturbations applied to a live testbed — including the conservation
// property that makes churn auditable: every packet destroyed by a teardown
// is accounted as `drained`, so the ledger still balances mid-churn. The
// last section pins run-level determinism: faulted and traced runs repeat
// byte-for-byte.

#include "src/fault/fault_injector.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/fault/fault_schedule.h"
#include "src/fault/gilbert_elliott.h"
#include "src/net/udp.h"
#include "src/scenario/experiments.h"
#include "src/scenario/testbed.h"
#include "tools/analyze/trace_stats.h"

namespace airfair {
namespace {

using namespace time_literals;

// --- Schedule parsing ---

TEST(FaultSchedule, ParsesEveryEventKind) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultSchedule(
      "leave:1:500;join:1:1500;burst:0:200:300:0.8:50:10;fade:2:100:3:400", &plan,
      &error))
      << error;
  ASSERT_EQ(plan.events.size(), 4u);

  EXPECT_EQ(plan.events[0].kind, FaultKind::kLeave);
  EXPECT_EQ(plan.events[0].station, 1);
  EXPECT_EQ(plan.events[0].at, 500_ms);

  EXPECT_EQ(plan.events[1].kind, FaultKind::kJoin);
  EXPECT_EQ(plan.events[1].at, 1500_ms);

  EXPECT_EQ(plan.events[2].kind, FaultKind::kBurstLoss);
  EXPECT_EQ(plan.events[2].station, 0);
  EXPECT_EQ(plan.events[2].duration, 300_ms);
  EXPECT_DOUBLE_EQ(plan.events[2].p_bad, 0.8);
  EXPECT_EQ(plan.events[2].mean_good, 50_ms);
  EXPECT_EQ(plan.events[2].mean_bad, 10_ms);

  EXPECT_EQ(plan.events[3].kind, FaultKind::kRateFade);
  EXPECT_EQ(plan.events[3].mcs, 3);
  EXPECT_EQ(plan.events[3].restore_after, 400_ms);
}

TEST(FaultSchedule, BurstDwellTimesDefaultWhenOmitted) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultSchedule("burst:0:200:300:0.5", &plan, &error)) << error;
  ASSERT_EQ(plan.events.size(), 1u);
  EXPECT_EQ(plan.events[0].mean_good, 200_ms);
  EXPECT_EQ(plan.events[0].mean_bad, 20_ms);
}

TEST(FaultSchedule, EmptyAndSeparatorOnlySchedulesAreEmptyPlans) {
  FaultPlan plan;
  EXPECT_TRUE(ParseFaultSchedule("", &plan, nullptr));
  EXPECT_TRUE(ParseFaultSchedule(";;", &plan, nullptr));
  EXPECT_TRUE(plan.empty());
}

TEST(FaultSchedule, RejectsMalformedSchedules) {
  const char* bad[] = {
      "teleport:0:100",          // Unknown kind.
      "leave:1",                 // Missing time.
      "leave:x:100",             // Non-numeric station.
      "leave:-1:100",            // Negative station.
      "leave:1:-5",              // Negative time.
      "burst:0:100:50:1.5",      // p_bad outside [0, 1].
      "burst:0:100:50:0.5:0:10", // Zero dwell time.
      "burst:0:100:50",          // Missing probability.
      "fade:0:100",              // Missing MCS.
  };
  for (const char* schedule : bad) {
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(ParseFaultSchedule(schedule, &plan, &error)) << schedule;
    EXPECT_FALSE(error.empty()) << schedule;
  }
}

TEST(FaultSchedule, BuildersMatchParser) {
  FaultPlan built;
  built.Leave(1, 500_ms).Join(1, 1500_ms).Burst(0, 200_ms, 300_ms, 0.8).Fade(2, 100_ms, 3,
                                                                             400_ms);
  FaultPlan parsed;
  ASSERT_TRUE(ParseFaultSchedule(
      "leave:1:500;join:1:1500;burst:0:200:300:0.8;fade:2:100:3:400", &parsed, nullptr));
  ASSERT_EQ(built.events.size(), parsed.events.size());
  for (size_t i = 0; i < built.events.size(); ++i) {
    EXPECT_EQ(built.events[i].kind, parsed.events[i].kind) << i;
    EXPECT_EQ(built.events[i].station, parsed.events[i].station) << i;
    EXPECT_EQ(built.events[i].at, parsed.events[i].at) << i;
  }
}

TEST(FaultSchedule, ChurnSeedPrefersEnvThenDerivesFromTestbedSeed) {
  ::unsetenv("AIRFAIR_CHURN_SEED");
  const uint64_t derived1 = ChurnSeedFromEnv(1);
  const uint64_t derived2 = ChurnSeedFromEnv(2);
  EXPECT_NE(derived1, derived2);  // Nearby seeds get unrelated fault streams.
  EXPECT_NE(derived1, 1u);
  ::setenv("AIRFAIR_CHURN_SEED", "1234", /*overwrite=*/1);
  EXPECT_EQ(ChurnSeedFromEnv(1), 1234u);
  ::unsetenv("AIRFAIR_CHURN_SEED");
}

TEST(FaultSchedule, PlanFromEnvRoundTrips) {
  ::setenv("AIRFAIR_FAULT_SCHEDULE", "leave:0:250;join:0:750", /*overwrite=*/1);
  const FaultPlan plan = FaultPlanFromEnv();
  ::unsetenv("AIRFAIR_FAULT_SCHEDULE");
  ASSERT_EQ(plan.events.size(), 2u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kLeave);
  EXPECT_EQ(plan.events[1].at, 750_ms);
  EXPECT_TRUE(FaultPlanFromEnv().empty());  // Unset: empty plan.
}

// --- Gilbert-Elliott chain ---

TEST(GilbertElliott, StartsGoodAndAlternates) {
  GilbertElliottChain::Config config;
  config.mean_good = 5_ms;
  config.mean_bad = 5_ms;
  config.p_bad = 0.9;
  GilbertElliottChain chain(7, config);
  EXPECT_FALSE(chain.BadAt(TimeUs::Zero()));
  EXPECT_DOUBLE_EQ(chain.LossAt(TimeUs::Zero()), 0.0);
  // Over 200 mean dwells the chain must have flipped, and some instant must
  // be in the bad state carrying p_bad.
  bool saw_bad = false;
  for (int t_ms = 0; t_ms < 1000 && !saw_bad; ++t_ms) {
    saw_bad = chain.BadAt(TimeUs::FromMilliseconds(t_ms));
  }
  EXPECT_TRUE(saw_bad);
  EXPECT_GT(chain.transitions(), 0u);
}

TEST(GilbertElliott, TrajectoryIndependentOfQueryOrder) {
  GilbertElliottChain::Config config;
  config.mean_good = 3_ms;
  config.mean_bad = 2_ms;
  GilbertElliottChain forward(42, config);
  GilbertElliottChain scattered(42, config);
  // Chain B materialises its whole horizon with one far query, then is read
  // backwards; chain A is read forwards. Same seed => same trajectory.
  std::vector<bool> backward_states(500);
  (void)scattered.BadAt(TimeUs::FromMilliseconds(499));
  for (int t_ms = 499; t_ms >= 0; --t_ms) {
    backward_states[static_cast<size_t>(t_ms)] =
        scattered.BadAt(TimeUs::FromMilliseconds(t_ms));
  }
  for (int t_ms = 0; t_ms < 500; ++t_ms) {
    EXPECT_EQ(forward.BadAt(TimeUs::FromMilliseconds(t_ms)),
              backward_states[static_cast<size_t>(t_ms)])
        << "t=" << t_ms << "ms";
  }
  EXPECT_EQ(forward.transitions(), scattered.transitions());
}

TEST(GilbertElliott, DifferentSeedsProduceDifferentTrajectories) {
  GilbertElliottChain::Config config;
  config.mean_good = 3_ms;
  config.mean_bad = 3_ms;
  GilbertElliottChain a(1, config);
  GilbertElliottChain b(2, config);
  bool diverged = false;
  for (int t_ms = 0; t_ms < 2000 && !diverged; ++t_ms) {
    diverged = a.BadAt(TimeUs::FromMilliseconds(t_ms)) !=
               b.BadAt(TimeUs::FromMilliseconds(t_ms));
  }
  EXPECT_TRUE(diverged);
}

// --- Injector against a live testbed ---

// Saturating downlink UDP to every station of a 3-station airtime testbed.
struct ChurnRig {
  explicit ChurnRig(TestbedConfig config, double rate_bps = 20e6) : tb(config) {
    for (int i = 0; i < tb.station_count(); ++i) {
      sinks.push_back(std::make_unique<UdpSink>(tb.station_host(i), 6001));
      UdpSource::Config src;
      src.rate_bps = rate_bps;
      sources.push_back(std::make_unique<UdpSource>(tb.server_host(), tb.station_node(i),
                                                    6001, src));
      sources.back()->Start();
    }
  }

  Testbed tb;
  std::vector<std::unique_ptr<UdpSink>> sinks;
  std::vector<std::unique_ptr<UdpSource>> sources;
};

TestbedConfig ChurnConfig() {
  TestbedConfig config;
  config.scheme = QueueScheme::kAirtimeFair;
  config.seed = 11;
  return config;
}

TEST(FaultInjection, LeaveDetachesAndJoinReattaches) {
  TestbedConfig config = ChurnConfig();
  config.faults = FaultPlan().Leave(0, 500_ms).Join(0, 1500_ms);
  ChurnRig rig(config);
  ASSERT_NE(rig.tb.fault_injector(), nullptr);

  rig.tb.sim().RunFor(400_ms);
  EXPECT_TRUE(rig.tb.stations().IsActive(0));
  EXPECT_FALSE(rig.tb.wifi_station(0)->detached());

  rig.tb.sim().RunFor(600_ms);  // t = 1 s: departed.
  EXPECT_FALSE(rig.tb.stations().IsActive(0));
  EXPECT_TRUE(rig.tb.wifi_station(0)->detached());
  EXPECT_EQ(rig.tb.fault_injector()->leaves_applied(), 1);
  EXPECT_EQ(rig.tb.fault_injector()->joins_applied(), 0);

  rig.tb.sim().RunFor(1000_ms);  // t = 2 s: rejoined.
  EXPECT_TRUE(rig.tb.stations().IsActive(0));
  EXPECT_FALSE(rig.tb.wifi_station(0)->detached());
  EXPECT_EQ(rig.tb.fault_injector()->joins_applied(), 1);
}

TEST(FaultInjection, ChurnDrainsAreAccountedAndLedgerBalances) {
  TestbedConfig config = ChurnConfig();
  // Station 0 is gone for a full second while its source keeps sending: the
  // AP must drain (not drop, not leak) everything addressed to it.
  config.faults = FaultPlan().Leave(0, 300_ms).Join(0, 1300_ms);
  ChurnRig rig(config);
  ASSERT_NE(rig.tb.ledger(), nullptr);
  rig.tb.sim().RunFor(2_s);

  const LedgerTallies tallies = rig.tb.ledger()->Tally();
  EXPECT_EQ(tallies.Imbalance(), 0) << tallies.ToString();
  EXPECT_GT(tallies.drained, 0) << tallies.ToString();
  // Delivery continued for the rejoined station afterwards.
  EXPECT_GT(rig.sinks[0]->bytes_received(), 0);
}

TEST(FaultInjection, RejoinedStationResumesDelivery) {
  TestbedConfig config = ChurnConfig();
  config.faults = FaultPlan().Leave(0, 500_ms).Join(0, 1000_ms);
  ChurnRig rig(config);
  rig.tb.sim().RunFor(1100_ms);
  // Measure post-rejoin only: fresh block-ack sessions on both sides must
  // deliver (a stale sequence space would discard everything as duplicates).
  rig.sinks[0]->StartMeasuring(rig.tb.sim().now());
  rig.tb.sim().RunFor(500_ms);
  EXPECT_GT(rig.sinks[0]->measured_bytes(), 0);
}

TEST(FaultInjection, FadeRewritesRateAndRestores) {
  TestbedConfig config = ChurnConfig();
  // Fade the fast station 0 (MCS 15) down to MCS 0, restoring 400 ms later.
  config.faults = FaultPlan().Fade(0, 300_ms, 0, 400_ms);
  ChurnRig rig(config);
  const double original_mbps = rig.tb.stations().Get(0).rate.Mbps();

  rig.tb.sim().RunFor(500_ms);  // Inside the fade window.
  EXPECT_LT(rig.tb.stations().Get(0).rate.Mbps(), original_mbps / 2);
  EXPECT_EQ(rig.tb.fault_injector()->fades_applied(), 1);

  rig.tb.sim().RunFor(500_ms);  // Past the restore.
  EXPECT_DOUBLE_EQ(rig.tb.stations().Get(0).rate.Mbps(), original_mbps);
}

TEST(FaultInjection, BurstLossReducesDeliveryDeterministically) {
  const auto measured_bytes = [](double p_bad) {
    TestbedConfig config = ChurnConfig();
    if (p_bad > 0) {
      FaultPlan plan;
      plan.Burst(0, 200_ms, 1500_ms, p_bad);
      plan.events.back().mean_good = 5_ms;  // Dense bursts for a short run.
      plan.events.back().mean_bad = 20_ms;
      config.faults = plan;
    }
    ChurnRig rig(config);
    rig.tb.sim().RunFor(200_ms);
    rig.sinks[0]->StartMeasuring(rig.tb.sim().now());
    rig.tb.sim().RunFor(1500_ms);
    if (p_bad > 0) {
      EXPECT_EQ(rig.tb.fault_injector()->bursts_started(), 1);
    }
    return rig.sinks[0]->measured_bytes();
  };
  const int64_t clean = measured_bytes(0.0);
  const int64_t bursty = measured_bytes(0.9);
  EXPECT_GT(clean, 0);
  EXPECT_LT(bursty, clean);
  // Determinism: the same seeded run reproduces byte-for-byte.
  EXPECT_EQ(bursty, measured_bytes(0.9));
}

// --- Windowed Jain semantics under churn ---

TEST(FaultInjection, WindowedJainCountsOnlyPresentStations) {
  // A departed station holds zero airtime by definition, so counting it in
  // the windowed Jain would cap every post-leave window at (N-1)/N — here
  // (0.5 + 0.5)^2 / (3 * (0.25 + 0.25)) = 2/3 with station 0 of 3 gone. The
  // index scores fairness among the stations actually present, so with the
  // two survivors splitting airtime evenly the tail windows land near 1.0.
  const std::string path = ::testing::TempDir() + "churn_jain.jsonl";
  ::setenv("AIRFAIR_TIMESERIES_JSON", path.c_str(), /*overwrite=*/1);
  {
    TestbedConfig config = ChurnConfig();
    config.faults = FaultPlan().Leave(0, 500_ms);  // Gone for the rest.
    // Saturate both survivors (the fast one needs > 70 Mbit/s offered):
    // only a backlogged station claims its full airtime share, and the
    // predicted Jain value assumes an even split between the two.
    ChurnRig rig(config, 80e6);
    rig.tb.sim().RunFor(2_s);
  }  // ~Testbed writes the artifact.
  ::unsetenv("AIRFAIR_TIMESERIES_JSON");

  analyze::TimeseriesData data;
  std::string error;
  ASSERT_TRUE(analyze::LoadTimeseriesJsonl(path, &data, &error)) << error;
  const auto series = data.series.find("airtime_jain");
  ASSERT_NE(series, data.series.end()) << "no airtime_jain series in " << path;
  // Mean over the settled tail: well past the leave plus the 200 ms share
  // window, so every averaged window has station 0 absent throughout.
  double sum = 0.0;
  int count = 0;
  for (const auto& [t_us, value] : series->second) {
    if (t_us >= 1'500'000) {
      sum += value;
      ++count;
    }
  }
  ASSERT_GT(count, 10);
  EXPECT_GT(sum / count, 0.95);
}

// --- Determinism of faulted and traced runs ---

// Short warmup/measure: determinism needs identical dispatch histories, not
// steady state.
ExperimentTiming ShortTiming() {
  ExperimentTiming timing;
  timing.warmup = 100_ms;
  timing.measure = 300_ms;
  return timing;
}

// Every fault kind inside ShortTiming's 400 ms span: a leave/rejoin cycle on
// station 1, a burst-loss window on station 2 and a fade-and-restore on
// station 0.
TestbedConfig EveryFaultKindConfig() {
  TestbedConfig config;
  config.seed = 23;
  config.scheme = QueueScheme::kAirtimeFair;
  config.faults = FaultPlan()
                      .Leave(1, 120_ms)
                      .Join(1, 240_ms)
                      .Burst(2, 150_ms, 80_ms, 0.8)
                      .Fade(0, 180_ms, /*mcs=*/0, /*restore_after=*/120_ms);
  config.churn_seed = 77;  // Pin it: the env fallback would vary per machine.
  return config;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(FaultDeterminism, FaultedTimeseriesRepeatsWithMarksAtScheduledInstants) {
  // The churn analysis pipeline end to end: a faulted run exports the same
  // timeseries bytes every time — including the perturbation marks
  // trace_stats gates reconvergence on — and the marks land at the scheduled
  // instants with the right kind codes.
  const std::string dir = ::testing::TempDir();
  const auto run = [&](const std::string& tag) {
    const std::string path = dir + "faulted_series_" + tag + ".jsonl";
    ::setenv("AIRFAIR_TIMESERIES_JSON", path.c_str(), /*overwrite=*/1);
    RunUdpDownload(EveryFaultKindConfig(), ShortTiming(), 30e6);
    ::unsetenv("AIRFAIR_TIMESERIES_JSON");
    return path;
  };
  const std::string first = run("first");
  const std::string first_bytes = ReadFileBytes(first);
  ASSERT_FALSE(first_bytes.empty());
  EXPECT_EQ(first_bytes, ReadFileBytes(run("second")));

  std::string error;
  analyze::TimeseriesData ts;
  ASSERT_TRUE(analyze::LoadTimeseriesJsonl(first, &ts, &error)) << error;
  const auto marks = ts.series.find(analyze::kPerturbationSeries);
  ASSERT_NE(marks, ts.series.end());
  // Five reconvergence marks: leave, fade apply, burst end, join, fade
  // restore — and one onset mark at the burst start.
  ASSERT_EQ(marks->second.size(), 5u);
  EXPECT_EQ(marks->second[0].first, (120_ms).us());  // leave
  EXPECT_EQ(marks->second[0].second, 1.0);
  EXPECT_EQ(marks->second[1].first, (180_ms).us());  // fade apply
  EXPECT_EQ(marks->second[1].second, 4.0);
  EXPECT_EQ(marks->second[2].first, (230_ms).us());  // burst end
  EXPECT_EQ(marks->second[2].second, 3.0);
  EXPECT_EQ(marks->second[3].first, (240_ms).us());  // join
  EXPECT_EQ(marks->second[3].second, 2.0);
  EXPECT_EQ(marks->second[4].first, (300_ms).us());  // fade restore
  EXPECT_EQ(marks->second[4].second, 4.0);
  const auto onsets = ts.series.find("perturbation_onset");
  ASSERT_NE(onsets, ts.series.end());
  ASSERT_EQ(onsets->second.size(), 1u);
  EXPECT_EQ(onsets->second[0].first, (150_ms).us());  // burst start
  EXPECT_EQ(onsets->second[0].second, 3.0);
}

TEST(TraceDeterminism, TracedTcpRunExportsIdenticalArtifactsPerSeed) {
  // The observability artifacts — the Chrome trace ring, dispatch records
  // included, and the metrics timelines — are part of the determinism
  // contract: the same seed run twice exports the same bytes.
  const std::string dir = ::testing::TempDir();
  struct Artifacts {
    std::string trace;
    std::string series;
  };
  const auto run = [&](const std::string& tag) {
    const Artifacts a{dir + "traced_tcp_" + tag + ".json", dir + "traced_tcp_" + tag + ".jsonl"};
    ::setenv("AIRFAIR_TRACE_JSON", a.trace.c_str(), /*overwrite=*/1);
    ::setenv("AIRFAIR_TIMESERIES_JSON", a.series.c_str(), /*overwrite=*/1);
    TestbedConfig config;
    config.seed = 7;
    config.scheme = QueueScheme::kAirtimeFair;
    RunTcpDownload(config, ShortTiming());
    ::unsetenv("AIRFAIR_TRACE_JSON");
    ::unsetenv("AIRFAIR_TIMESERIES_JSON");
    return a;
  };
  const Artifacts first = run("first");
  const Artifacts second = run("second");

  const std::string trace_bytes = ReadFileBytes(first.trace);
  ASSERT_FALSE(trace_bytes.empty());
  EXPECT_EQ(trace_bytes, ReadFileBytes(second.trace));
  const std::string series_bytes = ReadFileBytes(first.series);
  ASSERT_FALSE(series_bytes.empty());
  EXPECT_EQ(series_bytes, ReadFileBytes(second.series));

  // The artifacts carry a real run, not two empty files.
  std::string error;
  analyze::TraceStats stats;
  ASSERT_TRUE(analyze::LoadChromeTrace(first.trace, &stats, &error)) << error;
  EXPECT_GT(stats.events, 0);
  analyze::TimeseriesData ts;
  ASSERT_TRUE(analyze::LoadTimeseriesJsonl(first.series, &ts, &error)) << error;
  EXPECT_GT(ts.points, 0);
}

}  // namespace
}  // namespace airfair
