// Tests for the fault-injection subsystem (src/fault): schedule parsing and
// the injector's churn perturbations applied to a live testbed — including
// the conservation property that makes churn auditable: every packet
// destroyed by a teardown is accounted as `drained`, so the ledger still
// balances mid-churn. The last section pins run-level determinism: faulted
// and traced runs repeat byte-for-byte.

#include "src/fault/fault_injector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/fault/fault_schedule.h"
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
  ASSERT_TRUE(ParseFaultSchedule("leave:1:500;join:2:1500", &plan, &error)) << error;
  ASSERT_EQ(plan.events.size(), 2u);

  EXPECT_EQ(plan.events[0].kind, FaultKind::kLeave);
  EXPECT_EQ(plan.events[0].station, 1);
  EXPECT_EQ(plan.events[0].at, 500_ms);

  EXPECT_EQ(plan.events[1].kind, FaultKind::kJoin);
  EXPECT_EQ(plan.events[1].station, 2);
  EXPECT_EQ(plan.events[1].at, 1500_ms);
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
      "join:1:100:5",            // Extra field.
      "burst:0:200:300:0.5",     // Burst loss is not a fault kind.
      "fade:2:100:3:400",        // Nor is a rate fade.
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
  built.Leave(1, 500_ms).Join(1, 1500_ms).Leave(0, 2000_ms);
  FaultPlan parsed;
  ASSERT_TRUE(ParseFaultSchedule("leave:1:500;join:1:1500;leave:0:2000", &parsed, nullptr));
  ASSERT_EQ(built.events.size(), parsed.events.size());
  for (size_t i = 0; i < built.events.size(); ++i) {
    EXPECT_EQ(built.events[i].kind, parsed.events[i].kind) << i;
    EXPECT_EQ(built.events[i].station, parsed.events[i].station) << i;
    EXPECT_EQ(built.events[i].at, parsed.events[i].at) << i;
  }
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

// --- A departed station gets no airtime ---

class DepartedStationAirtime : public ::testing::TestWithParam<QueueScheme> {};

TEST_P(DepartedStationAirtime, StaysConstantUntilTheJoin) {
  // The slow station leaves under saturating downlink. The TXOP already on
  // the air finishes; after that the station's airtime must not grow until
  // it rejoins. The baseline qdiscs cannot flush a station's packets, so the
  // AP must drain what they still hold for it instead of transmitting it.
  constexpr StationId kSlow = 2;
  TestbedConfig config = ChurnConfig();
  config.scheme = GetParam();
  config.faults = FaultPlan().Leave(kSlow, 500_ms).Join(kSlow, 1500_ms);
  ChurnRig rig(config);
  rig.tb.sim().RunFor(520_ms);  // The leave, and the TXOP in flight at it.
  ASSERT_FALSE(rig.tb.stations().IsActive(kSlow));
  const TimeUs after_leave = rig.tb.medium().AirtimeUsed(kSlow);
  EXPECT_GT(after_leave, TimeUs::Zero());

  rig.tb.sim().RunFor(975_ms);  // t = 1495 ms, just before the join.
  ASSERT_FALSE(rig.tb.stations().IsActive(kSlow));
  EXPECT_EQ(rig.tb.medium().AirtimeUsed(kSlow), after_leave);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, DepartedStationAirtime,
                         ::testing::Values(QueueScheme::kFifo, QueueScheme::kFqCodel,
                                           QueueScheme::kFqMac, QueueScheme::kAirtimeFair),
                         [](const ::testing::TestParamInfo<QueueScheme>& param) {
                           std::string name = SchemeName(param.param);
                           name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
                           return name;
                         });

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

// Two overlapping leave/rejoin cycles inside ShortTiming's 400 ms span:
// station 1 is away from 120 to 240 ms and station 2 from 180 to 300 ms.
TestbedConfig OverlappingChurnConfig() {
  TestbedConfig config;
  config.seed = 23;
  config.scheme = QueueScheme::kAirtimeFair;
  config.faults =
      FaultPlan().Leave(1, 120_ms).Leave(2, 180_ms).Join(1, 240_ms).Join(2, 300_ms);
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
    RunUdpDownload(OverlappingChurnConfig(), ShortTiming(), 30e6);
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
  // One mark per churn event, valued by its 1-based FaultKind code.
  const std::vector<std::pair<TimeUs, double>> expected = {
      {120_ms, 1.0}, {180_ms, 1.0}, {240_ms, 2.0}, {300_ms, 2.0}};
  ASSERT_EQ(marks->second.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(marks->second[i].first, expected[i].first.us()) << i;
    EXPECT_EQ(marks->second[i].second, expected[i].second) << i;
  }
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
