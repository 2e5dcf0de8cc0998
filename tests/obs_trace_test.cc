// Tests for the observability subsystem (src/obs): the flight-recorder
// TraceBuffer (ring semantics, macro gate), the Timeseries
// metrics layer, the exporters' output formats, and — the property the
// whole design rests on — that tracing never changes simulation results:
// a traced run is bit-identical to an untraced run of the same scenario
// and seed.

#include "src/obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/net/udp.h"
#include "src/obs/export.h"
#include "src/obs/timeseries.h"
#include "src/scenario/testbed.h"
#include "src/util/check.h"

namespace airfair {
namespace {

using namespace time_literals;

// ---------------------------------------------------------------------------
// TraceBuffer ring semantics.

TEST(TraceBuffer, AppendStoresAllFields) {
  TraceBuffer buffer;
  buffer.Append(TimeUs(123), TraceEventType::kEnqueue, 2, 1, 1500, 7, 0);
  ASSERT_EQ(buffer.size(), 1u);
  const auto records = buffer.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].t_us, 123);
  EXPECT_EQ(records[0].type, static_cast<uint16_t>(TraceEventType::kEnqueue));
  EXPECT_EQ(records[0].station, 2);
  EXPECT_EQ(records[0].tid, 1);
  EXPECT_EQ(records[0].a0, 1500);
  EXPECT_EQ(records[0].a1, 7);
  EXPECT_EQ(records[0].a2, 0);
}

TEST(TraceBuffer, CapacityRoundsUpToPowerOfTwo) {
  TraceBuffer::Config config;
  config.capacity = 5;
  TraceBuffer buffer(config);
  EXPECT_EQ(buffer.capacity(), 8u);
}

TEST(TraceBuffer, RingOverwritesOldestAndKeepsTail) {
  TraceBuffer::Config config;
  config.capacity = 8;
  TraceBuffer buffer(config);
  for (int i = 0; i < 20; ++i) {
    buffer.Append(TimeUs(i), TraceEventType::kDispatch, -1, -1, i, 0, 0);
  }
  EXPECT_EQ(buffer.total_appended(), 20u);
  EXPECT_EQ(buffer.size(), 8u);
  EXPECT_EQ(buffer.overwritten(), 12u);
  // The resident records are exactly the newest 8, oldest-first.
  const auto records = buffer.Snapshot();
  ASSERT_EQ(records.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(records[static_cast<size_t>(i)].a0, 12 + i);
  }
}

// ---------------------------------------------------------------------------
// Macro gate and buffer installation.

TEST(TraceMacros, AppendThroughMacroWhenBufferInstalled) {
  TraceBuffer buffer;
  ScopedTraceBuffer scope(&buffer);
  AF_TRACE_ENQUEUE(TimeUs(10), 1, 0, 1500, 3);
  AF_TRACE_TX_END(TimeUs(20), 1, 2800, 32, 0);
  ASSERT_EQ(buffer.total_appended(), 2u);
  const auto records = buffer.Snapshot();
  EXPECT_EQ(records[0].type, static_cast<uint16_t>(TraceEventType::kEnqueue));
  EXPECT_EQ(records[1].type, static_cast<uint16_t>(TraceEventType::kTxEnd));
  EXPECT_EQ(records[1].a0, 2800);
}

TEST(TraceMacros, NoOpWithoutInstalledBuffer) {
  ScopedTraceBuffer scope(nullptr);
  // Must not crash; there is nowhere for the record to go.
  AF_TRACE_ENQUEUE(TimeUs(10), 1, 0, 1500, 3);
  EXPECT_EQ(CurrentTraceBuffer(), nullptr);
}

TEST(TraceMacros, ScopedInstallRestoresPrevious) {
  TraceBuffer outer;
  ScopedTraceBuffer outer_scope(&outer);
  {
    TraceBuffer inner;
    ScopedTraceBuffer inner_scope(&inner);
    EXPECT_EQ(CurrentTraceBuffer(), &inner);
  }
  EXPECT_EQ(CurrentTraceBuffer(), &outer);
}

TEST(TraceMacros, AppendNowUsesInstalledClock) {
  TraceBuffer buffer;
  TimeUs now(4242);
  buffer.set_clock([&now] { return now; });
  buffer.AppendNow(TraceEventType::kSchedPick, 0, -1, 500, 1, 0);
  const auto records = buffer.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].t_us, 4242);
}

// ---------------------------------------------------------------------------
// Timeseries.

TEST(Timeseries, SeriesRegistrationIsIdempotent) {
  Timeseries ts;
  const int a = ts.Series("airtime_jain");
  const int b = ts.Series("queue_depth");
  EXPECT_NE(a, b);
  EXPECT_EQ(ts.Series("airtime_jain"), a);
  EXPECT_EQ(ts.series_count(), 2);
  EXPECT_EQ(ts.name(a), "airtime_jain");
}

TEST(Timeseries, RecordAppendsPointsInOrder) {
  Timeseries ts;
  const int id = ts.Series("s");
  ts.Record(id, TimeUs(10), 0.5);
  ts.Record(id, TimeUs(20), 0.75);
  const auto& points = ts.points(id);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].t_us, 10);
  EXPECT_DOUBLE_EQ(points[1].value, 0.75);
  EXPECT_EQ(ts.total_points(), 2u);
  EXPECT_FALSE(ts.empty());
}

// ---------------------------------------------------------------------------
// Exporters.

TEST(ChromeExport, EmitsMetadataSlicesAndInstants) {
  TraceBuffer buffer;
  buffer.Append(TimeUs(5000), TraceEventType::kTxEnd, 1, -1, 2800, 32, 0);
  buffer.Append(TimeUs(6000), TraceEventType::kDeliver, 1, 0, 1200, 1500, 0);
  buffer.Append(TimeUs(7000), TraceEventType::kCollision, -1, -1, 2, 60, 0);
  ChromeTraceMetadata meta;
  meta.process_name = "medium0 test";
  meta.station_names = {"fast0", "fast1"};
  std::ostringstream out;
  WriteChromeTrace(buffer, meta, out);
  const std::string json = out.str();
  // Container and metadata.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("medium0 test"), std::string::npos);
  EXPECT_NE(json.find("fast1"), std::string::npos);
  // The tx slice: complete event, duration 2800, start backdated to t-dur.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2800"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":2200"), std::string::npos);
  // The deliver instant on station 1's track.
  EXPECT_NE(json.find("\"deliver\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  // The collision instant lands on the global track.
  EXPECT_NE(json.find("\"tid\":999"), std::string::npos);
}

TEST(ChromeExport, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("line\nbreak"), "line\\nbreak");
}

TEST(TimeseriesExport, JsonlOneObjectPerLineWithRunLabel) {
  Timeseries ts;
  const int id = ts.Series("airtime_jain");
  ts.Record(id, TimeUs(10000), 0.98);
  ts.Record(id, TimeUs(20000), 1.0);
  std::ostringstream out;
  WriteTimeseriesJsonl(ts, "Airtime n=3 seed=1", out);
  const std::string text = out.str();
  // Two lines, each a flat object carrying the run label.
  int lines = 0;
  for (const char c : text) {
    lines += c == '\n' ? 1 : 0;
  }
  EXPECT_EQ(lines, 2);
  EXPECT_NE(text.find("\"t_us\":10000"), std::string::npos);
  EXPECT_NE(text.find("\"series\":\"airtime_jain\""), std::string::npos);
  EXPECT_NE(text.find("\"value\":"), std::string::npos);
  EXPECT_NE(text.find("Airtime n=3 seed=1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The zero-perturbation guarantee: tracing must not change results.

struct RunOutcome {
  int64_t sink_packets = 0;
  int64_t sink_bytes = 0;
  int64_t transmissions = 0;
  int64_t collisions = 0;
  int64_t mpdu_errors = 0;
  double jain = 0.0;

  bool operator==(const RunOutcome& o) const {
    return sink_packets == o.sink_packets && sink_bytes == o.sink_bytes &&
           transmissions == o.transmissions && collisions == o.collisions &&
           mpdu_errors == o.mpdu_errors && jain == o.jain;
  }
};

RunOutcome RunScenario(QueueScheme scheme, bool trace) {
  TestbedConfig config;
  config.seed = 7;
  config.scheme = scheme;
  config.trace = trace;
  // A small ring exercises overwrite during the run as well.
  config.trace_config.capacity = 1 << 10;
  Testbed tb(config);

  UdpSink sink(tb.station_host(0), 6001);
  UdpSource::Config down;
  down.rate_bps = 20e6;
  UdpSource source(tb.server_host(), tb.station_node(0), 6001, down);
  source.Start();
  UdpSink up_sink(tb.server_host(), 6002);
  UdpSource::Config up;
  up.rate_bps = 2e6;
  UdpSource up_source(tb.station_host(2), tb.server_node(), 6002, up);
  up_source.Start();

  tb.StartMeasurement();
  tb.sim().RunFor(1_s);

  RunOutcome out;
  out.sink_packets = sink.packets_received() + up_sink.packets_received();
  out.sink_bytes = sink.bytes_received() + up_sink.bytes_received();
  out.transmissions = tb.medium().transmissions();
  out.collisions = tb.medium().collisions();
  out.mpdu_errors = tb.medium().mpdu_errors();
  out.jain = tb.JainAirtimeIndex();
  if (trace) {
    // The traced run must actually have traced something, or the test
    // compares nothing.
    EXPECT_NE(tb.trace_buffer(), nullptr);
    EXPECT_GT(tb.trace_buffer()->total_appended(), 0u);
    EXPECT_NE(tb.timeseries(), nullptr);
    EXPECT_FALSE(tb.timeseries()->empty());
  } else {
    EXPECT_EQ(tb.trace_buffer(), nullptr);
  }
  return out;
}

class TraceBitIdentity : public ::testing::TestWithParam<QueueScheme> {};

TEST_P(TraceBitIdentity, TracedRunMatchesUntracedRun) {
  const RunOutcome untraced = RunScenario(GetParam(), /*trace=*/false);
  const RunOutcome traced = RunScenario(GetParam(), /*trace=*/true);
  EXPECT_TRUE(traced == untraced)
      << "traced: pkts=" << traced.sink_packets << " tx=" << traced.transmissions
      << " coll=" << traced.collisions << " jain=" << traced.jain
      << " | untraced: pkts=" << untraced.sink_packets
      << " tx=" << untraced.transmissions << " coll=" << untraced.collisions
      << " jain=" << untraced.jain;
  EXPECT_GT(untraced.sink_packets, 0);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, TraceBitIdentity,
                         ::testing::Values(QueueScheme::kFifo, QueueScheme::kFqCodel,
                                           QueueScheme::kFqMac,
                                           QueueScheme::kAirtimeFair));

// ---------------------------------------------------------------------------
// Testbed integration: buffer installation and the flight recorder.

TEST(TestbedTrace, InstallsBufferFlightRecorderAndSamplesSeries) {
  TestbedConfig config;
  config.seed = 5;
  config.scheme = QueueScheme::kAirtimeFair;
  config.trace = true;
  {
    Testbed tb(config);
    EXPECT_EQ(CurrentTraceBuffer(), tb.trace_buffer());

    // The testbed armed the crash flight recorder; invoking it dumps the
    // trace tail to stderr without dying.
    CheckFlightRecorder recorder = SetCheckFlightRecorder(nullptr);
    EXPECT_TRUE(recorder != nullptr);
    recorder();
    SetCheckFlightRecorder(std::move(recorder));

    UdpSink sink(tb.station_host(0), 6001);
    UdpSource::Config down;
    down.rate_bps = 10e6;
    UdpSource source(tb.server_host(), tb.station_node(0), 6001, down);
    source.Start();
    tb.sim().RunFor(200_ms);

    ASSERT_NE(tb.timeseries(), nullptr);
    Timeseries& ts = *tb.timeseries();
    const int jain = ts.Series("airtime_jain");
    const int depth = ts.Series("queue_depth_packets");
    EXPECT_GT(ts.points(jain).size() + ts.points(depth).size(), 0u);
  }
  // Destruction uninstalled the buffer.
  EXPECT_EQ(CurrentTraceBuffer(), nullptr);
}

// The sampler's latency series and the ring's kDeliver records describe the
// same deliveries: a station has latency points exactly when the ring names
// it in a kDeliver record, and every windowed p50 and p99 lies within that
// station's recorded latency range.
TEST(TestbedTrace, LatencySeriesMatchDeliverRecords) {
  TestbedConfig config;
  config.seed = 3;
  config.scheme = QueueScheme::kAirtimeFair;
  config.trace = true;
  config.trace_config.capacity = size_t{1} << 18;  // Must not wrap below.
  Testbed tb(config);

  UdpSink sink(tb.station_host(0), 6001);
  UdpSource::Config down;
  down.rate_bps = 20e6;
  UdpSource source(tb.server_host(), tb.station_node(0), 6001, down);
  source.Start();
  UdpSink up_sink(tb.server_host(), 6002);
  UdpSource::Config up;
  up.rate_bps = 2e6;
  UdpSource up_source(tb.station_host(2), tb.server_node(), 6002, up);
  up_source.Start();
  tb.sim().RunFor(300_ms);

  const TraceBuffer& ring = *tb.trace_buffer();
  ASSERT_EQ(ring.overwritten(), 0u) << "the ring wrapped; enlarge it";
  const size_t n = static_cast<size_t>(tb.station_count());
  std::vector<int64_t> min_us(n, INT64_MAX);
  std::vector<int64_t> max_us(n, INT64_MIN);
  std::set<size_t> delivered;
  ring.ForEach([&](const TraceRecord& rec) {
    if (rec.type != static_cast<uint16_t>(TraceEventType::kDeliver)) {
      return;
    }
    const size_t station = static_cast<size_t>(rec.station);
    ASSERT_LT(station, n);
    delivered.insert(station);
    min_us[station] = std::min(min_us[station], rec.a0);
    max_us[station] = std::max(max_us[station], rec.a0);
  });
  EXPECT_EQ(delivered, (std::set<size_t>{0, 2}));

  Timeseries& ts = *tb.timeseries();
  std::set<size_t> sampled;
  for (size_t i = 0; i < n; ++i) {
    const std::string& name = tb.stations().Get(static_cast<StationId>(i)).name;
    if (!ts.points(ts.Series("latency_p95_us." + name)).empty()) {
      sampled.insert(i);
    }
    for (const char* quantile : {"latency_p50_us.", "latency_p99_us."}) {
      const auto& points = ts.points(ts.Series(quantile + name));
      if (!points.empty()) {
        sampled.insert(i);
      }
      for (const Timeseries::Point& p : points) {
        EXPECT_GE(p.value, static_cast<double>(min_us[i])) << quantile << name << " t=" << p.t_us;
        EXPECT_LE(p.value, static_cast<double>(max_us[i])) << quantile << name << " t=" << p.t_us;
      }
    }
  }
  EXPECT_EQ(sampled, delivered);
}

}  // namespace
}  // namespace airfair
