// Tests for the trace analyzer (tools/analyze/trace_stats.h), including
// the round trip that matters for CI: artifacts written by the src/obs
// exporters parse back into the statistics trace_stats reports.

#include "tools/analyze/trace_stats.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/obs/export.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"
#include "src/util/time.h"

namespace airfair {
namespace analyze {
namespace {

TEST(ParseChromeTrace, ExtractsSlicesInstantsAndTallies) {
  const std::string json = R"({"traceEvents":[
    {"name":"process_name","ph":"M","pid":0,"args":{"name":"medium0"}},
    {"name":"tx","ph":"X","pid":0,"tid":0,"ts":100,"dur":2800,
     "args":{"mpdus_ok":32,"mpdus_lost":0}},
    {"name":"tx","ph":"X","pid":0,"tid":2,"ts":3000,"dur":13000,
     "args":{"mpdus_ok":4,"mpdus_lost":1}},
    {"name":"dequeue","ph":"i","s":"t","pid":0,"tid":0,"ts":90,
     "args":{"sojourn_us":1500,"depth":3}},
    {"name":"deliver","ph":"i","s":"t","pid":0,"tid":0,"ts":3100,
     "args":{"latency_us":2100,"bytes":1500}},
    {"name":"codel_drop","ph":"i","s":"t","pid":0,"tid":2,"ts":5000,
     "args":{"sojourn_us":9000,"drops":1}},
    {"name":"overflow_drop","ph":"i","s":"t","pid":0,"tid":2,"ts":5100,
     "args":{"depth":1000,"bytes":1500}},
    {"name":"duplicate_drop","ph":"i","s":"t","pid":0,"tid":2,"ts":5200,
     "args":{"mac_seq":17,"x":0}},
    {"name":"collision","ph":"i","s":"t","pid":0,"tid":999,"ts":5300,
     "args":{"contenders":2,"penalty_us":60}}
  ]})";
  TraceStats stats;
  std::string error;
  ASSERT_TRUE(ParseChromeTrace(json, &stats, &error)) << error;
  EXPECT_EQ(stats.events, 9);
  ASSERT_EQ(stats.tx_us.size(), 2u);
  EXPECT_DOUBLE_EQ(stats.tx_us[0], 2800.0);
  EXPECT_DOUBLE_EQ(stats.tx_us[1], 13000.0);
  ASSERT_EQ(stats.sojourn_us.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.sojourn_us[0], 1500.0);
  ASSERT_EQ(stats.latency_us.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.latency_us[0], 2100.0);
  EXPECT_DOUBLE_EQ(stats.tx_airtime_us[0], 2800.0);
  EXPECT_DOUBLE_EQ(stats.tx_airtime_us[2], 13000.0);
  EXPECT_EQ(stats.tx_slices[0], 1);
  EXPECT_EQ(stats.codel_drops, 1);
  EXPECT_EQ(stats.overflow_drops, 1);
  EXPECT_EQ(stats.duplicate_drops, 1);
  EXPECT_EQ(stats.collisions, 1);
}

TEST(ParseChromeTrace, RejectsMalformedInput) {
  TraceStats stats;
  std::string error;
  EXPECT_FALSE(ParseChromeTrace("not json", &stats, &error));
  EXPECT_FALSE(error.empty());
  // Valid JSON but no traceEvents array is also malformed.
  EXPECT_FALSE(ParseChromeTrace(R"({"foo":1})", &stats, &error));
}

// The CI contract: what the exporter writes, the analyzer loads.
TEST(ParseChromeTrace, RoundTripsExporterOutput) {
  TraceBuffer buffer;
  buffer.Append(TimeUs(5000), TraceEventType::kTxEnd, 0, -1, 2800, 32, 0);
  buffer.Append(TimeUs(5100), TraceEventType::kDequeue, 0, 0, 900, 2, 0);
  buffer.Append(TimeUs(6000), TraceEventType::kDeliver, 0, 0, 1800, 1500, 0);
  buffer.Append(TimeUs(7000), TraceEventType::kCollision, -1, -1, 2, 60, 0);
  ChromeTraceMetadata meta;
  meta.station_names = {"fast0"};
  std::ostringstream out;
  WriteChromeTrace(buffer, meta, out);

  TraceStats stats;
  std::string error;
  ASSERT_TRUE(ParseChromeTrace(out.str(), &stats, &error)) << error;
  ASSERT_EQ(stats.tx_us.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.tx_us[0], 2800.0);
  ASSERT_EQ(stats.sojourn_us.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.sojourn_us[0], 900.0);
  ASSERT_EQ(stats.latency_us.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.latency_us[0], 1800.0);
  EXPECT_EQ(stats.collisions, 1);
  EXPECT_DOUBLE_EQ(stats.tx_airtime_us[0], 2800.0);
}

TEST(ParseTimeseriesJsonl, GroupsPointsBySeries) {
  const std::string jsonl =
      "{\"t_us\":1000,\"series\":\"airtime_jain\",\"value\":0.5,\"run\":\"x\"}\n"
      "{\"t_us\":2000,\"series\":\"airtime_jain\",\"value\":0.99,\"run\":\"x\"}\n"
      "{\"t_us\":1000,\"series\":\"queue_depth_packets\",\"value\":12,\"run\":\"x\"}\n";
  TimeseriesData data;
  std::string error;
  ASSERT_TRUE(ParseTimeseriesJsonl(jsonl, &data, &error)) << error;
  EXPECT_EQ(data.points, 3);
  ASSERT_EQ(data.series.count("airtime_jain"), 1u);
  ASSERT_EQ(data.series.at("airtime_jain").size(), 2u);
  EXPECT_EQ(data.series.at("airtime_jain")[1].first, 2000);
  EXPECT_DOUBLE_EQ(data.series.at("airtime_jain")[1].second, 0.99);
}

TEST(ParseTimeseriesJsonl, RejectsMalformedLine) {
  TimeseriesData data;
  std::string error;
  EXPECT_FALSE(ParseTimeseriesJsonl(
      "{\"t_us\":1,\"series\":\"j\",\"value\":0.5}\nnot json\n", &data, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  // Valid JSON without the timeseries fields is malformed too.
  TimeseriesData other;
  EXPECT_FALSE(ParseTimeseriesJsonl("{\"nope\":1}\n", &other, &error));
}

TEST(ParseTimeseriesJsonl, RoundTripsExporterOutput) {
  Timeseries ts;
  const int jain = ts.Series("airtime_jain");
  ts.Record(jain, TimeUs(10000), 0.91);
  ts.Record(jain, TimeUs(20000), 0.97);
  std::ostringstream out;
  WriteTimeseriesJsonl(ts, "Airtime n=3 seed=1", out);

  TimeseriesData data;
  std::string error;
  ASSERT_TRUE(ParseTimeseriesJsonl(out.str(), &data, &error)) << error;
  ASSERT_EQ(data.series.count("airtime_jain"), 1u);
  const auto& points = data.series.at("airtime_jain");
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].first, 10000);
  EXPECT_DOUBLE_EQ(points[0].second, 0.91);
  EXPECT_DOUBLE_EQ(points[1].second, 0.97);
}

TEST(ConvergenceTime, FindsStartOfFinalRunAboveThreshold) {
  TimeseriesData data;
  data.series["j"] = {{1000, 0.5}, {2000, 0.96}, {3000, 0.93}, {4000, 0.97}, {5000, 0.99}};
  // The dip at 3000 resets the run: convergence is 4000, not 2000.
  EXPECT_EQ(ConvergenceTimeUs(data, "j", 0.95), 4000);
}

TEST(ConvergenceTime, WholeSeriesAboveThresholdConvergesAtFirstSample) {
  TimeseriesData data;
  data.series["j"] = {{1000, 0.99}, {2000, 1.0}};
  EXPECT_EQ(ConvergenceTimeUs(data, "j", 0.95), 1000);
}

TEST(ConvergenceTime, NeverConvergesAndMissingSeriesReturnMinusOne) {
  TimeseriesData data;
  data.series["j"] = {{1000, 0.99}, {2000, 0.5}};  // Ends below threshold.
  EXPECT_EQ(ConvergenceTimeUs(data, "j", 0.95), -1);
  EXPECT_EQ(ConvergenceTimeUs(data, "absent", 0.95), -1);
  data.series["empty"] = {};
  EXPECT_EQ(ConvergenceTimeUs(data, "empty", 0.95), -1);
}

TEST(PerturbationReconvergenceTest, SegmentsBetweenMarksRecoverIndependently) {
  TimeseriesData data;
  data.series["airtime_jain"] = {{1000, 0.98}, {2000, 0.97},  // Pre-perturbation.
                                 {3000, 0.70}, {4000, 0.85}, {5000, 0.96},  // Leave dip.
                                 {7000, 0.60}, {8000, 0.97}, {9000, 0.99}};  // Join dip.
  data.series[kPerturbationSeries] = {{2500, 1.0}, {6000, 2.0}};
  const auto results = PerturbationReconvergence(data, "airtime_jain", 0.95);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].mark_us, 2500);
  EXPECT_DOUBLE_EQ(results[0].kind_code, 1.0);
  // Segment (2500, 6000]: the dip at 3000-4000 pushes recovery to 5000.
  EXPECT_EQ(results[0].reconverged_at_us, 5000);
  EXPECT_EQ(results[0].reconvergence_us, 2500);
  // Segment (6000, end]: recovery from 8000 onward.
  EXPECT_EQ(results[1].reconverged_at_us, 8000);
  EXPECT_EQ(results[1].reconvergence_us, 2000);
}

TEST(PerturbationReconvergenceTest, SegmentSamplesTellEmptyFromUnrecovered) {
  TimeseriesData data;
  // A leave at 2500 that recovers, a join at 6000 whose segment ends below
  // the threshold (the 0.50 sample on the join instant belongs to neither
  // segment), and a trailing leave at 9000 with no samples after it.
  data.series["airtime_jain"] = {{1000, 0.98}, {2000, 0.97}, {3000, 0.70},
                                 {3500, 0.80}, {4500, 0.96}, {5500, 0.99},
                                 {6000, 0.50}, {7000, 0.97}, {8000, 0.60}};
  data.series[kPerturbationSeries] = {{2500, 1.0}, {6000, 2.0}, {9000, 1.0}};
  const auto results = PerturbationReconvergence(data, "airtime_jain", 0.95);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].segment_samples, 4);
  EXPECT_EQ(results[0].reconverged_at_us, 4500);
  EXPECT_EQ(results[1].segment_samples, 2);
  EXPECT_EQ(results[1].reconverged_at_us, -1);
  EXPECT_EQ(results[2].segment_samples, 0);
  EXPECT_EQ(results[2].reconverged_at_us, -1);
  std::ostringstream out;
  PrintPerturbationReport(data, "airtime_jain", 0.95, out);
  EXPECT_NE(out.str().find("no reconvergence (no samples after mark)"), std::string::npos)
      << out.str();
}

TEST(PerturbationReconvergenceTest, UnrecoveredSegmentReportsMinusOne) {
  TimeseriesData data;
  data.series["airtime_jain"] = {{3000, 0.99}, {4000, 0.60}};
  data.series[kPerturbationSeries] = {{2500, 1.0}};
  const auto results = PerturbationReconvergence(data, "airtime_jain", 0.95);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].reconverged_at_us, -1);
  EXPECT_EQ(results[0].reconvergence_us, -1);
}

TEST(PerturbationReconvergenceTest, EmptySegmentAndMissingSeriesReportMinusOne) {
  TimeseriesData data;
  // A mark after the last Jain sample owns an empty segment.
  data.series["airtime_jain"] = {{1000, 0.99}};
  data.series[kPerturbationSeries] = {{500, 1.0}, {2000, 2.0}};
  const auto results = PerturbationReconvergence(data, "airtime_jain", 0.95);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].reconverged_at_us, 1000);  // Mark at 500 sees the sample.
  EXPECT_EQ(results[1].reconverged_at_us, -1);    // Mark at 2000 sees nothing.
  // No Jain series at all: every mark reports -1.
  TimeseriesData no_jain;
  no_jain.series[kPerturbationSeries] = {{500, 1.0}};
  const auto missing = PerturbationReconvergence(no_jain, "airtime_jain", 0.95);
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0].reconvergence_us, -1);
  // No marks: nothing to analyze.
  TimeseriesData no_marks;
  no_marks.series["airtime_jain"] = {{1000, 0.99}};
  EXPECT_TRUE(PerturbationReconvergence(no_marks, "airtime_jain", 0.95).empty());
}

TEST(PerturbationReconvergenceTest, SampleAtMarkInstantBelongsToPreviousSegment) {
  TimeseriesData data;
  // The sample AT the mark reflects pre-perturbation state: the sweep that
  // recorded it ran before (or at the same instant as) the fault landed.
  data.series["airtime_jain"] = {{2500, 0.40}, {3000, 0.99}};
  data.series[kPerturbationSeries] = {{2500, 1.0}};
  const auto results = PerturbationReconvergence(data, "airtime_jain", 0.95);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].reconverged_at_us, 3000);  // The 0.40 at the mark is excluded.
}

TEST(Reports, PerturbationReportNamesKindsAndWorstCase) {
  TimeseriesData data;
  data.series["airtime_jain"] = {{3000, 0.70}, {4000, 0.99}};
  data.series[kPerturbationSeries] = {{2500, 1.0}};
  std::ostringstream out;
  PrintPerturbationReport(data, "airtime_jain", 0.95, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("1 marks"), std::string::npos) << text;
  EXPECT_NE(text.find("leave"), std::string::npos) << text;
  EXPECT_NE(text.find("worst reconvergence: 1500us"), std::string::npos) << text;
}

TEST(SampleQuantileTest, InterpolatesAndHandlesEdges) {
  EXPECT_DOUBLE_EQ(SampleQuantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(SampleQuantile({42.0}, 0.99), 42.0);
  // Unsorted input is fine; the function sorts a copy.
  EXPECT_DOUBLE_EQ(SampleQuantile({30.0, 10.0, 20.0}, 0.5), 20.0);
  EXPECT_DOUBLE_EQ(SampleQuantile({10.0, 20.0}, 0.5), 15.0);
}

TEST(Reports, PrintLoadedStatistics) {
  TraceStats stats;
  stats.events = 3;
  stats.tx_us = {2800.0};
  stats.tx_airtime_us[0] = 2800.0;
  stats.tx_slices[0] = 1;
  stats.latency_us = {1200.0};
  std::ostringstream out;
  PrintTraceReport(stats, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("air"), std::string::npos);
  EXPECT_NE(text.find("station 0"), std::string::npos);

  TimeseriesData data;
  data.series["airtime_jain"] = {{1000, 0.99}};
  std::ostringstream series_out;
  PrintTimeseriesReport(data, "airtime_jain", 0.95, series_out);
  EXPECT_NE(series_out.str().find("airtime_jain"), std::string::npos);
}

}  // namespace
}  // namespace analyze
}  // namespace airfair
