// trace_stats: post-run analysis over the observability artifacts that the
// Testbed exports (src/obs/export.h):
//
//   * Chrome trace JSON (AIRFAIR_TRACE_JSON) — per-stage latency breakdown:
//     queueing (dequeue-instant sojourn times), air (tx slice durations) and
//     end-to-end (deliver-instant latencies), per-station tx airtime totals,
//     and drop/collision tallies;
//   * timeseries JSONL (AIRFAIR_TIMESERIES_JSON) — airtime-fairness
//     convergence time: the earliest sample after which the windowed Jain
//     index stays at or above a threshold for the remainder of the run
//     (the temporal claim behind the paper's Figs. 5 and 9).
//
// Used by CI's perf-smoke job to prove that a traced figure run produced
// loadable artifacts and that the airtime-fair scheme converges; the parse
// and analysis entry points are a library (linked into airfair_analyze) so
// tests/tools_trace_stats_test.cc can exercise them on synthetic inputs.

#ifndef AIRFAIR_TOOLS_ANALYZE_TRACE_STATS_H_
#define AIRFAIR_TOOLS_ANALYZE_TRACE_STATS_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace airfair {
namespace analyze {

// Aggregates extracted from one Chrome trace JSON file.
struct TraceStats {
  int64_t events = 0;  // trace_event objects seen (metadata included).

  // Per-stage latency samples, microseconds.
  std::vector<double> sojourn_us;  // "dequeue" instants: time queued.
  std::vector<double> tx_us;       // "tx" complete slices: time on air.
  std::vector<double> latency_us;  // "deliver" instants: end to end.

  // Per-station airtime from tx slices: station tid -> summed slice dur.
  std::map<int, double> tx_airtime_us;
  std::map<int, int64_t> tx_slices;

  // Event tallies.
  int64_t codel_drops = 0;
  int64_t overflow_drops = 0;
  int64_t duplicate_drops = 0;
  int64_t collisions = 0;
};

// Parses Chrome trace JSON text ({"traceEvents":[...]}); false + *error on
// malformed input (a missing traceEvents array is malformed).
bool ParseChromeTrace(const std::string& text, TraceStats* stats, std::string* error);
bool LoadChromeTrace(const std::string& path, TraceStats* stats, std::string* error);

// One timeseries file: series name -> (t_us, value) points in file order.
struct TimeseriesData {
  std::map<std::string, std::vector<std::pair<int64_t, double>>> series;
  int64_t points = 0;
};

// Parses timeseries JSONL text; false + *error on a malformed line.
bool ParseTimeseriesJsonl(const std::string& text, TimeseriesData* data, std::string* error);
bool LoadTimeseriesJsonl(const std::string& path, TimeseriesData* data, std::string* error);

// The convergence time of `series_name`: the earliest sample time t such
// that every sample from t to the end of the series has value >= threshold.
// Returns -1 when the series is absent, empty, or never converges (the
// last sample is below the threshold).
int64_t ConvergenceTimeUs(const TimeseriesData& data, const std::string& series_name,
                          double threshold);

// Quantile with linear interpolation over an unsorted sample vector (sorts
// a copy); 0 on empty.
double SampleQuantile(std::vector<double> samples, double q);

// The series the fault injector (src/fault) writes its perturbation marks
// into: one point per perturbation instant, value = 1-based FaultKind code.
inline const char* kPerturbationSeries = "perturbation";

// One perturbation mark and the measured recovery that followed it.
struct ReconvergenceResult {
  int64_t mark_us = 0;
  double kind_code = 0.0;            // Value recorded at the mark.
  int64_t reconverged_at_us = -1;    // -1: never within this mark's segment.
  int64_t reconvergence_us = -1;     // reconverged_at_us - mark_us.
  // Samples of the analyzed series inside this mark's segment. 0 means the
  // mark landed after the last sample (e.g. a scheduled fault firing at the
  // very end of the run): reconvergence is *unmeasurable*, which is a
  // different diagnosis from a populated segment that ends below the
  // threshold (a real non-recovery). Both report reconverged_at_us == -1;
  // consumers that gate on reconvergence should distinguish them by this
  // count rather than report a bogus "never reconverged".
  int64_t segment_samples = 0;
};

// Per-perturbation reconvergence of `series_name` (typically airtime_jain):
// each mark in the "perturbation" series owns the segment strictly between
// the mark and the next mark (or the end of the series for the last mark);
// samples at a mark instant already reflect that mark's perturbation and
// belong to no segment. Within its segment, a mark's reconvergence
// point is the start of the final run of samples that all sit at or above
// `threshold` and reach the segment end — the same tail-run definition
// ConvergenceTimeUs uses for the whole series, restricted to the segment.
// Marks whose segment is empty or whose last sample is below the threshold
// report -1 (not reconverged); `segment_samples` tells the two apart.
std::vector<ReconvergenceResult> PerturbationReconvergence(const TimeseriesData& data,
                                                           const std::string& series_name,
                                                           double threshold);

// Human-readable reports (what the CLI prints).
void PrintTraceReport(const TraceStats& stats, std::ostream& out);
void PrintTimeseriesReport(const TimeseriesData& data, const std::string& series_name,
                           double threshold, std::ostream& out);
void PrintPerturbationReport(const TimeseriesData& data, const std::string& series_name,
                             double threshold, std::ostream& out);

}  // namespace analyze
}  // namespace airfair

#endif  // AIRFAIR_TOOLS_ANALYZE_TRACE_STATS_H_
