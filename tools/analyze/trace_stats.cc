#include "tools/analyze/trace_stats.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "tools/analyze/json.h"

namespace airfair {
namespace analyze {
namespace {

bool ReadFile(const std::string& path, std::string* text, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *text = buffer.str();
  return true;
}

void AddTraceEvent(const JsonValue& event, TraceStats* stats) {
  ++stats->events;
  const std::string name = StringOr(event, "name", "");
  const std::string ph = StringOr(event, "ph", "");
  const JsonValue* args = event.Get("args");
  if (ph == "X" && name == "tx") {
    const double dur = NumberOr(event, "dur", -1.0);
    if (dur >= 0) {
      stats->tx_us.push_back(dur);
      const int tid = static_cast<int>(NumberOr(event, "tid", -1.0));
      stats->tx_airtime_us[tid] += dur;
      ++stats->tx_slices[tid];
    }
    return;
  }
  if (ph != "i" || args == nullptr) {
    return;  // Metadata, counters, unknown phases.
  }
  if (name == "dequeue") {
    const double sojourn = NumberOr(*args, "sojourn_us", -1.0);
    if (sojourn >= 0) stats->sojourn_us.push_back(sojourn);
  } else if (name == "deliver") {
    const double latency = NumberOr(*args, "latency_us", -1.0);
    if (latency >= 0) stats->latency_us.push_back(latency);
  } else if (name == "codel_drop") {
    ++stats->codel_drops;
  } else if (name == "overflow_drop") {
    ++stats->overflow_drops;
  } else if (name == "duplicate_drop") {
    ++stats->duplicate_drops;
  } else if (name == "collision") {
    ++stats->collisions;
  }
}

void PrintStageRow(const char* label, const std::vector<double>& samples,
                   std::ostream& out) {
  out << "  " << label << ": n=" << samples.size();
  if (!samples.empty()) {
    out << " p50=" << SampleQuantile(samples, 0.50) << "us"
        << " p95=" << SampleQuantile(samples, 0.95) << "us"
        << " p99=" << SampleQuantile(samples, 0.99) << "us";
  }
  out << "\n";
}

// Mirrors src/fault's 1-based FaultKind codes (the analyzer stays
// dependency-free: it reads artifacts, it does not link the simulator).
const char* PerturbationKindName(double code) {
  switch (static_cast<int>(code)) {
    case 1:
      return "leave";
    case 2:
      return "join";
    default:
      return "unknown";
  }
}

}  // namespace

bool ParseChromeTrace(const std::string& text, TraceStats* stats, std::string* error) {
  JsonValue root;
  if (!ParseJson(text, &root, error)) {
    return false;
  }
  if (root.type != JsonValue::Type::kObject) {
    *error = "top level is not an object";
    return false;
  }
  const JsonValue* events = root.Get("traceEvents");
  if (events == nullptr || events->type != JsonValue::Type::kArray) {
    *error = "no traceEvents array";
    return false;
  }
  for (const JsonValue& event : events->array) {
    if (event.type == JsonValue::Type::kObject) {
      AddTraceEvent(event, stats);
    }
  }
  return true;
}

bool LoadChromeTrace(const std::string& path, TraceStats* stats, std::string* error) {
  std::string text;
  if (!ReadFile(path, &text, error)) {
    return false;
  }
  if (!ParseChromeTrace(text, stats, error)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

bool ParseTimeseriesJsonl(const std::string& text, TimeseriesData* data, std::string* error) {
  std::istringstream lines(text);
  std::string line;
  int line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    JsonValue record;
    std::string parse_error;
    if (!ParseJson(line, &record, &parse_error)) {
      *error = "line " + std::to_string(line_no) + ": " + parse_error;
      return false;
    }
    const std::string series = StringOr(record, "series", "");
    const double t_us = NumberOr(record, "t_us", -1.0);
    const JsonValue* value = record.Get("value");
    if (series.empty() || t_us < 0 || value == nullptr ||
        value->type != JsonValue::Type::kNumber) {
      *error = "line " + std::to_string(line_no) + ": not a timeseries record";
      return false;
    }
    data->series[series].emplace_back(static_cast<int64_t>(t_us), value->number);
    ++data->points;
  }
  return true;
}

bool LoadTimeseriesJsonl(const std::string& path, TimeseriesData* data, std::string* error) {
  std::string text;
  if (!ReadFile(path, &text, error)) {
    return false;
  }
  if (!ParseTimeseriesJsonl(text, data, error)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

int64_t ConvergenceTimeUs(const TimeseriesData& data, const std::string& series_name,
                          double threshold) {
  const auto it = data.series.find(series_name);
  if (it == data.series.end() || it->second.empty()) {
    return -1;
  }
  const auto& points = it->second;
  // Walk backwards: the convergence point is the start of the final run of
  // samples that all sit at or above the threshold.
  int64_t converged_at = -1;
  for (auto rit = points.rbegin(); rit != points.rend(); ++rit) {
    if (rit->second < threshold) {
      break;
    }
    converged_at = rit->first;
  }
  return converged_at;
}

std::vector<ReconvergenceResult> PerturbationReconvergence(const TimeseriesData& data,
                                                           const std::string& series_name,
                                                           double threshold) {
  std::vector<ReconvergenceResult> results;
  const auto marks_it = data.series.find(kPerturbationSeries);
  if (marks_it == data.series.end() || marks_it->second.empty()) {
    return results;
  }
  const auto series_it = data.series.find(series_name);
  const std::vector<std::pair<int64_t, double>> empty;
  const auto& points = series_it == data.series.end() ? empty : series_it->second;

  // Marks are written at perturbation instants, so file order is time order;
  // sort anyway so a hand-assembled file analyzes the same way.
  std::vector<std::pair<int64_t, double>> marks = marks_it->second;
  std::stable_sort(marks.begin(), marks.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  for (size_t i = 0; i < marks.size(); ++i) {
    ReconvergenceResult r;
    r.mark_us = marks[i].first;
    r.kind_code = marks[i].second;
    const int64_t segment_end =
        i + 1 < marks.size() ? marks[i + 1].first : std::numeric_limits<int64_t>::max();
    // Segment = (mark, next mark), both ends exclusive: samples at a mark
    // instant already reflect that mark's perturbation (a churn join flips
    // the station's presence at the mark, and an active-only Jain sample on
    // the same instant sees the new roster while windowed airtime lags), so
    // a boundary sample belongs to neither the preceding segment's recovery
    // nor — being at the perturbation instant itself — the next one's.
    const auto begin = std::upper_bound(
        points.begin(), points.end(), r.mark_us,
        [](int64_t t, const std::pair<int64_t, double>& p) { return t < p.first; });
    auto end = std::lower_bound(
        begin, points.end(), segment_end,
        [](const std::pair<int64_t, double>& p, int64_t t) { return p.first < t; });
    r.segment_samples = static_cast<int64_t>(end - begin);
    // Start of the final run of in-segment samples all >= threshold.
    while (end != begin && std::prev(end)->second >= threshold) {
      --end;
      r.reconverged_at_us = end->first;
    }
    if (r.reconverged_at_us >= 0) {
      r.reconvergence_us = r.reconverged_at_us - r.mark_us;
    }
    results.push_back(r);
  }
  return results;
}

double SampleQuantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

void PrintTraceReport(const TraceStats& stats, std::ostream& out) {
  out << "trace: " << stats.events << " events\n";
  out << "per-stage latency breakdown:\n";
  PrintStageRow("queueing (sojourn) ", stats.sojourn_us, out);
  PrintStageRow("air      (tx)      ", stats.tx_us, out);
  PrintStageRow("end-to-end         ", stats.latency_us, out);
  double total_airtime = 0.0;
  for (const auto& [tid, airtime] : stats.tx_airtime_us) {
    total_airtime += airtime;
  }
  out << "per-station airtime (tx slices):\n";
  for (const auto& [tid, airtime] : stats.tx_airtime_us) {
    const auto slices = stats.tx_slices.find(tid);
    out << "  station " << tid << ": " << airtime / 1e6 << "s over "
        << (slices == stats.tx_slices.end() ? 0 : slices->second) << " slices";
    if (total_airtime > 0) {
      out << " (share " << airtime / total_airtime << ")";
    }
    out << "\n";
  }
  out << "drops: codel=" << stats.codel_drops << " overflow=" << stats.overflow_drops
      << " duplicate=" << stats.duplicate_drops << "; collisions=" << stats.collisions
      << "\n";
}

void PrintTimeseriesReport(const TimeseriesData& data, const std::string& series_name,
                           double threshold, std::ostream& out) {
  out << "timeseries: " << data.points << " points across " << data.series.size()
      << " series\n";
  const int64_t converged = ConvergenceTimeUs(data, series_name, threshold);
  if (converged >= 0) {
    out << "convergence: " << series_name << " >= " << threshold << " from t="
        << converged << "us (" << static_cast<double>(converged) / 1e6
        << "s) onward\n";
  } else {
    out << "convergence: " << series_name << " never settles at >= " << threshold
        << "\n";
  }
}

void PrintPerturbationReport(const TimeseriesData& data, const std::string& series_name,
                             double threshold, std::ostream& out) {
  const std::vector<ReconvergenceResult> results =
      PerturbationReconvergence(data, series_name, threshold);
  out << "perturbations: " << results.size() << " marks (series " << series_name
      << ", threshold " << threshold << ")\n";
  int64_t worst_us = -1;
  bool all_reconverged = !results.empty();
  for (const ReconvergenceResult& r : results) {
    out << "  t=" << r.mark_us << "us " << PerturbationKindName(r.kind_code) << ": ";
    if (r.reconverged_at_us >= 0) {
      out << "reconverged at t=" << r.reconverged_at_us << "us (+" << r.reconvergence_us
          << "us, " << static_cast<double>(r.reconvergence_us) / 1e6 << "s)\n";
      worst_us = std::max(worst_us, r.reconvergence_us);
    } else if (r.segment_samples == 0) {
      out << "no reconvergence (no samples after mark)\n";
      all_reconverged = false;
    } else {
      out << "never reconverged within its segment\n";
      all_reconverged = false;
    }
  }
  if (all_reconverged) {
    out << "  worst reconvergence: " << worst_us << "us ("
        << static_cast<double>(worst_us) / 1e6 << "s)\n";
  }
}

}  // namespace analyze
}  // namespace airfair
