// CLI for the observability-artifact analyzer (tools/analyze/trace_stats.h).
//
// Usage:
//   trace_stats [--trace chrome.json] [--timeseries points.jsonl]
//               [--series NAME] [--jain-threshold X]
//               [--require-convergence] [--perturbations]
//               [--max-reconvergence-ms X]
//
// With --trace it prints the per-stage latency breakdown (queueing / air /
// end-to-end), per-station airtime shares from the tx slices, and drop
// tallies. With --timeseries it prints the airtime-fairness convergence
// time: the earliest sample after which --series (default airtime_jain)
// stays at or above --jain-threshold (default 0.95).
//
// --perturbations adds the per-perturbation reconvergence report: for each
// mark the fault injector wrote into the "perturbation" series, the time
// from the mark to the point where --series recovers to --jain-threshold
// and stays there for the rest of the mark's segment.
// --max-reconvergence-ms X (implies --perturbations) gates on it: exit 1
// if the file has no perturbation marks, any segment never reconverges, or
// any reconvergence exceeds X ms.
//
// Exit codes: 0 ok, 1 gate (--require-convergence / --max-reconvergence-ms)
// unmet, 2 usage/parse error.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "tools/analyze/trace_stats.h"

int main(int argc, char** argv) {
  std::string trace_path;
  std::string series_path;
  std::string series_name = "airtime_jain";
  double threshold = 0.95;
  bool require_convergence = false;
  bool perturbations = false;
  double max_reconvergence_ms = -1.0;  // < 0: report only, no gate.

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs an argument\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--trace") {
      trace_path = next("--trace");
    } else if (arg == "--timeseries") {
      series_path = next("--timeseries");
    } else if (arg == "--series") {
      series_name = next("--series");
    } else if (arg == "--jain-threshold") {
      threshold = std::atof(next("--jain-threshold"));
    } else if (arg == "--require-convergence") {
      require_convergence = true;
    } else if (arg == "--perturbations") {
      perturbations = true;
    } else if (arg == "--max-reconvergence-ms") {
      perturbations = true;
      max_reconvergence_ms = std::atof(next("--max-reconvergence-ms"));
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: trace_stats [--trace chrome.json] [--timeseries points.jsonl]\n"
          "                   [--series NAME] [--jain-threshold X]\n"
          "                   [--require-convergence] [--perturbations]\n"
          "                   [--max-reconvergence-ms X]\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", arg.c_str());
      return 2;
    }
  }

  if (trace_path.empty() && series_path.empty()) {
    std::fprintf(stderr, "nothing to do: pass --trace and/or --timeseries (see --help)\n");
    return 2;
  }

  int exit_code = 0;
  if (!trace_path.empty()) {
    airfair::analyze::TraceStats stats;
    std::string error;
    if (!airfair::analyze::LoadChromeTrace(trace_path, &stats, &error)) {
      std::fprintf(stderr, "trace_stats: %s\n", error.c_str());
      return 2;
    }
    airfair::analyze::PrintTraceReport(stats, std::cout);
  }
  if (!series_path.empty()) {
    airfair::analyze::TimeseriesData data;
    std::string error;
    if (!airfair::analyze::LoadTimeseriesJsonl(series_path, &data, &error)) {
      std::fprintf(stderr, "trace_stats: %s\n", error.c_str());
      return 2;
    }
    airfair::analyze::PrintTimeseriesReport(data, series_name, threshold, std::cout);
    if (require_convergence &&
        airfair::analyze::ConvergenceTimeUs(data, series_name, threshold) < 0) {
      std::fprintf(stderr, "trace_stats: required convergence not reached\n");
      exit_code = 1;
    }
    if (perturbations) {
      airfair::analyze::PrintPerturbationReport(data, series_name, threshold, std::cout);
      if (max_reconvergence_ms >= 0) {
        const auto results =
            airfair::analyze::PerturbationReconvergence(data, series_name, threshold);
        if (results.empty()) {
          // A gated run with no marks means the fault schedule never fired:
          // that is a broken run, not a trivially-passing one.
          std::fprintf(stderr, "trace_stats: no perturbation marks to gate on\n");
          exit_code = 1;
        }
        const int64_t max_us = static_cast<int64_t>(max_reconvergence_ms * 1000.0);
        for (const auto& r : results) {
          if (r.reconvergence_us < 0 || r.reconvergence_us > max_us) {
            // An empty segment (a mark with no samples after it) is a
            // different failure from a populated segment that never recovers:
            // the former means the run ended before recovery was measurable.
            const char* diagnosis =
                r.reconvergence_us >= 0 ? "reconverged too slowly"
                : r.segment_samples == 0
                    ? "has no samples after the mark (reconvergence unmeasurable)"
                    : "never reconverged";
            std::fprintf(stderr,
                         "trace_stats: perturbation at t=%lldus %s (limit %.0fms)\n",
                         static_cast<long long>(r.mark_us), diagnosis,
                         max_reconvergence_ms);
            exit_code = 1;
          }
        }
      }
    }
  }
  return exit_code;
}
