// Shared helpers for the figure/table reproduction binaries.
//
// Each bench mirrors the paper's methodology on a reduced scale: several
// repetitions with distinct seeds, reporting the median over the
// per-repetition means (see the paper's footnote 2). Durations and
// repetition counts default to values that keep each binary's wall time in
// the seconds range; environment variables AIRFAIR_REPS and
// AIRFAIR_SECONDS scale them up for full-fidelity runs.
//
// A bench is one process on one thread: its (scheme, repetition) grid runs
// in order. The suite uses more cores by running several benches at once
// (README has the recipe).
//
// Perf tracking: set AIRFAIR_BENCH_JSON=<path> to append one JSON line per
// binary run with wall time, simulated/wall ratio, events/sec and allocation
// counters (the BENCH_*.json trajectory). Set AIRFAIR_BENCH_AUDIT=1 to
// spot-audit long figure runs: it enables the runtime invariant auditor at a
// sparse default cadence (AIRFAIR_AUDIT_INTERVAL_MS, default 100 ms) without
// requiring the Debug-build audit preset.

#ifndef AIRFAIR_BENCH_BENCH_UTIL_H_
#define AIRFAIR_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/scenario/experiments.h"
#include "src/scenario/testbed.h"
#include "src/util/env.h"
#include "src/util/stats.h"

namespace airfair {

// The environment knobs are parsed strictly (src/util/env.h): a malformed
// value exits 2 naming the variable before any simulation runs.
inline int BenchRepetitions(int fallback = 5) {
  return static_cast<int>(EnvWholeNumber("AIRFAIR_REPS", fallback, /*min=*/1));
}

inline ExperimentTiming BenchTiming(double default_measure_seconds = 20.0) {
  ExperimentTiming timing;
  timing.warmup = TimeUs::FromSeconds(5);
  timing.measure =
      TimeUs::FromSeconds(EnvNumber("AIRFAIR_SECONDS", default_measure_seconds, /*min=*/1.0));
  return timing;
}

// Runs fn(scheme, rep) over the (scheme, repetition) grid in order and
// returns the results as out[scheme][rep].
template <typename Result, typename Fn>
std::vector<std::vector<Result>> RunSchemeRepetitions(int schemes, int reps, Fn&& fn) {
  std::vector<std::vector<Result>> out(static_cast<size_t>(schemes));
  for (int scheme = 0; scheme < schemes; ++scheme) {
    for (int rep = 0; rep < reps; ++rep) {
      out[static_cast<size_t>(scheme)].push_back(fn(scheme, rep));
    }
  }
  return out;
}

inline const std::vector<QueueScheme>& AllSchemes() {
  static const std::vector<QueueScheme> schemes = {
      QueueScheme::kFifo, QueueScheme::kFqCodel, QueueScheme::kFqMac,
      QueueScheme::kAirtimeFair};
  return schemes;
}

// Prints a latency CDF as quantile rows (the textual equivalent of the
// paper's CDF figures). Sorts a copy when the set is unsorted so the seven
// quantile queries don't each pay an O(n log n) sort.
inline void PrintCdf(const std::string& label, const SampleSet& samples) {
  static const double kQuantiles[] = {0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99};
  SampleSet sorted_copy;
  const SampleSet* view = &samples;
  if (!samples.sorted()) {
    sorted_copy = samples;
    sorted_copy.Sort();
    view = &sorted_copy;
  }
  std::printf("  %-28s n=%5zu |", label.c_str(), view->count());
  for (double q : kQuantiles) {
    std::printf(" p%02.0f=%8.2f", q * 100, view->Quantile(q));
  }
  std::printf("  (ms)\n");
}

inline void PrintHeaderRule() {
  std::printf("%s\n", std::string(100, '-').c_str());
}

// Maps AIRFAIR_BENCH_AUDIT=1 onto the runtime audit knobs: enables the
// invariant auditor (as if AIRFAIR_AUDIT=1) at a sparse spot-check cadence.
// Called from BenchReporter's constructor, i.e. before any Testbed exists.
inline void ApplyBenchAuditEnv() {
  if (!EnvFlag("AIRFAIR_BENCH_AUDIT", /*fallback=*/false)) {
    return;
  }
  ::setenv("AIRFAIR_AUDIT", "1", /*overwrite=*/0);
  // 100 ms of simulated time between sweeps: cheap enough for long figure
  // runs, frequent enough to catch drift. Explicit env wins.
  ::setenv("AIRFAIR_AUDIT_INTERVAL_MS", "100", /*overwrite=*/0);
}

// Surfaces the observability knobs (src/obs): when a trace or timeseries
// export is requested the Testbeds built by this bench will trace and write
// artifacts on destruction; note the active paths up front so a bench log
// records where its artifacts went. Reminder printed for multi-rep runs:
// repetitions run in order and write through the same paths, so each file
// keeps the last repetition written to it (per {scheme}).
inline void ApplyBenchTraceEnv() {
  const char* trace_json = std::getenv("AIRFAIR_TRACE_JSON");
  const char* series_json = std::getenv("AIRFAIR_TIMESERIES_JSON");
  const bool trace = trace_json != nullptr && *trace_json != '\0';
  const bool series = series_json != nullptr && *series_json != '\0';
  if (!trace && !series) {
    return;
  }
  std::printf("[trace] lifecycle tracing on:%s%s%s%s\n",
              trace ? " chrome=" : "", trace ? trace_json : "",
              series ? " timeseries=" : "", series ? series_json : "");
  if (BenchRepetitions() > 1) {
    std::printf(
        "[trace] note: %d repetitions run in order and share the export "
        "paths; each file keeps the last repetition's run\n",
        BenchRepetitions());
  }
}

// Scoped perf reporter: construct once at the top of a bench's main() with
// the binary's name. On destruction it computes deltas of the process-global
// perf counters (published by EventLoop / PacketPool / Host destructors) and
// appends one JSON line to $AIRFAIR_BENCH_JSON (no-op when unset).
class BenchReporter {
 public:
  explicit BenchReporter(std::string name)
      : name_(std::move(name)), wall_start_(std::chrono::steady_clock::now()) {
    ApplyBenchAuditEnv();
    ApplyBenchTraceEnv();
    for (const auto& [key, value] : CounterSnapshot()) {
      baseline_[key] = value;
    }
  }

  BenchReporter(const BenchReporter&) = delete;
  BenchReporter& operator=(const BenchReporter&) = delete;

  ~BenchReporter() {
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start_)
            .count();
    std::map<std::string, int64_t> totals;
    for (const auto& [key, value] : CounterSnapshot()) {
      totals[key] = value;
    }
    auto delta = [&](const char* key) -> int64_t {
      const auto it = totals.find(key);
      const int64_t now_value = it == totals.end() ? 0 : it->second;
      const auto base = baseline_.find(key);
      return now_value - (base == baseline_.end() ? 0 : base->second);
    };

    const int64_t dispatched = delta("sim.events.dispatched");
    const int64_t scheduled = delta("sim.events.scheduled");
    const int64_t detached = delta("sim.events.detached");
    const int64_t simulated_us = delta("sim.simulated_us");
    const int64_t tokens_created = delta("sim.tokens.created");
    const int64_t tokens_recycled = delta("sim.tokens.recycled");
    const int64_t pool_packets = delta("packets.pool.allocated");
    const int64_t pool_recycled = delta("packets.pool.recycled");
    const int64_t pool_chunks = delta("packets.pool.chunks");
    const int64_t heap_packets = delta("packets.heap");
    const double simulated_seconds = static_cast<double>(simulated_us) / 1e6;
    const double ratio = wall_seconds > 0 ? simulated_seconds / wall_seconds : 0.0;
    const double events_per_sec =
        wall_seconds > 0 ? static_cast<double>(dispatched) / wall_seconds : 0.0;

    std::printf(
        "[perf] %s: wall=%.2fs sim=%.0fs (x%.1f) events=%lld (%.2fM/s) "
        "packets=%lld pooled + %lld heap\n",
        name_.c_str(), wall_seconds, simulated_seconds, ratio,
        static_cast<long long>(dispatched), events_per_sec / 1e6,
        static_cast<long long>(pool_packets), static_cast<long long>(heap_packets));

    const char* path = std::getenv("AIRFAIR_BENCH_JSON");
    if (path == nullptr || *path == '\0') {
      return;
    }
    std::FILE* f = std::fopen(path, "a");
    if (f == nullptr) {
      std::fprintf(stderr, "[perf] cannot open AIRFAIR_BENCH_JSON=%s\n", path);
      return;
    }
    std::fprintf(
        f,
        "{\"bench\":\"%s\",\"wall_seconds\":%.3f,\"simulated_seconds\":%.3f,"
        "\"sim_wall_ratio\":%.2f,\"events_dispatched\":%lld,"
        "\"events_scheduled\":%lld,\"events_detached\":%lld,"
        "\"events_per_wall_sec\":%.0f,\"packets_pooled\":%lld,"
        "\"packets_pool_recycled\":%lld,\"packet_pool_chunks\":%lld,"
        "\"packets_heap\":%lld,\"tokens_created\":%lld,"
        "\"tokens_recycled\":%lld,\"reps\":%d}\n",
        name_.c_str(), wall_seconds, simulated_seconds, ratio,
        static_cast<long long>(dispatched), static_cast<long long>(scheduled),
        static_cast<long long>(detached), events_per_sec,
        static_cast<long long>(pool_packets), static_cast<long long>(pool_recycled),
        static_cast<long long>(pool_chunks), static_cast<long long>(heap_packets),
        static_cast<long long>(tokens_created),
        static_cast<long long>(tokens_recycled), BenchRepetitions());
    std::fclose(f);
  }

 private:
  std::string name_;
  std::chrono::steady_clock::time_point wall_start_;
  std::map<std::string, int64_t> baseline_;
};

}  // namespace airfair

#endif  // AIRFAIR_BENCH_BENCH_UTIL_H_
