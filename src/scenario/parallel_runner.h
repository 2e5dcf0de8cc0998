// Parallel repetition runner.
//
// The paper's methodology (PAPER.md footnote 2) repeats every experiment
// over several seeds and reports medians-of-means. Repetitions are
// embarrassingly parallel — each owns its Simulation/EventLoop, Testbed and
// RNG, and nothing is shared except the process-global named counters
// (atomic) — so the runner shards (scheme, repetition) jobs across a
// std::thread pool and stores each result at its job index. Merging by
// index on the calling thread makes the output order — and therefore every
// derived statistic — identical for any thread count, including 1: the
// parallelism is observable only as wall-clock time.
//
// Thread count: explicit argument > AIRFAIR_THREADS env > hardware
// concurrency. `threads == 1` (or a single job) runs inline on the calling
// thread with no pool at all.
//
// Ownership domains (DESIGN.md §8): simulator-core types (src/sim, src/core,
// src/aqm, src/mac, src/net) live in the event-loop domain — each instance
// is owned by exactly one worker's job body and never crosses threads. The
// runner names none of them: it is a pure job scheduler, and the job body
// builds the whole simulation inside its worker. Repetitions are the only
// parallelism: one run is one EventLoop on one thread (DESIGN.md §9).

#ifndef AIRFAIR_SRC_SCENARIO_PARALLEL_RUNNER_H_
#define AIRFAIR_SRC_SCENARIO_PARALLEL_RUNNER_H_

#include <functional>
#include <utility>
#include <vector>

namespace airfair {

// Worker count used when `threads <= 0`: the AIRFAIR_THREADS environment
// variable if set (clamped to >= 1), otherwise std::thread::hardware_concurrency.
int DefaultThreadCount();

// Runs body(job) for every job in [0, job_count) across a thread pool.
// Jobs are claimed from an atomic counter, so scheduling order is arbitrary —
// bodies must write results only to their own job's slot. Blocks until all
// jobs finish; the first exception thrown by a body is rethrown here after
// the pool joins.
void RunJobs(int job_count, const std::function<void(int job)>& body,
             int threads = 0);

// Runs fn(rep) for rep in [0, reps) in parallel; returns results in rep
// order. Result must be default-constructible and movable.
template <typename Result, typename Fn>
std::vector<Result> RunRepetitions(int reps, Fn&& fn, int threads = 0) {
  std::vector<Result> out(static_cast<size_t>(reps > 0 ? reps : 0));
  RunJobs(reps, [&](int rep) { out[static_cast<size_t>(rep)] = fn(rep); },
          threads);
  return out;
}

// Runs fn(scheme_index, rep) over the full (scheme, repetition) grid —
// sharding across *both* dimensions so a 4-scheme x 8-rep figure keeps every
// worker busy — and returns results as out[scheme_index][rep].
template <typename Result, typename Fn>
std::vector<std::vector<Result>> RunSchemeRepetitions(int schemes, int reps,
                                                      Fn&& fn,
                                                      int threads = 0) {
  std::vector<std::vector<Result>> out(static_cast<size_t>(schemes > 0 ? schemes : 0));
  for (auto& per_scheme : out) {
    per_scheme.resize(static_cast<size_t>(reps > 0 ? reps : 0));
  }
  if (schemes <= 0 || reps <= 0) {
    return out;
  }
  RunJobs(schemes * reps,
          [&](int job) {
            const int scheme = job / reps;
            const int rep = job % reps;
            out[static_cast<size_t>(scheme)][static_cast<size_t>(rep)] =
                fn(scheme, rep);
          },
          threads);
  return out;
}

}  // namespace airfair

#endif  // AIRFAIR_SRC_SCENARIO_PARALLEL_RUNNER_H_
