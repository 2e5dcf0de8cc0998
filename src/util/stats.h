// Statistics utilities used by the evaluation harness: running summary
// statistics, sample collections with quantiles, and Jain's fairness index
// (used for the paper's Figure 6).

#ifndef AIRFAIR_SRC_UTIL_STATS_H_
#define AIRFAIR_SRC_UTIL_STATS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/util/time.h"

namespace airfair {

// Numerically stable (Welford) running mean / variance / min / max.
class RunningStats {
 public:
  void Add(double x);

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Collects individual samples and answers quantile queries.
// Used for the latency distributions in Figures 1, 4, 8 and 10.
//
// The const query methods never mutate the sample vector: Quantile on an
// *unsorted* set sorts a local copy (O(n log n) per call); call the
// explicit Sort() once after ingestion to make subsequent const queries
// O(1).
class SampleSet {
 public:
  void Add(double x);
  void AddTime(TimeUs t) { Add(t.ToMilliseconds()); }

  // Appends every sample from `other` (used when merging per-repetition
  // results into a combined set).
  void Merge(const SampleSet& other);

  // Sorts the samples in place. Idempotent; after this, const queries do
  // not copy.
  void Sort();
  bool sorted() const { return sorted_; }

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;

  // Quantile with linear interpolation; q in [0, 1]. Returns 0 on empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

  const std::vector<double>& samples() const { return samples_; }

 private:
  // Returns the samples in sorted order without mutating *this: a reference
  // to samples_ when already sorted, otherwise a sorted copy in `scratch`.
  const std::vector<double>& SortedView(std::vector<double>& scratch) const;

  std::vector<double> samples_;
  bool sorted_ = true;
};

// Jain's fairness index: (sum x)^2 / (n * sum x^2). Equals 1 for a perfectly
// even allocation and 1/n when one party receives everything.
double JainFairnessIndex(std::span<const double> shares);

// Median of a (small) vector; convenience for aggregating per-repetition
// results the way the paper does ("median over all repetitions of the
// per-test mean").
double MedianOf(std::vector<double> values);

// ---------------------------------------------------------------------------
// Named monotonic counters.
//
// A tiny process-global registry used by the correctness tooling (the
// invariant auditor records audit.checks / audit.violations.* here) and
// by the perf-tracking bench harness (event-loop / packet-pool totals).
// Not for hot paths: lookup is by string. Counters are created on first use
// and live for the process lifetime.

class Counter {
 public:
  void Increment(int64_t delta = 1) { value_ += delta; }
  void Set(int64_t value) { value_ = value; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

// Returns the counter registered under `name`, creating it if needed.
// The returned reference is stable for the process lifetime.
Counter& GetCounter(const std::string& name);

// Snapshot of all registered counters, sorted by name.
std::vector<std::pair<std::string, int64_t>> CounterSnapshot();

// Resets every registered counter to zero (between test cases / runs).
void ResetCounters();

}  // namespace airfair

#endif  // AIRFAIR_SRC_UTIL_STATS_H_
