#include "src/util/stats.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

namespace airfair {

void RunningStats::Add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
}

void SampleSet::Add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void SampleSet::Merge(const SampleSet& other) {
  if (other.samples_.empty()) {
    return;
  }
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  sorted_ = false;
}

void SampleSet::Sort() {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

const std::vector<double>& SampleSet::SortedView(
    std::vector<double>& scratch) const {
  if (sorted_) {
    return samples_;
  }
  scratch = samples_;
  std::sort(scratch.begin(), scratch.end());
  return scratch;
}

double SampleSet::mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double s : samples_) {
    sum += s;
  }
  return sum / static_cast<double>(samples_.size());
}

namespace {

double QuantileOfSorted(const std::vector<double>& sorted, double q) {
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

double SampleSet::Quantile(double q) const {
  if (samples_.empty()) {
    return 0.0;
  }
  std::vector<double> scratch;
  return QuantileOfSorted(SortedView(scratch), q);
}

double JainFairnessIndex(std::span<const double> shares) {
  if (shares.empty()) {
    return 1.0;
  }
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : shares) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) {
    return 1.0;
  }
  return (sum * sum) / (static_cast<double>(shares.size()) * sum_sq);
}

double MedianOf(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n % 2 == 1) {
    return values[n / 2];
  }
  return (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

namespace {

// Leaked singleton: counters are read by atexit-ordered reporters, so the
// registry must never be destroyed. std::map keeps snapshot output sorted
// and never invalidates references on insert, which is what makes
// GetCounter's returned reference stable.
std::map<std::string, Counter>& Registry() {
  static auto* registry = new std::map<std::string, Counter>();
  return *registry;
}

}  // namespace

Counter& GetCounter(const std::string& name) { return Registry()[name]; }

std::vector<std::pair<std::string, int64_t>> CounterSnapshot() {
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(Registry().size());
  for (const auto& [name, counter] : Registry()) {
    out.emplace_back(name, counter.value());
  }
  return out;
}

void ResetCounters() {
  for (auto& [name, counter] : Registry()) {
    counter = Counter();
  }
}

}  // namespace airfair
