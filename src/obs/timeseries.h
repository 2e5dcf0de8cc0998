// Windowed metrics timelines: named series of (simulated time, value)
// points sampled on a fixed cadence by the Testbed (airtime shares,
// queue depths, latency quantiles, fairness index).
//
// The paper's claims are temporal — airtime shares *converge* (Fig. 5/9)
// and sojourn times *settle* (Fig. 4/10) — so end-of-run aggregates are
// not enough; these timelines are what the JSONL exporter writes and what
// tools/analyze/trace_stats consumes to compute the airtime-fairness
// convergence time.
//
// Allocation discipline: series are registered once (by the sampler's
// setup path) and each series' point vector is pre-reserved, so recording
// a point in steady state performs no allocation until a run outgrows the
// reservation (hours of simulated time at the default cadence).

#ifndef AIRFAIR_SRC_OBS_TIMESERIES_H_
#define AIRFAIR_SRC_OBS_TIMESERIES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/time.h"

namespace airfair {

class Timeseries {
 public:
  struct Point {
    int64_t t_us = 0;
    double value = 0.0;
  };

  Timeseries() = default;

  Timeseries(const Timeseries&) = delete;
  Timeseries& operator=(const Timeseries&) = delete;

  // Registers (or finds) a series and returns its id. Registration is a
  // setup-path operation (allocates); Record is the steady-state path.
  int Series(const std::string& name);

  void Record(int id, TimeUs t, double value) {
    points_[static_cast<size_t>(id)].push_back(
        Point{t.us(), value});
  }

  int series_count() const { return static_cast<int>(names_.size()); }
  const std::string& name(int id) const { return names_[static_cast<size_t>(id)]; }
  const std::vector<Point>& points(int id) const {
    return points_[static_cast<size_t>(id)];
  }

  // Total points across all series.
  size_t total_points() const;
  bool empty() const { return total_points() == 0; }

 private:
  // Points reserved per series at registration.
  static constexpr size_t kReservePoints = 4096;

  std::vector<std::string> names_;
  std::vector<std::vector<Point>> points_;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_OBS_TIMESERIES_H_
