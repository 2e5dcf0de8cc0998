#include "src/obs/timeseries.h"

namespace airfair {

int Timeseries::Series(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return static_cast<int>(i);
    }
  }
  names_.push_back(name);
  points_.emplace_back();
  points_.back().reserve(kReservePoints);
  return static_cast<int>(names_.size()) - 1;
}

size_t Timeseries::total_points() const {
  size_t total = 0;
  for (const auto& series : points_) {
    total += series.size();
  }
  return total;
}

}  // namespace airfair
