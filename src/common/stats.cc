#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace eventhit {

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double SampleStdDev(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  const double mean = Mean(values);
  double ss = 0.0;
  for (double v : values) ss += (v - mean) * (v - mean);
  return std::sqrt(ss / static_cast<double>(values.size() - 1));
}

size_t ConformalQuantileRank(size_t n, double level) {
  EVENTHIT_CHECK_GE(n, 1u);
  EVENTHIT_CHECK_GE(level, 0.0);
  EVENTHIT_CHECK_LE(level, 1.0);
  auto rank =
      static_cast<size_t>(std::ceil(level * static_cast<double>(n + 1)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return rank;
}

double OrderStatQuantile(std::vector<double> values, double level) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[ConformalQuantileRank(values.size(), level) - 1];
}

double Clamp(double value, double lo, double hi) {
  return std::min(std::max(value, lo), hi);
}

double Sigmoid(double x) {
  if (x >= 0.0) {
    const double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  const double z = std::exp(x);
  return z / (1.0 + z);
}

void RunningStats::Add(double value) {
  ++count_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace eventhit
