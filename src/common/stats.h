// Small statistics helpers shared across modules (metrics, conformal
// calibration, dataset validation).
#ifndef EVENTHIT_COMMON_STATS_H_
#define EVENTHIT_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace eventhit {

/// Arithmetic mean; 0 for an empty input.
double Mean(const std::vector<double>& values);

/// Sample standard deviation (n-1 denominator); 0 for n < 2.
double SampleStdDev(const std::vector<double>& values);

/// 1-indexed rank of the split-conformal quantile for a calibration set of
/// size n at coverage `level`: ceil(level * (n+1)), clamped to [1, n].
/// The (n+1) is the finite-sample correction of Theorems 4.2/5.2 — the
/// test point is exchangeable with the n calibration points, so covering
/// it with probability >= level requires the ceil(level*(n+1))-th order
/// statistic, not ceil(level*n) (which undercovers by ~level/(n+1), badly
/// for small n). Requires n >= 1 and level in [0, 1].
size_t ConformalQuantileRank(size_t n, double level);

/// The conformal order statistic used throughout the paper: the
/// ConformalQuantileRank(n, level)-th smallest of `values` (1-indexed),
/// i.e. \hat q = r_(ceil(level*(|R|+1))) clamped to the sample.
/// Returns 0 for an empty input.
double OrderStatQuantile(std::vector<double> values, double level);

/// Linear min/max clamp.
double Clamp(double value, double lo, double hi);

/// Numerically-stable logistic sigmoid.
double Sigmoid(double x);

/// Running mean/variance accumulator (Welford).
class RunningStats {
 public:
  void Add(double value);
  size_t count() const { return count_; }
  double mean() const { return mean_; }
  /// Sample variance (n-1); 0 for n < 2.
  double variance() const;
  double stddev() const;

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace eventhit

#endif  // EVENTHIT_COMMON_STATS_H_
