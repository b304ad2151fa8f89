// C-REGRESS (Algorithm 2, §V.B): split conformal regression on the start
// and end offsets of EventHit's predicted occurrence intervals.
//
// Calibration evaluates the model on every calibration record whose horizon
// truly contains E_k, collecting absolute residuals of the predicted start
// and end against the ground truth. At inference, the alpha-quantiles
// (q_s, q_e) of those residuals widen the estimate to
//   [max(1, T_s - q_s), min(H, T_e + q_e)]  (Eq. 11).
// Theorem 5.2: each true endpoint is covered with probability >= alpha.
#ifndef EVENTHIT_CORE_C_REGRESS_H_
#define EVENTHIT_CORE_C_REGRESS_H_

#include <vector>

#include "conformal/split_conformal_regressor.h"
#include "sim/interval.h"

namespace eventhit::core {

/// Calibrated conformal interval adjuster over all K event types.
class CRegress {
 public:
  /// Builds from per-event (start, end) residual sets. core::Calibrate
  /// (core/calibration.h) computes them from a model and calibration
  /// records (Lines 6–12 of Alg. 2).
  CRegress(std::vector<std::vector<double>> start_residuals,
           std::vector<std::vector<double>> end_residuals, int horizon);

  size_t num_events() const { return start_.size(); }

  /// Residual quantiles (q_s, q_e) for event `k` at coverage `alpha`.
  double StartQuantile(size_t k, double alpha) const;
  double EndQuantile(size_t k, double alpha) const;

  /// Applies Eq. (11): widens `estimate` (1-based offsets) by the alpha
  /// quantiles and clamps to [1, H].
  sim::Interval Adjust(size_t k, const sim::Interval& estimate,
                       double alpha) const;

  /// Number of positive calibration records for event `k` (|R_k|).
  size_t CalibrationSize(size_t k) const;

 private:
  std::vector<conformal::SplitConformalRegressor> start_;
  std::vector<conformal::SplitConformalRegressor> end_;
  int horizon_ = 0;
};

}  // namespace eventhit::core

#endif  // EVENTHIT_CORE_C_REGRESS_H_
