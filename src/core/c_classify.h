// C-CLASSIFY (Algorithm 1, §IV.B): conformal calibration of EventHit's
// event-existence scores.
//
// For each event type E_k independently, the non-conformity of a record is
// a^k = 1 - b_k (the paper's measure; any measure preserves the guarantee).
// Calibration collects a^k over the calibration records whose horizon truly
// contains E_k; at inference the p-value of a new record is compared with
// 1 - c. Theorem 4.2: P(E_k missed) <= 1 - c under exchangeability.
#ifndef EVENTHIT_CORE_C_CLASSIFY_H_
#define EVENTHIT_CORE_C_CLASSIFY_H_

#include <vector>

#include "conformal/conformal_classifier.h"
#include "core/prediction.h"

namespace eventhit::core {

/// Calibrated conformal existence predictor over all K event types.
class CClassify {
 public:
  /// Builds one conformal classifier per event type from its
  /// positive-class non-conformity scores 1 - b_k. core::Calibrate
  /// (core/calibration.h) computes them from a model and calibration
  /// records.
  explicit CClassify(
      std::vector<std::vector<double>> positive_scores_per_event);

  size_t num_events() const { return classifiers_.size(); }

  /// p-value p^k_o per event for the given raw scores.
  std::vector<double> PValues(const EventScores& scores) const;

  /// \hat L_o at confidence level `c`: event k is predicted present iff
  /// p^k >= 1 - c (Eq. 9).
  std::vector<bool> PredictExistence(const EventScores& scores,
                                     double confidence) const;

  /// Event k's entry of PredictExistence, without building the vector.
  bool PredictsPresent(size_t k, const EventScores& scores,
                       double confidence) const;

  /// Number of positive calibration records for event `k`.
  size_t CalibrationSize(size_t k) const;

 private:
  std::vector<conformal::ConformalBinaryClassifier> classifiers_;
};

}  // namespace eventhit::core

#endif  // EVENTHIT_CORE_C_CLASSIFY_H_
