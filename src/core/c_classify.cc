#include "core/c_classify.h"

#include "common/check.h"

namespace eventhit::core {

CClassify::CClassify(
    std::vector<std::vector<double>> positive_scores_per_event) {
  classifiers_.reserve(positive_scores_per_event.size());
  for (auto& scores : positive_scores_per_event) {
    classifiers_.emplace_back(std::move(scores));
  }
}

std::vector<double> CClassify::PValues(const EventScores& scores) const {
  EVENTHIT_CHECK_EQ(scores.existence.size(), classifiers_.size());
  std::vector<double> p(classifiers_.size());
  for (size_t k = 0; k < classifiers_.size(); ++k) {
    p[k] = classifiers_[k].PValue(1.0 - scores.existence[k]);
  }
  return p;
}

std::vector<bool> CClassify::PredictExistence(const EventScores& scores,
                                              double confidence) const {
  EVENTHIT_CHECK_EQ(scores.existence.size(), classifiers_.size());
  std::vector<bool> exists(classifiers_.size());
  for (size_t k = 0; k < classifiers_.size(); ++k) {
    exists[k] = PredictsPresent(k, scores, confidence);
  }
  return exists;
}

bool CClassify::PredictsPresent(size_t k, const EventScores& scores,
                                double confidence) const {
  EVENTHIT_CHECK_LT(k, classifiers_.size());
  return classifiers_[k].PredictPositive(1.0 - scores.existence[k],
                                         confidence);
}

size_t CClassify::CalibrationSize(size_t k) const {
  EVENTHIT_CHECK_LT(k, classifiers_.size());
  return classifiers_[k].calibration_size();
}

}  // namespace eventhit::core
