#include "core/c_classify.h"

#include "common/check.h"

namespace eventhit::core {

CClassify::CClassify(const EventHitModel& model,
                     const std::vector<data::Record>& calibration,
                     const ExecutionContext& ctx) {
  const size_t k_events = model.config().num_events;
  const std::vector<EventScores> all_scores =
      PredictBatch(model, calibration, ctx);
  std::vector<std::vector<double>> positive_scores(k_events);
  for (size_t i = 0; i < calibration.size(); ++i) {
    const data::Record& record = calibration[i];
    EVENTHIT_CHECK_EQ(record.labels.size(), k_events);
    for (size_t k = 0; k < k_events; ++k) {
      if (record.labels[k].present) {
        positive_scores[k].push_back(1.0 - all_scores[i].existence[k]);
      }
    }
  }
  classifiers_.reserve(k_events);
  for (auto& scores : positive_scores) {
    classifiers_.emplace_back(std::move(scores));
  }
}

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
