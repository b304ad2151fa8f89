#include "core/calibration.h"

#include <cmath>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/interval_extraction.h"
#include "sim/interval.h"

namespace eventhit::core {

bool HasPresentEvent(const data::Record& record) {
  for (const data::EventLabel& label : record.labels) {
    if (label.present) return true;
  }
  return false;
}

Calibrators Calibrate(const EventHitModel& model,
                      std::span<const data::Record> calibration, double tau2,
                      const ExecutionContext& ctx) {
  const size_t k_events = model.config().num_events;
  std::vector<data::Record> positives;
  for (const data::Record& record : calibration) {
    EVENTHIT_CHECK_EQ(record.labels.size(), k_events);
    if (HasPresentEvent(record)) positives.push_back(record);
  }
  const std::vector<EventScores> scores = PredictBatch(model, positives, ctx);
  std::vector<std::vector<double>> nonconformity(k_events);
  std::vector<std::vector<double>> start_residuals(k_events);
  std::vector<std::vector<double>> end_residuals(k_events);
  for (size_t i = 0; i < positives.size(); ++i) {
    for (size_t k = 0; k < k_events; ++k) {
      const data::EventLabel& label = positives[i].labels[k];
      if (!label.present) continue;
      nonconformity[k].push_back(1.0 - scores[i].existence[k]);
      const sim::Interval estimate =
          ExtractOccurrenceInterval(scores[i].occupancy[k], tau2);
      start_residuals[k].push_back(
          std::fabs(static_cast<double>(estimate.start - label.start)));
      end_residuals[k].push_back(
          std::fabs(static_cast<double>(estimate.end - label.end)));
    }
  }
  Calibrators calibrators;
  calibrators.cclassify =
      std::make_unique<CClassify>(std::move(nonconformity));
  calibrators.cregress = std::make_unique<CRegress>(
      std::move(start_residuals), std::move(end_residuals),
      model.config().horizon);
  return calibrators;
}

}  // namespace eventhit::core
