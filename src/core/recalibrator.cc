#include "core/recalibrator.h"

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/schema.h"

namespace eventhit::core {

namespace {

// Shared recalibration telemetry (docs/TELEMETRY.md); counters aggregate
// across instances, the window gauge tracks the most recent mutation.
struct RecalMetrics {
  obs::Counter* records_added;
  obs::Counter* rebuilds_cclassify;
  obs::Counter* rebuilds_cregress;
  obs::Gauge* window_size;

  static const RecalMetrics& Get() {
    static const RecalMetrics* metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      auto* m = new RecalMetrics();
      m->records_added =
          registry.GetCounter(obs::names::kRecalibratorRecordsAdded);
      m->rebuilds_cclassify =
          registry.GetCounter(obs::names::kRecalibratorRebuildsCClassify);
      m->rebuilds_cregress =
          registry.GetCounter(obs::names::kRecalibratorRebuildsCRegress);
      m->window_size =
          registry.GetGauge(obs::names::kRecalibratorWindowSize);
      return m;
    }();
    return *metrics;
  }
};

}  // namespace

Recalibrator::Recalibrator(const EventHitModel* model, size_t capacity,
                           double tau2)
    : model_(model), capacity_(capacity), tau2_(tau2) {
  EVENTHIT_CHECK(model_ != nullptr);
  EVENTHIT_CHECK_GT(capacity_, 0u);
}

void Recalibrator::AddLabeledRecord(data::Record record) {
  EVENTHIT_CHECK_EQ(record.labels.size(), model_->config().num_events);
  window_.push_back(std::move(record));
  if (window_.size() > capacity_) window_.pop_front();
  const RecalMetrics& metrics = RecalMetrics::Get();
  metrics.records_added->Add(1);
  metrics.window_size->Set(static_cast<double>(window_.size()));
}

size_t Recalibrator::PositiveCount(size_t k) const {
  EVENTHIT_CHECK_LT(k, model_->config().num_events);
  size_t count = 0;
  for (const data::Record& record : window_) {
    count += record.labels[k].present ? 1 : 0;
  }
  return count;
}

bool Recalibrator::CanRebuild(size_t min_records, size_t min_positives) const {
  if (window_.size() < min_records) return false;
  for (size_t k = 0; k < model_->config().num_events; ++k) {
    if (PositiveCount(k) < min_positives) return false;
  }
  return true;
}

Calibrators Recalibrator::Rebuild() const {
  EVENTHIT_CHECK(CanRebuild(1, 1));
  // The recalibrator has no stream clock of its own; sim_time is the
  // window fill at rebuild time.
  const auto window = static_cast<int64_t>(window_.size());
  const RecalMetrics& metrics = RecalMetrics::Get();
  metrics.rebuilds_cclassify->Add(1);
  obs::Logger::Global().Log(obs::LogLevel::kInfo, "recalibrator",
                            "rebuild_cclassify", window,
                            {obs::LogInt("window", window)});
  metrics.rebuilds_cregress->Add(1);
  obs::Logger::Global().Log(obs::LogLevel::kInfo, "recalibrator",
                            "rebuild_cregress", window,
                            {obs::LogInt("window", window)});
  const std::vector<data::Record> records(window_.begin(), window_.end());
  return Calibrate(*model_, records, tau2_);
}

void Recalibrator::Clear() {
  window_.clear();
  RecalMetrics::Get().window_size->Set(0.0);
}

}  // namespace eventhit::core
