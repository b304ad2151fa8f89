#include "adapt/recal_loop.h"

#include <utility>
#include <vector>

#include "common/check.h"
#include "obs/log.h"
#include "obs/schema.h"

namespace eventhit::adapt {

RecalLoopMetrics::RecalLoopMetrics(obs::MetricsRegistry& registry)
    : triggers_breach(registry.GetCounter(obs::names::kRecalTriggersBreach)),
      triggers_drift(registry.GetCounter(obs::names::kRecalTriggersDrift)),
      refusals_cooldown(
          registry.GetCounter(obs::names::kRecalRefusalsCooldown)),
      refusals_min_samples(
          registry.GetCounter(obs::names::kRecalRefusalsMinSamples)),
      swaps(registry.GetCounter(obs::names::kRecalSwaps)),
      last_swap_frame(registry.GetGauge(obs::names::kRecalLastSwapFrame)) {}

const RecalLoopMetrics& RecalLoopMetrics::Of(obs::MetricsRegistry* registry) {
  return (registry != nullptr ? *registry : obs::MetricsRegistry::Global())
      .HandleSet<RecalLoopMetrics>();
}

RecalLoop::RecalLoop(const core::EventHitModel* model,
                     core::EventHitStrategy* strategy,
                     const obs::GuarantyAuditor* auditor,
                     const RecalConfig& config,
                     obs::MetricsRegistry* metrics)
    : model_(model),
      strategy_(strategy),
      auditor_(config.breach_trigger ? auditor : nullptr),
      config_(config),
      recalibrator_(model, config.window_capacity, config.tau2),
      detector_(config.drift),
      metrics_(&RecalLoopMetrics::Of(metrics)) {
  EVENTHIT_CHECK(model_ != nullptr);
  EVENTHIT_CHECK(strategy_ != nullptr);
  EVENTHIT_CHECK_GE(config_.min_records, 1u);
  EVENTHIT_CHECK_GE(config_.min_positives, 1u);
}

bool RecalLoop::Observe(int64_t sim_time, const data::Record& truth,
                        const core::EventScores& scores) {
  ++stats_.records_observed;
  recalibrator_.AddLabeledRecord(truth);
  // Positive records drive the martingale: under the live calibration
  // their p-values are ~uniform when stationary and skew to 0 under
  // drift. Existence-threshold strategies (EHO/EHR) carry no C-CLASSIFY,
  // so only the auditor trigger is available for them.
  const core::CClassify* cclassify = strategy_->cclassify();
  if (cclassify != nullptr) {
    std::vector<double> p_values;
    for (size_t k = 0; k < truth.labels.size(); ++k) {
      if (!truth.labels[k].present) continue;
      if (p_values.empty()) p_values = cclassify->PValues(scores);
      if (detector_.Observe(p_values[k]) && stats_.first_alarm_time < 0) {
        stats_.first_alarm_time = sim_time;
      }
    }
  }
  return MaybeRecalibrate(sim_time);
}

bool RecalLoop::MaybeRecalibrate(int64_t sim_time) {
  if (auditor_ != nullptr &&
      auditor_->breach_count() > consumed_breaches_) {
    const int64_t fresh = auditor_->breach_count() - consumed_breaches_;
    consumed_breaches_ = auditor_->breach_count();
    stats_.triggers_breach += fresh;
    metrics_->triggers_breach->Add(fresh);
    trigger_pending_ = true;
  }
  if (detector_.drift_detected() && !drift_consumed_) {
    drift_consumed_ = true;
    ++stats_.triggers_drift;
    metrics_->triggers_drift->Add(1);
    trigger_pending_ = true;
  }
  if (!trigger_pending_) return false;
  if (stats_.first_trigger_time < 0) stats_.first_trigger_time = sim_time;

  if (stats_.last_swap_time >= 0 &&
      sim_time - stats_.last_swap_time < config_.cooldown_frames) {
    ++stats_.refusals_cooldown;
    metrics_->refusals_cooldown->Add(1);
    return false;
  }
  if (!recalibrator_.CanRebuild(config_.min_records,
                                config_.min_positives)) {
    ++stats_.refusals_min_samples;
    metrics_->refusals_min_samples->Add(1);
    return false;
  }
  Swap(sim_time);
  return true;
}

void RecalLoop::Swap(int64_t sim_time) {
  core::Calibrators fresh = recalibrator_.Rebuild();
  // One-call swap: no decision can see old C-CLASSIFY with new C-REGRESS.
  strategy_->set_calibrators(fresh.cclassify.get(), fresh.cregress.get());
  retired_ = std::move(live_);
  live_ = std::move(fresh);

  // A fresh calibration resets the drift evidence; the next alarm must be
  // earned against the new quantiles.
  detector_.Reset();
  drift_consumed_ = false;
  trigger_pending_ = false;

  ++stats_.swaps;
  if (stats_.first_swap_time < 0) stats_.first_swap_time = sim_time;
  stats_.last_swap_time = sim_time;
  metrics_->swaps->Add(1);
  metrics_->last_swap_frame->Set(static_cast<double>(sim_time));
  obs::Logger::Global().Log(
      obs::LogLevel::kInfo, "recal", "hot_swap", sim_time,
      {obs::LogInt("window",
                   static_cast<int64_t>(recalibrator_.size())),
       obs::LogInt("swap", stats_.swaps)});
}

}  // namespace eventhit::adapt
