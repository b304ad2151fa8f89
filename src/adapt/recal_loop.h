// The online recalibration loop (DESIGN.md §5j): closes the detect→repair
// cycle that the rest of the deployment stack only observes.
//
// Inputs, all on the simulated stream clock:
//   * auditor breach latches (obs/audit.h) — a conformal budget is being
//     exceeded with statistical evidence;
//   * martingale drift alarms (core/drift_detector.h), fed here with the
//     conformal p-values of confirmed positive records under the live
//     C-CLASSIFY calibration.
//
// On either trigger the loop rebuilds both conformal wrappers from the
// rolling window of confirmed labeled records (core/recalibrator.h) and
// hot-swaps them into the live strategy in one atomic step, guarded by a
// cooldown (no re-swap within `cooldown_frames`) and min-sample checks
// (no rebuild from a window that would yield degenerate quantiles), so
// the loop cannot thrash.
//
// The loop is deterministic: state advances only through Observe /
// MaybeRecalibrate calls on the caller's (simulated) clock, so a seeded
// replay reproduces every trigger, refusal and swap bit-for-bit. Like the
// auditor it is single-stream and not thread-safe; a fleet runs one loop
// per tenant stream.
#ifndef EVENTHIT_ADAPT_RECAL_LOOP_H_
#define EVENTHIT_ADAPT_RECAL_LOOP_H_

#include <cstdint>

#include "core/drift_detector.h"
#include "core/prediction.h"
#include "core/recalibrator.h"
#include "core/strategies.h"
#include "data/record.h"
#include "obs/audit.h"
#include "obs/metrics.h"

namespace eventhit::adapt {

struct RecalConfig {
  /// Rolling labeled-history window (core/recalibrator.h capacity).
  size_t window_capacity = 512;
  /// A swap needs at least this many windowed records...
  size_t min_records = 64;
  /// ...and at least this many positives per event (degenerate-quantile
  /// guard, Recalibrator::CanRebuild).
  size_t min_positives = 16;
  /// No second swap within this many sim frames of the previous one.
  int64_t cooldown_frames = 4000;
  /// Occupancy threshold used when rebuilding C-REGRESS.
  double tau2 = 0.5;
  /// Feed the auditor's breach latches into the loop; false leaves only
  /// the drift-alarm trigger (the auditor still scores every boundary).
  bool breach_trigger = true;
  /// Martingale knobs for the drift-alarm trigger.
  core::DriftDetectorOptions drift;
};

/// Deterministic counters describing everything the loop did. All times
/// are sim frames; -1 means "never happened".
struct RecalStats {
  int64_t records_observed = 0;
  /// Auditor breach latches consumed as triggers.
  int64_t triggers_breach = 0;
  /// Martingale alarms consumed as triggers.
  int64_t triggers_drift = 0;
  int64_t refusals_cooldown = 0;
  int64_t refusals_min_samples = 0;
  int64_t swaps = 0;
  int64_t first_alarm_time = -1;
  int64_t first_trigger_time = -1;
  int64_t first_swap_time = -1;
  int64_t last_swap_time = -1;
};

/// The loop's telemetry handles on one registry, resolved once per
/// registry (obs::MetricsRegistry::HandleSet).
struct RecalLoopMetrics {
  explicit RecalLoopMetrics(obs::MetricsRegistry& registry);
  /// The registry's set; nullptr selects obs::MetricsRegistry::Global().
  static const RecalLoopMetrics& Of(obs::MetricsRegistry* registry);

  obs::Counter* triggers_breach;
  obs::Counter* triggers_drift;
  obs::Counter* refusals_cooldown;
  obs::Counter* refusals_min_samples;
  obs::Counter* swaps;
  obs::Gauge* last_swap_frame;
};

/// One breach/drift-triggered recalibration loop bound to a live strategy.
/// Non-owning: `model`, `strategy` and `auditor` must outlive the loop
/// (`auditor` may be nullptr, as if config.breach_trigger were false). The
/// loop owns the calibrators it builds and keeps the previous generation
/// alive until the next swap completes, so decisions in flight never see a
/// mix of old and new quantiles.
class RecalLoop {
 public:
  RecalLoop(const core::EventHitModel* model,
            core::EventHitStrategy* strategy,
            const obs::GuarantyAuditor* auditor, const RecalConfig& config,
            obs::MetricsRegistry* metrics = nullptr);

  RecalLoop(const RecalLoop&) = delete;
  RecalLoop& operator=(const RecalLoop&) = delete;

  /// Feeds one confirmed labeled record together with the scores the live
  /// model produced for it, then runs the trigger state machine at
  /// `sim_time` (non-decreasing). The record joins the rolling window; if
  /// any event is truly present, the p-values of the present events under
  /// the strategy's *current* C-CLASSIFY feed the drift martingale.
  /// Returns true iff a hot swap happened on this observation.
  bool Observe(int64_t sim_time, const data::Record& truth,
               const core::EventScores& scores);

  /// Runs the trigger/guard state machine without adding a record (e.g. a
  /// final check at stream end). Returns true iff a swap happened.
  bool MaybeRecalibrate(int64_t sim_time);

  /// True when a trigger latched but every attempt so far was refused by a
  /// guard — the loop retries at the next observation.
  bool trigger_pending() const { return trigger_pending_; }

  const RecalStats& stats() const { return stats_; }
  const core::DriftDetector& detector() const { return detector_; }
  const core::Recalibrator& recalibrator() const { return recalibrator_; }
  const RecalConfig& config() const { return config_; }

 private:
  void Swap(int64_t sim_time);

  const core::EventHitModel* const model_;
  core::EventHitStrategy* const strategy_;
  const obs::GuarantyAuditor* const auditor_;
  const RecalConfig config_;

  core::Recalibrator recalibrator_;
  core::DriftDetector detector_;

  // Current and previous calibrator generations (previous kept so a swap
  // never frees quantiles a caller may still reference this boundary).
  core::Calibrators live_;
  core::Calibrators retired_;

  bool trigger_pending_ = false;
  int64_t consumed_breaches_ = 0;
  bool drift_consumed_ = false;
  RecalStats stats_;

  const RecalLoopMetrics* metrics_;  // Valid for the registry's lifetime.
};

}  // namespace eventhit::adapt

#endif  // EVENTHIT_ADAPT_RECAL_LOOP_H_
