#include "fleet/recovery_lab.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <span>
#include <utility>

#include "common/check.h"
#include "common/fnv.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/calibration.h"
#include "data/record_extractor.h"
#include "data/tasks.h"
#include "eval/runner.h"
#include "fleet/stream_pipeline.h"
#include "sim/drift_scenario.h"
#include "sim/synthetic_video.h"

namespace eventhit::fleet {
namespace {

// Stream layout (frames): the shift lands after kBeforeFrames. Training
// anchors come from [M, kTrainEnd), calibration anchors from
// (kTrainEnd, kCalibEnd); streaming starts at kCalibEnd, so the rig sees a
// stationary warmup before the shift.
constexpr int64_t kBeforeFrames = 60000;
constexpr int64_t kAfterFrames = 60000;
constexpr int64_t kTrainEnd = 30000;
constexpr int64_t kCalibEnd = 50000;
constexpr size_t kTrainRecords = 400;
constexpr size_t kCalibRecords = 600;
constexpr int kEpochs = 10;
// Burn-rate audit windows, shrunk from the fleet's 32/256 so breaches
// resolve within the post-shift sample the rig can afford (one audited
// boundary per horizon).
constexpr int kAuditFastWindow = 16;
constexpr int kAuditSlowWindow = 64;
// Trailing samples per guarantee track for the restore check.
constexpr size_t kRestoreWindow = 16;

// Recalibration-loop knobs sized for the lab's ~100k-frame rigs (smaller
// windows and a ~1e3 average-run-length drift threshold, against the
// deployment defaults that assume millions of quiet observations).
adapt::RecalConfig LabRecalConfig(bool breach_trigger) {
  adapt::RecalConfig config;
  // A window of one horizon-boundary record per 200 frames: 48 records
  // spans ~9.6k frames, so pre-shift records roll out within one cooldown
  // or two of the shift and rebuilds calibrate on the new regime rather
  // than a stale mix.
  config.window_capacity = 48;
  config.min_records = 48;
  config.min_positives = 10;
  config.cooldown_frames = 3000;
  config.breach_trigger = breach_trigger;
  // ~1e3 average run length: the lab streams tens of thousands of quiet
  // observations at most, not the 1e5 the deployment default assumes.
  config.drift.log_threshold = std::log(1e3);
  return config;
}

// The trained, calibrated half of the rig — shared by the recal=on run and
// its recal=off control so both stream the identical model.
struct Rig {
  sim::SyntheticVideo video;
  data::Task task;
  sim::DatasetSpec spec;  // The stationary regime: the stream's M and H.
  eval::TrainedEventHit trained;
};

Result<Rig> BuildRig(const RecoveryLabConfig& config) {
  auto scenario =
      sim::MakeDriftScenario(config.scenario, kBeforeFrames, kAfterFrames);
  if (!scenario.ok()) return scenario.status();

  Rig rig;
  rig.spec = scenario.value().before;
  rig.video = sim::SyntheticVideo::GenerateWithShift(
      scenario.value().before, scenario.value().after, config.seed);
  rig.task = data::Task{"drift-lab", sim::DatasetId::kThumos, {0}, {7}};
  const data::ExtractorConfig extractor{rig.spec.collection_window,
                                        rig.spec.horizon};

  Rng rng(SplitSeed(config.seed, 17));
  const auto train = data::SampleBalancedRecords(
      rig.video, rig.task, extractor,
      sim::Interval{extractor.collection_window, kTrainEnd}, kTrainRecords,
      0.5, rng);
  const auto calib = data::SampleUniformRecords(
      rig.video, rig.task, extractor,
      sim::Interval{kTrainEnd + 1, kCalibEnd - 1}, kCalibRecords, rng);

  core::EventHitConfig model_config;
  model_config.collection_window = extractor.collection_window;
  model_config.horizon = extractor.horizon;
  model_config.feature_dim = rig.video.feature_dim();
  model_config.num_events = 1;
  model_config.epochs = kEpochs;
  eval::TrainedEventHit& trained = rig.trained;
  trained.model = std::make_unique<core::EventHitModel>(model_config);
  trained.model->Train(train);

  const ExecutionContext ctx(config.threads, config.seed);
  // tau2 0.5: the occupancy threshold of the strategy and the recal loop.
  core::Calibrators calibrators =
      core::Calibrate(*trained.model, calib, /*tau2=*/0.5, ctx);
  trained.cclassify = std::move(calibrators.cclassify);
  trained.cregress = std::move(calibrators.cregress);
  return rig;
}

// Rolling failure-indicator window for the restore check: the same
// fast-burn criterion the auditor trips on, evaluated over samples
// collected strictly after the last hot swap.
struct RestoreWindow {
  size_t capacity;
  std::deque<uint8_t> fails;

  void Add(bool fail) {
    fails.push_back(fail ? 1 : 0);
    if (fails.size() > capacity) fails.pop_front();
  }
  void Reset() { fails.clear(); }
  bool Full() const { return fails.size() >= capacity; }
  double Rate() const {
    if (fails.empty()) return 0.0;
    int64_t sum = 0;
    for (const uint8_t f : fails) sum += f;
    return static_cast<double>(sum) / fails.size();
  }
};

RecoveryReport StreamArm(const Rig& rig, const RecoveryLabConfig& config,
                         bool recal_on) {
  RecoveryReport report;
  report.scenario = config.scenario;
  report.recal_enabled = recal_on;
  report.shift_frame = rig.video.shift_frame();
  report.stream_begin = kCalibEnd;
  report.stream_end = rig.video.num_frames() - rig.spec.horizon;
  report.decision_digest = kFnvOffset;

  // A fault-free, full-rate fleet stream over the drifting video from
  // kCalibEnd on: its clock's frame 0 is video frame stream_begin.
  FleetConfig fleet;
  fleet.confidence = config.confidence;
  fleet.coverage = config.coverage;
  fleet.audit_fast_window = kAuditFastWindow;
  fleet.audit_slow_window = kAuditSlowWindow;
  fleet.recal = recal_on;
  fleet.recal_config = LabRecalConfig(config.breach_trigger);
  fleet.provenance = false;
  StreamSettings settings;
  settings.stream_index = 0;
  settings.spec = rig.spec;
  settings.push_frames = report.stream_end - report.stream_begin;
  PipelineSinks sinks;
  sinks.event_labels = {"E7"};
  StreamPipeline pipeline(fleet, settings, rig.task, rig.trained, rig.video,
                          report.stream_begin, sinks);

  // The auditor's fast-burn thresholds define both breach and restore.
  const obs::GuarantyAuditor& auditor = pipeline.auditor();
  const double miss_burn =
      auditor.FastBurnThreshold(obs::AuditGuarantee::kMiss);
  const double miscover_burn =
      auditor.FastBurnThreshold(obs::AuditGuarantee::kMiscoverage);
  RestoreWindow miss_window{kRestoreWindow, {}};
  RestoreWindow cover_window{kRestoreWindow, {}};
  int64_t swaps_seen = 0;

  pipeline.set_boundary_observer(
      [&](int64_t anchor, const core::MarshalDecision& decision,
          std::span<const obs::AuditOutcome> outcomes) {
        EVENTHIT_CHECK_EQ(outcomes.size(), 1u);
        const int64_t frame = report.stream_begin + anchor;
        const obs::AuditOutcome& outcome = outcomes[0];
        const bool present = outcome.truth_present;
        const bool predicted = outcome.predicted_present;
        const sim::Interval& interval = decision.intervals[0];
        if (report.breach_time < 0 && auditor.any_breach()) {
          report.breach_time = frame;
        }
        // The recal step ran before this observer: a swap on this
        // boundary already shows in the loop's count.
        const adapt::RecalStats* recal = pipeline.recal_stats();
        const bool swapped = recal != nullptr && recal->swaps > swaps_seen;
        if (swapped) swaps_seen = recal->swaps;

        RecoveryPhase* phase = &report.pre_shift;
        if (frame >= report.shift_frame) {
          phase = report.first_swap_time >= 0 ? &report.post_swap
                                              : &report.post_shift;
        }
        ++phase->boundaries;
        if (predicted) phase->relayed_frames += interval.length();
        if (present) {
          ++phase->positives;
          if (!predicted) ++phase->misses;
        }
        if (present && predicted) {
          phase->endpoints += 2;
          phase->miscovered += (outcome.start_covered ? 0 : 1) +
                               (outcome.end_covered ? 0 : 1);
        }

        uint64_t& digest = report.decision_digest;
        digest = FnvU64(digest, static_cast<uint64_t>(frame));
        digest = FnvU64(digest, predicted ? 1 : 0);
        digest = FnvU64(digest, static_cast<uint64_t>(interval.start));
        digest = FnvU64(digest, static_cast<uint64_t>(interval.end));

        // Restore tracking: indicators accumulate only after a swap, and
        // every swap restarts them.
        if (swapped) {
          if (report.first_swap_time < 0) report.first_swap_time = frame;
          miss_window.Reset();
          cover_window.Reset();
          report.restore_time = -1;
        } else if (report.first_swap_time >= 0) {
          if (present) miss_window.Add(!predicted);
          if (present && predicted) {
            cover_window.Add(!outcome.start_covered);
            cover_window.Add(!outcome.end_covered);
          }
          if (report.restore_time < 0 && miss_window.Full() &&
              cover_window.Full() && miss_window.Rate() <= miss_burn &&
              cover_window.Rate() <= miscover_burn) {
            report.restore_time = frame;
          }
        }
      });
  RunInline(pipeline, *rig.trained.model);
  report.end_breached = auditor.any_breach();
  if (const adapt::RecalStats* recal = pipeline.recal_stats()) {
    report.recal = *recal;
    for (int64_t* t :
         {&report.recal.first_alarm_time, &report.recal.first_trigger_time,
          &report.recal.first_swap_time, &report.recal.last_swap_time}) {
      if (*t >= 0) *t += report.stream_begin;
    }
    report.alarm_time = report.recal.first_alarm_time;
    report.swap_count = report.recal.swaps;
  }

  int64_t trigger_time = -1;
  for (const int64_t t : {report.breach_time, report.alarm_time}) {
    if (t < 0) continue;
    trigger_time = trigger_time < 0 ? t : std::min(trigger_time, t);
  }
  if (report.restore_time >= 0 && trigger_time >= 0) {
    report.time_to_restore = report.restore_time - trigger_time;
  }
  const double pre_spill = report.pre_shift.SpillPerBoundary();
  const RecoveryPhase& after_phase =
      report.swap_count > 0 ? report.post_swap : report.post_shift;
  report.spill_overshoot =
      pre_spill > 0.0 ? after_phase.SpillPerBoundary() / pre_spill : 0.0;
  return report;
}

}  // namespace

Result<RecoveryReport> RunRecovery(const RecoveryLabConfig& config) {
  auto rig = BuildRig(config);
  if (!rig.ok()) return rig.status();
  return StreamArm(rig.value(), config, config.recal);
}

Result<RecoveryControl> RunRecoveryControl(const RecoveryLabConfig& config) {
  auto rig = BuildRig(config);
  if (!rig.ok()) return rig.status();
  RecoveryControl control;
  control.with_recal = StreamArm(rig.value(), config, /*recal_on=*/true);
  control.without_recal =
      StreamArm(rig.value(), config, /*recal_on=*/false);
  return control;
}

}  // namespace eventhit::fleet
