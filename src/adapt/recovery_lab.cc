#include "adapt/recovery_lab.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/fnv.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/audit_feed.h"
#include "core/marshaller.h"
#include "data/record_extractor.h"
#include "data/tasks.h"
#include "obs/audit.h"
#include "sim/drift_scenario.h"
#include "sim/synthetic_video.h"

namespace eventhit::adapt {
namespace {

// The trained, calibrated half of the rig — shared by the recal=on run and
// its recal=off control so both stream the identical model.
struct Rig {
  sim::SyntheticVideo video;
  data::Task task;
  data::ExtractorConfig extractor;
  std::unique_ptr<core::EventHitModel> model;
  std::unique_ptr<core::CClassify> cclassify;
  std::unique_ptr<core::CRegress> cregress;
};

Result<Rig> BuildRig(const RecoveryLabConfig& config) {
  EVENTHIT_CHECK_GT(config.train_end, 0);
  EVENTHIT_CHECK_LT(config.train_end, config.calib_end);
  EVENTHIT_CHECK_LT(config.calib_end, config.before_frames);
  auto scenario = sim::MakeDriftScenario(
      config.scenario, config.before_frames, config.after_frames);
  if (!scenario.ok()) return scenario.status();

  Rig rig;
  rig.video = sim::SyntheticVideo::GenerateWithShift(
      scenario.value().before, scenario.value().after, config.seed);
  rig.task = data::Task{"drift-lab", sim::DatasetId::kThumos, {0}, {7}};
  rig.extractor.collection_window =
      scenario.value().before.collection_window;
  rig.extractor.horizon = scenario.value().before.horizon;

  Rng rng(SplitSeed(config.seed, 17));
  const sim::Interval train_range{rig.extractor.collection_window,
                                  config.train_end};
  const sim::Interval calib_range{config.train_end + 1,
                                  config.calib_end - 1};
  const auto train = data::SampleBalancedRecords(
      rig.video, rig.task, rig.extractor, train_range,
      config.train_records, 0.5, rng);
  const auto calib = data::SampleUniformRecords(
      rig.video, rig.task, rig.extractor, calib_range,
      config.calib_records, rng);

  core::EventHitConfig model_config;
  model_config.collection_window = rig.extractor.collection_window;
  model_config.horizon = rig.extractor.horizon;
  model_config.feature_dim = rig.video.feature_dim();
  model_config.num_events = 1;
  model_config.epochs = config.epochs;
  rig.model = std::make_unique<core::EventHitModel>(model_config);
  rig.model->Train(train);

  const ExecutionContext ctx(config.threads, config.seed);
  rig.cclassify =
      std::make_unique<core::CClassify>(*rig.model, calib, ctx);
  rig.cregress = std::make_unique<core::CRegress>(*rig.model, calib,
                                                  config.tau2, ctx);
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

RecoveryReport StreamOnce(const Rig& rig, const RecoveryLabConfig& config,
                          bool recal_on) {
  RecoveryReport report;
  report.scenario = config.scenario;
  report.recal_enabled = recal_on;
  report.shift_frame = rig.video.shift_frame();
  report.stream_begin = config.calib_end;
  report.stream_end = rig.video.num_frames() - rig.extractor.horizon;
  report.decision_digest = kFnvOffset;

  core::EventHitStrategyOptions options;
  options.use_cclassify = true;
  options.use_cregress = true;
  options.confidence = config.confidence;
  options.coverage = config.coverage;
  options.tau2 = config.tau2;
  core::EventHitStrategy strategy(rig.model.get(), rig.cclassify.get(),
                                  rig.cregress.get(), options);

  obs::AuditConfig audit_config;
  audit_config.confidence = config.confidence;
  audit_config.coverage = config.coverage;
  audit_config.fast_window = config.audit_fast_window;
  audit_config.slow_window = config.audit_slow_window;
  audit_config.event_labels = {"E7"};
  obs::GuarantyAuditor auditor(audit_config);

  RecalConfig recal_config = config.recal_config;
  recal_config.tau2 = config.tau2;
  std::unique_ptr<RecalLoop> loop;
  if (recal_on) {
    loop = std::make_unique<RecalLoop>(
        rig.model.get(), &strategy,
        config.breach_trigger ? &auditor : nullptr, recal_config);
  }

  core::Marshaller marshaller(
      &strategy, rig.extractor.collection_window, rig.extractor.horizon,
      rig.video.feature_dim(), /*num_events=*/1);

  // The auditor's fast-burn thresholds define both breach and restore.
  const double miss_burn =
      auditor.FastBurnThreshold(obs::AuditGuarantee::kMiss);
  const double miscover_burn =
      auditor.FastBurnThreshold(obs::AuditGuarantee::kMiscoverage);
  RestoreWindow miss_window{static_cast<size_t>(config.restore_window), {}};
  RestoreWindow cover_window{static_cast<size_t>(config.restore_window),
                            {}};

  const core::EventScores* current_scores = nullptr;
  std::vector<data::EventLabel> labels;
  std::vector<obs::AuditOutcome> outcomes;
  // The lab's own relay-free loop: it streams a pre-generated drifting
  // video with its own audit windows and per-phase accounting, so it
  // feeds the shared audit path directly instead of a StreamPipeline.
  marshaller.set_decision_callback(
      [&](int64_t anchor, const core::MarshalDecision& decision,
          bool /*reused*/) {
        const int64_t abs_anchor = report.stream_begin + anchor;
        data::LookupLabels(rig.video, rig.task, rig.extractor, abs_anchor,
                           &labels);
        outcomes.clear();
        core::AppendAuditOutcomes(labels, decision, abs_anchor,
                                  /*decision_id=*/-1, &outcomes);
        const obs::AuditOutcome& outcome = outcomes[0];
        const bool present = outcome.truth_present;
        const bool predicted = outcome.predicted_present;
        const sim::Interval& interval = decision.intervals[0];
        auditor.Observe(outcome);
        if (report.breach_time < 0 && auditor.any_breach()) {
          report.breach_time = abs_anchor;
        }

        RecoveryPhase* phase = &report.pre_shift;
        if (abs_anchor >= report.shift_frame) {
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
        digest = FnvU64(digest, static_cast<uint64_t>(abs_anchor));
        digest = FnvU64(digest, predicted ? 1 : 0);
        digest = FnvU64(digest, static_cast<uint64_t>(interval.start));
        digest = FnvU64(digest, static_cast<uint64_t>(interval.end));

        // Restore tracking: indicators accumulate only after a swap (and
        // restart at every subsequent swap).
        if (report.first_swap_time >= 0) {
          if (present) miss_window.Add(!predicted);
          if (present && predicted) {
            cover_window.Add(!outcome.start_covered);
            cover_window.Add(!outcome.end_covered);
          }
          if (report.restore_time < 0 && miss_window.Full() &&
              cover_window.Full() && miss_window.Rate() <= miss_burn &&
              cover_window.Rate() <= miscover_burn) {
            report.restore_time = abs_anchor;
          }
        }

        if (loop != nullptr) {
          EVENTHIT_CHECK(current_scores != nullptr);
          // The recalibrator keeps the whole record, window and all.
          if (loop->Observe(abs_anchor,
                            data::BuildRecord(rig.video, rig.task,
                                              rig.extractor, abs_anchor),
                            *current_scores)) {
            if (report.first_swap_time < 0) {
              report.first_swap_time = abs_anchor;
            }
            miss_window.Reset();
            cover_window.Reset();
            report.restore_time = -1;
          }
        }
      });

  data::Record pending;
  for (int64_t frame = report.stream_begin; frame < report.stream_end;
       ++frame) {
    if (marshaller.PushFrameDeferred(rig.video.FrameFeatures(frame),
                                     &pending)) {
      const core::EventScores scores = rig.model->Predict(pending);
      current_scores = &scores;
      marshaller.CompletePrediction(strategy.DecideFromScores(scores));
      current_scores = nullptr;
    }
  }
  auditor.Finalize(report.stream_end);
  report.end_breached = auditor.any_breach();
  if (loop != nullptr) {
    report.recal = loop->stats();
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

RecalConfig DefaultLabRecalConfig() {
  RecalConfig config;
  // A window of one horizon-boundary record per 200 frames: 48 records
  // spans ~9.6k frames, so pre-shift records roll out within one cooldown
  // or two of the shift and rebuilds calibrate on the new regime rather
  // than a stale mix.
  config.window_capacity = 48;
  config.min_records = 48;
  config.min_positives = 10;
  config.cooldown_frames = 3000;
  // ~1e3 average run length: the lab streams tens of thousands of quiet
  // observations at most, not the 1e5 the deployment default assumes.
  config.drift.log_threshold = std::log(1e3);
  return config;
}

Result<RecoveryReport> RunRecovery(const RecoveryLabConfig& config) {
  auto rig = BuildRig(config);
  if (!rig.ok()) return rig.status();
  return StreamOnce(rig.value(), config, config.recal);
}

Result<RecoveryControl> RunRecoveryControl(const RecoveryLabConfig& config) {
  auto rig = BuildRig(config);
  if (!rig.ok()) return rig.status();
  RecoveryControl control;
  control.with_recal = StreamOnce(rig.value(), config, /*recal_on=*/true);
  control.without_recal =
      StreamOnce(rig.value(), config, /*recal_on=*/false);
  return control;
}

}  // namespace eventhit::adapt
