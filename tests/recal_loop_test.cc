// State-machine tests for the online recalibration loop (DESIGN.md §5j):
// trigger sources (auditor breach latch, drift martingale), the cooldown
// and min-sample guards, hot-swap atomicity against the live strategy, and
// byte-identity of the inline and deferred marshaller paths with per-path
// loops armed.
#include "adapt/recal_loop.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/c_classify.h"
#include "core/c_regress.h"
#include "core/calibration.h"
#include "core/eventhit_model.h"
#include "core/marshaller.h"
#include "data/record_extractor.h"
#include "data/tasks.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "sim/drift_scenario.h"
#include "sim/synthetic_video.h"

namespace eventhit::adapt {
namespace {

constexpr int kWindow = 4;
constexpr int kHorizon = 15;
constexpr size_t kDim = 2;

core::EventHitConfig TinyConfig() {
  core::EventHitConfig config;
  config.collection_window = kWindow;
  config.horizon = kHorizon;
  config.feature_dim = kDim;
  config.num_events = 1;
  config.lstm_hidden = 6;
  config.shared_dim = 6;
  config.event_hidden = 8;
  config.epochs = 2;
  return config;
}

data::Record MakeRecord(bool present, float level, Rng& rng) {
  data::Record record;
  record.covariates.resize(kWindow * kDim);
  for (auto& v : record.covariates) {
    v = level + static_cast<float>(rng.Gaussian(0, 0.05));
  }
  data::EventLabel label;
  if (present) {
    label.present = true;
    label.start = 3;
    label.end = 8;
  }
  record.labels.push_back(label);
  return record;
}

// Synthetic C-CLASSIFY whose calibration non-conformities all sit near 0:
// any probe whose existence score is below ~0.97 lands beyond the whole
// calibration set and earns the minimal p-value 1/(n+1) — a deterministic
// way to drive the martingale regardless of what the tiny model scores.
core::CClassify ExtremeCalibration() {
  std::vector<double> scores;
  for (int i = 0; i < 20; ++i) {
    scores.push_back(0.01 + 0.001 * i);
  }
  return core::CClassify({scores});
}

core::CRegress FlatResiduals() {
  return core::CRegress({{1.0, 2.0, 3.0}}, {{1.0, 2.0, 3.0}}, kHorizon);
}

core::EventHitStrategyOptions EhcrOptions() {
  core::EventHitStrategyOptions options;
  options.use_cclassify = true;
  options.use_cregress = true;
  options.confidence = 0.9;
  options.coverage = 0.9;
  return options;
}

obs::AuditConfig FastAuditConfig() {
  obs::AuditConfig config;
  config.confidence = 0.9;
  config.coverage = 0.9;
  config.fast_window = 4;
  config.slow_window = 8;
  return config;
}

void ForceBreach(obs::GuarantyAuditor& auditor, obs::AuditGuarantee which,
                 int64_t t0) {
  for (int i = 0; i < 8; ++i) {
    obs::AuditOutcome outcome;
    outcome.sim_time = t0 + i;
    outcome.event = 0;
    outcome.truth_present = true;
    if (which == obs::AuditGuarantee::kMiss) {
      outcome.predicted_present = false;
    } else {
      outcome.predicted_present = true;
      outcome.start_covered = false;
      outcome.end_covered = false;
    }
    auditor.Observe(outcome);
  }
  ASSERT_TRUE(auditor.any_breach());
}

TEST(RecalLoopTest, BreachLatchTriggersSwap) {
  core::EventHitModel model(TinyConfig());
  const core::CClassify cclassify = ExtremeCalibration();
  const core::CRegress cregress = FlatResiduals();
  core::EventHitStrategy strategy(&model, &cclassify, &cregress,
                                  EhcrOptions());
  obs::MetricsRegistry registry;
  obs::GuarantyAuditor auditor(FastAuditConfig(), &registry);

  RecalConfig config;
  config.min_records = 1;
  config.min_positives = 1;
  RecalLoop loop(&model, &strategy, &auditor, config, &registry);

  // Quiet stream: no trigger, no swap.
  Rng rng(1);
  const data::Record quiet = MakeRecord(true, 0.5f, rng);
  EXPECT_FALSE(loop.Observe(10, quiet, model.Predict(quiet)));
  EXPECT_EQ(loop.stats().swaps, 0);
  EXPECT_FALSE(loop.trigger_pending());

  ForceBreach(auditor, obs::AuditGuarantee::kMiss, 20);
  const data::Record record = MakeRecord(true, 0.5f, rng);
  EXPECT_TRUE(loop.Observe(30, record, model.Predict(record)));
  EXPECT_EQ(loop.stats().triggers_breach, 1);
  EXPECT_EQ(loop.stats().triggers_drift, 0);
  EXPECT_EQ(loop.stats().swaps, 1);
  EXPECT_EQ(loop.stats().first_trigger_time, 30);
  EXPECT_EQ(loop.stats().first_swap_time, 30);
  EXPECT_FALSE(loop.trigger_pending());
  // The strategy now points at the rebuilt generation, not the originals.
  EXPECT_NE(strategy.cclassify(), &cclassify);
  EXPECT_NE(strategy.cregress(), &cregress);

  // The latch was consumed: no re-trigger from the same sticky breach.
  EXPECT_FALSE(loop.Observe(40, record, model.Predict(record)));
  EXPECT_EQ(loop.stats().triggers_breach, 1);
  EXPECT_EQ(loop.stats().swaps, 1);
}

TEST(RecalLoopTest, MartingaleAlarmTriggersSwapWithoutAuditor) {
  core::EventHitModel model(TinyConfig());
  const core::CClassify cclassify = ExtremeCalibration();
  const core::CRegress cregress = FlatResiduals();
  core::EventHitStrategy strategy(&model, &cclassify, &cregress,
                                  EhcrOptions());

  RecalConfig config;
  config.min_records = 1;
  config.min_positives = 1;
  // p = 1/21 per drifted positive contributes log(0.2) - 0.8*log(1/21)
  // ~ 0.83 of evidence; two observations cross this threshold.
  config.drift.log_threshold = 1.0;
  obs::MetricsRegistry registry;
  RecalLoop loop(&model, &strategy, nullptr, config, &registry);

  Rng rng(2);
  const data::Record probe = MakeRecord(true, 0.5f, rng);
  // Precondition of the rigged calibration: the probe's p-value is minimal.
  ASSERT_LT(strategy.cclassify()->PValues(model.Predict(probe))[0], 0.1);

  int64_t swap_time = -1;
  for (int64_t t = 0; t < 6 && swap_time < 0; ++t) {
    const data::Record record = MakeRecord(true, 0.5f, rng);
    if (loop.Observe(t, record, model.Predict(record))) swap_time = t;
  }
  ASSERT_GE(swap_time, 0) << "martingale alarm never tripped a swap";
  EXPECT_EQ(loop.stats().triggers_drift, 1);
  EXPECT_EQ(loop.stats().triggers_breach, 0);
  EXPECT_EQ(loop.stats().swaps, 1);
  EXPECT_GE(loop.stats().first_alarm_time, 0);
  EXPECT_LE(loop.stats().first_alarm_time, swap_time);
  // The swap resets the martingale: evidence must be re-earned against the
  // new quantiles.
  EXPECT_FALSE(loop.detector().drift_detected());
  EXPECT_LT(loop.detector().log_martingale(), 1.0);
}

TEST(RecalLoopTest, CooldownSuppressesSecondSwap) {
  core::EventHitModel model(TinyConfig());
  const core::CClassify cclassify = ExtremeCalibration();
  const core::CRegress cregress = FlatResiduals();
  core::EventHitStrategy strategy(&model, &cclassify, &cregress,
                                  EhcrOptions());
  obs::MetricsRegistry registry;
  obs::GuarantyAuditor auditor(FastAuditConfig(), &registry);

  RecalConfig config;
  config.min_records = 1;
  config.min_positives = 1;
  config.cooldown_frames = 1000;
  RecalLoop loop(&model, &strategy, &auditor, config, &registry);

  Rng rng(3);
  ForceBreach(auditor, obs::AuditGuarantee::kMiss, 0);
  const data::Record record = MakeRecord(true, 0.5f, rng);
  ASSERT_TRUE(loop.Observe(100, record, model.Predict(record)));
  ASSERT_EQ(loop.stats().swaps, 1);

  // A second, distinct latch (miscoverage) trips inside the cooldown: the
  // trigger is recorded but the swap is refused and stays pending.
  ForceBreach(auditor, obs::AuditGuarantee::kMiscoverage, 110);
  EXPECT_FALSE(loop.Observe(200, record, model.Predict(record)));
  EXPECT_EQ(loop.stats().triggers_breach, 2);
  EXPECT_EQ(loop.stats().swaps, 1);
  EXPECT_GE(loop.stats().refusals_cooldown, 1);
  EXPECT_TRUE(loop.trigger_pending());

  // Still inside the cooldown window: refused again.
  EXPECT_FALSE(loop.MaybeRecalibrate(1099));
  EXPECT_EQ(loop.stats().swaps, 1);

  // One frame past the cooldown the pending trigger finally lands.
  EXPECT_TRUE(loop.MaybeRecalibrate(1100));
  EXPECT_EQ(loop.stats().swaps, 2);
  EXPECT_FALSE(loop.trigger_pending());
}

TEST(RecalLoopTest, MinSampleGuardRefusesThinWindows) {
  core::EventHitModel model(TinyConfig());
  const core::CClassify cclassify = ExtremeCalibration();
  const core::CRegress cregress = FlatResiduals();
  core::EventHitStrategy strategy(&model, &cclassify, &cregress,
                                  EhcrOptions());
  obs::MetricsRegistry registry;
  obs::GuarantyAuditor auditor(FastAuditConfig(), &registry);

  RecalConfig config;
  config.min_records = 6;
  config.min_positives = 3;
  RecalLoop loop(&model, &strategy, &auditor, config, &registry);

  ForceBreach(auditor, obs::AuditGuarantee::kMiss, 0);
  Rng rng(4);
  // Window too thin: every observation refuses, the trigger stays pending.
  for (int64_t t = 0; t < 4; ++t) {
    const data::Record record = MakeRecord(t % 2 == 0, 0.5f, rng);
    EXPECT_FALSE(loop.Observe(t, record, model.Predict(record)));
  }
  EXPECT_EQ(loop.stats().swaps, 0);
  EXPECT_EQ(loop.stats().refusals_min_samples, 4);
  EXPECT_TRUE(loop.trigger_pending());

  // Records 5 and 6 fill the guard (6 records, 3 positives): the pending
  // trigger lands on the observation that satisfies it, with no new breach.
  const data::Record fifth = MakeRecord(true, 0.5f, rng);
  EXPECT_FALSE(loop.Observe(4, fifth, model.Predict(fifth)));
  const data::Record sixth = MakeRecord(false, 0.5f, rng);
  EXPECT_TRUE(loop.Observe(5, sixth, model.Predict(sixth)));
  EXPECT_EQ(loop.stats().swaps, 1);
  EXPECT_EQ(loop.stats().triggers_breach, 1);
  EXPECT_FALSE(loop.trigger_pending());
}

bool SameDecision(const core::MarshalDecision& a,
                  const core::MarshalDecision& b) {
  if (a.exists != b.exists) return false;
  if (a.intervals.size() != b.intervals.size()) return false;
  for (size_t k = 0; k < a.intervals.size(); ++k) {
    if (a.intervals[k].start != b.intervals[k].start ||
        a.intervals[k].end != b.intervals[k].end) {
      return false;
    }
  }
  return a.max_existence == b.max_existence;
}

TEST(RecalLoopTest, HotSwapIsAtomicAgainstDecisions) {
  core::EventHitModel model(TinyConfig());
  const core::CClassify cclassify = ExtremeCalibration();
  const core::CRegress cregress = FlatResiduals();
  core::EventHitStrategy strategy(&model, &cclassify, &cregress,
                                  EhcrOptions());
  obs::MetricsRegistry registry;
  obs::GuarantyAuditor auditor(FastAuditConfig(), &registry);

  RecalConfig config;
  config.min_records = 1;
  config.min_positives = 1;
  RecalLoop loop(&model, &strategy, &auditor, config, &registry);

  Rng rng(5);
  const data::Record probe = MakeRecord(true, 0.5f, rng);
  const core::EventScores scores = model.Predict(probe);

  // Pre-swap decisions are pinned to the original calibrator generation: a
  // twin strategy holding the same pair decides identically.
  const core::EventHitStrategy twin_old(&model, &cclassify, &cregress,
                                        EhcrOptions());
  const core::MarshalDecision before = strategy.DecideFromScores(scores);
  EXPECT_TRUE(SameDecision(before, twin_old.DecideFromScores(scores)));

  ForceBreach(auditor, obs::AuditGuarantee::kMiss, 0);
  ASSERT_TRUE(loop.Observe(10, probe, scores));

  // Both calibrators changed in the same step — no decision can ever pair
  // the old C-CLASSIFY with the new C-REGRESS or vice versa.
  EXPECT_NE(strategy.cclassify(), &cclassify);
  EXPECT_NE(strategy.cregress(), &cregress);
  const core::MarshalDecision after = strategy.DecideFromScores(scores);
  const core::EventHitStrategy twin_new(&model, strategy.cclassify(),
                                        strategy.cregress(), EhcrOptions());
  EXPECT_TRUE(SameDecision(after, twin_new.DecideFromScores(scores)));
  // And the old generation still decides exactly as before the swap (the
  // loop keeps it alive until the next swap).
  EXPECT_TRUE(SameDecision(before, twin_old.DecideFromScores(scores)));
}

// Inline (PushFrame) and deferred (PushFrameDeferred + CompletePrediction)
// marshaller paths must produce byte-identical decision streams with a
// recalibration loop armed on each — the contract the fleet's batched
// completion path rests on.
TEST(RecalLoopTest, InlineAndDeferredPathsAreByteIdentical) {
  const auto scenario =
      sim::MakeDriftScenario("precursor-shift", 15000, 15000);
  ASSERT_TRUE(scenario.ok());
  const sim::SyntheticVideo video = sim::SyntheticVideo::GenerateWithShift(
      scenario.value().before, scenario.value().after, 11);
  const data::Task task{"parity", sim::DatasetId::kThumos, {0}, {7}};
  data::ExtractorConfig extractor;
  extractor.collection_window = scenario.value().before.collection_window;
  extractor.horizon = scenario.value().before.horizon;

  Rng rng(7);
  const auto train = data::SampleBalancedRecords(
      video, task, extractor,
      sim::Interval{extractor.collection_window, 8000}, 200, 0.5, rng);
  const auto calib = data::SampleUniformRecords(
      video, task, extractor, sim::Interval{8001, 11999}, 300, rng);
  core::EventHitConfig model_config;
  model_config.collection_window = extractor.collection_window;
  model_config.horizon = extractor.horizon;
  model_config.feature_dim = video.feature_dim();
  model_config.num_events = 1;
  model_config.epochs = 6;
  core::EventHitModel model(model_config);
  model.Train(train);
  const core::Calibrators calibrators = core::Calibrate(model, calib, 0.5);
  const core::CClassify& cclassify = *calibrators.cclassify;
  const core::CRegress& cregress = *calibrators.cregress;

  const int64_t stream_begin = 12000;
  const int64_t stream_end = video.num_frames() - extractor.horizon;

  struct PathResult {
    uint64_t digest = 14695981039346656037ULL;
    RecalStats stats;
  };
  const auto run_path = [&](bool deferred) {
    PathResult result;
    core::EventHitStrategy strategy(&model, &cclassify, &cregress,
                                    EhcrOptions());
    obs::AuditConfig audit_config;
    audit_config.confidence = 0.9;
    audit_config.coverage = 0.9;
    audit_config.fast_window = 16;
    audit_config.slow_window = 64;
    audit_config.event_labels = {"E7"};
    obs::MetricsRegistry registry;
    obs::GuarantyAuditor auditor(audit_config, &registry);

    RecalConfig recal_config;
    recal_config.window_capacity = 24;
    recal_config.min_records = 24;
    recal_config.min_positives = 6;
    recal_config.cooldown_frames = 2000;
    recal_config.drift.log_threshold = std::log(1e3);
    RecalLoop loop(&model, &strategy, &auditor, recal_config, &registry);

    core::Marshaller marshaller(&strategy, extractor.collection_window,
                                extractor.horizon, video.feature_dim(), 1);
    const core::EventScores* current_scores = nullptr;
    marshaller.set_decision_callback(
        [&](int64_t anchor, const core::MarshalDecision& decision,
            bool /*reused*/) {
          const int64_t abs_anchor = stream_begin + anchor;
          const data::Record truth =
              data::BuildRecord(video, task, extractor, abs_anchor);
          const data::EventLabel& label = truth.labels[0];
          obs::AuditOutcome outcome;
          outcome.sim_time = abs_anchor;
          outcome.event = 0;
          outcome.truth_present = label.present;
          outcome.predicted_present = decision.exists[0];
          if (label.present && decision.exists[0]) {
            outcome.start_covered =
                decision.intervals[0].start <= label.start;
            outcome.end_covered = decision.intervals[0].end >= label.end;
          }
          auditor.Observe(outcome);

          constexpr uint64_t kPrime = 1099511628211ULL;
          const auto fold = [&](uint64_t v) {
            for (int byte = 0; byte < 8; ++byte) {
              result.digest ^= (v >> (byte * 8)) & 0xffu;
              result.digest *= kPrime;
            }
          };
          fold(static_cast<uint64_t>(abs_anchor));
          fold(decision.exists[0] ? 1 : 0);
          fold(static_cast<uint64_t>(decision.intervals[0].start));
          fold(static_cast<uint64_t>(decision.intervals[0].end));

          // The inline path recomputes the boundary's scores; Predict is
          // deterministic, so they are bit-identical to the deferred
          // path's batched scores by the PR 3 contract.
          if (current_scores != nullptr) {
            loop.Observe(abs_anchor, truth, *current_scores);
          } else {
            loop.Observe(abs_anchor, truth, model.Predict(truth));
          }
        });

    data::Record pending;
    for (int64_t frame = stream_begin; frame < stream_end; ++frame) {
      if (deferred) {
        if (marshaller.PushFrameDeferred(video.FrameFeatures(frame),
                                         &pending)) {
          const core::EventScores scores = model.Predict(pending);
          current_scores = &scores;
          marshaller.CompletePrediction(strategy.DecideFromScores(scores));
          current_scores = nullptr;
        }
      } else {
        marshaller.PushFrame(video.FrameFeatures(frame));
      }
    }
    result.stats = loop.stats();
    return result;
  };

  const PathResult inline_run = run_path(/*deferred=*/false);
  const PathResult deferred_run = run_path(/*deferred=*/true);
  // The parity must be exercised through an actual swap, not vacuously.
  ASSERT_GE(inline_run.stats.swaps, 1);
  EXPECT_EQ(inline_run.digest, deferred_run.digest);
  EXPECT_EQ(inline_run.stats.swaps, deferred_run.stats.swaps);
  EXPECT_EQ(inline_run.stats.first_swap_time,
            deferred_run.stats.first_swap_time);
  EXPECT_EQ(inline_run.stats.triggers_breach,
            deferred_run.stats.triggers_breach);
  EXPECT_EQ(inline_run.stats.records_observed,
            deferred_run.stats.records_observed);
}

TEST(RecalLoopTest, Validation) {
  core::EventHitModel model(TinyConfig());
  const core::CClassify cclassify = ExtremeCalibration();
  const core::CRegress cregress = FlatResiduals();
  core::EventHitStrategy strategy(&model, &cclassify, &cregress,
                                  EhcrOptions());
  RecalConfig config;
  obs::MetricsRegistry registry;
  EXPECT_DEATH(RecalLoop(nullptr, &strategy, nullptr, config, &registry),
               "CHECK failed");
  EXPECT_DEATH(RecalLoop(&model, nullptr, nullptr, config, &registry),
               "CHECK failed");
  RecalConfig zero_min = config;
  zero_min.min_records = 0;
  EXPECT_DEATH(RecalLoop(&model, &strategy, nullptr, zero_min, &registry),
               "CHECK failed");
}

}  // namespace
}  // namespace eventhit::adapt
