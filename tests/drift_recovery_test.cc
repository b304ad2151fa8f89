// Golden end-to-end drift-recovery tests (DESIGN.md §5j): for each
// deterministic drift scenario the breached → recalibrated → restored
// chain must hold with the loop armed while the recal=off control stays
// breached to stream end; runs must be byte-identical across repeats and
// thread counts; and freshly rebuilt conformal wrappers must still satisfy
// the C-CLASSIFY / C-REGRESS budgets on a stationary slice (the property
// the hot swap is allowed to promise).
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/c_classify.h"
#include "core/c_regress.h"
#include "core/eventhit_model.h"
#include "core/recalibrator.h"
#include "core/strategies.h"
#include "data/record_extractor.h"
#include "data/tasks.h"
#include "fleet/recovery_lab.h"
#include "sim/drift_scenario.h"
#include "sim/synthetic_video.h"

namespace eventhit::fleet {
namespace {

// Generous ceiling on time-to-restore: every scenario's golden value is
// well under this (8000 / 5800 / 10200 frames at seed 42); the bound only
// guards against a rig that technically restores but drifts for an epoch.
constexpr int64_t kMaxTimeToRestore = 20000;

class DriftRecoveryTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DriftRecoveryTest, BreachRecalibrateRestoreWithBreachedControl) {
  RecoveryLabConfig config;
  config.scenario = GetParam();
  const auto control = RunRecoveryControl(config);
  ASSERT_TRUE(control.ok()) << control.status().message();
  const RecoveryReport& on = control.value().with_recal;
  const RecoveryReport& off = control.value().without_recal;

  // Both arms share the trained rig and must see the same injected shift.
  EXPECT_EQ(on.scenario, GetParam());
  EXPECT_EQ(on.shift_frame, off.shift_frame);
  EXPECT_GT(on.shift_frame, on.stream_begin);

  // The control arm: drifted guarantees breach and never come back.
  EXPECT_FALSE(off.recal_enabled);
  EXPECT_GE(off.breach_time, off.shift_frame);
  EXPECT_TRUE(off.end_breached);
  EXPECT_EQ(off.restore_time, -1);
  EXPECT_EQ(off.time_to_restore, -1);
  EXPECT_EQ(off.recal.swaps, 0);
  EXPECT_EQ(off.swap_count, 0);

  // The armed arm walks the full causal chain on the simulated clock:
  // breach after the shift, swap at/after the breach, restore after the
  // swap, all within the pinned budget.
  EXPECT_TRUE(on.recal_enabled);
  ASSERT_GE(on.breach_time, on.shift_frame);
  ASSERT_GE(on.swap_count, 1);
  EXPECT_GE(on.first_swap_time, on.breach_time);
  ASSERT_GE(on.restore_time, on.first_swap_time);
  EXPECT_GT(on.time_to_restore, 0);
  EXPECT_LE(on.time_to_restore, kMaxTimeToRestore);
  EXPECT_EQ(on.recal.swaps, on.swap_count);
  EXPECT_GE(on.recal.triggers_breach + on.recal.triggers_drift, 1);

  // Coverage is visibly broken between shift and swap and visibly repaired
  // after it: the post-swap failure rates sit back inside the audited
  // budgets (with sampling slack) while the post-shift phase exceeded at
  // least one of them — otherwise nothing would have breached.
  const double miss_budget = 1.0 - config.confidence;
  const double miscover_budget = 1.0 - config.coverage;
  EXPECT_GT(on.post_shift.boundaries, 0);
  EXPECT_GT(on.post_swap.boundaries, 0);
  EXPECT_TRUE(on.post_shift.MissRate() > miss_budget ||
              on.post_shift.MiscoverRate() > miscover_budget)
      << "post-shift phase never violated a budget, yet a breach latched";
  EXPECT_LE(on.post_swap.MissRate(), miss_budget + 0.08);
  EXPECT_LE(on.post_swap.MiscoverRate(), miscover_budget + 0.08);

  // Identical stationary warmups: the two arms decide identically until
  // the first swap, so their pre-shift accounting matches exactly.
  EXPECT_EQ(on.pre_shift.boundaries, off.pre_shift.boundaries);
  EXPECT_EQ(on.pre_shift.misses, off.pre_shift.misses);
  EXPECT_EQ(on.pre_shift.miscovered, off.pre_shift.miscovered);
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, DriftRecoveryTest,
                         ::testing::ValuesIn(sim::DriftScenarioNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// One rig, replayed at different calibration thread counts and once more
// at the original count: every observable — the decision digest, the
// causal-chain timestamps, the loop counters — must be byte-identical.
TEST(DriftRecoveryDeterminismTest, ByteIdenticalAcrossThreadsAndRepeats) {
  RecoveryLabConfig config;
  config.scenario = "precursor-shift";
  config.threads = 1;
  const auto one = RunRecovery(config);
  ASSERT_TRUE(one.ok()) << one.status().message();
  config.threads = 4;
  const auto four = RunRecovery(config);
  ASSERT_TRUE(four.ok()) << four.status().message();
  config.threads = 1;
  const auto replay = RunRecovery(config);
  ASSERT_TRUE(replay.ok()) << replay.status().message();

  ASSERT_GE(one.value().swap_count, 1);
  for (const RecoveryReport* other :
       {&four.value(), &replay.value()}) {
    EXPECT_EQ(one.value().decision_digest, other->decision_digest);
    EXPECT_EQ(one.value().breach_time, other->breach_time);
    EXPECT_EQ(one.value().alarm_time, other->alarm_time);
    EXPECT_EQ(one.value().first_swap_time, other->first_swap_time);
    EXPECT_EQ(one.value().swap_count, other->swap_count);
    EXPECT_EQ(one.value().restore_time, other->restore_time);
    EXPECT_EQ(one.value().time_to_restore, other->time_to_restore);
    EXPECT_EQ(one.value().recal.records_observed,
              other->recal.records_observed);
    EXPECT_EQ(one.value().recal.triggers_breach,
              other->recal.triggers_breach);
    EXPECT_EQ(one.value().recal.triggers_drift,
              other->recal.triggers_drift);
  }
}

// With the breach trigger disarmed the martingale alone must close the
// loop: drift alarm → swap → restore, with the auditor reduced to a
// scorer.
TEST(DriftRecoveryDeterminismTest, MartingaleOnlyRecoveryCloses) {
  RecoveryLabConfig config;
  config.scenario = "precursor-shift";
  config.breach_trigger = false;
  const auto run = RunRecovery(config);
  ASSERT_TRUE(run.ok()) << run.status().message();
  const RecoveryReport& report = run.value();
  EXPECT_EQ(report.recal.triggers_breach, 0);
  ASSERT_GE(report.recal.triggers_drift, 1);
  ASSERT_GE(report.alarm_time, report.shift_frame);
  ASSERT_GE(report.swap_count, 1);
  EXPECT_GE(report.first_swap_time, report.alarm_time);
  ASSERT_GE(report.restore_time, report.first_swap_time);
  EXPECT_LE(report.time_to_restore, kMaxTimeToRestore);
}

TEST(DriftRecoveryDeterminismTest, UnknownScenarioIsInvalidArgument) {
  RecoveryLabConfig config;
  config.scenario = "no-such-shift";
  const auto run = RunRecovery(config);
  EXPECT_FALSE(run.ok());
}

// Property test (conformal_validity_test.cc style): calibrators rebuilt by
// the Recalibrator from a rolling window of stationary records must honour
// the same marginal budgets as first-build calibration — the statistical
// contract that makes a hot swap safe, checked on a fresh held-out slice.
TEST(RecalibratedValidityTest, RebuiltCalibratorsKeepBudgetsOnFreshSlice) {
  const auto scenario = sim::MakeDriftScenario("precursor-shift", 60000, 100);
  ASSERT_TRUE(scenario.ok());
  const data::Task task{"recal-validity", sim::DatasetId::kThumos, {0}, {7}};
  const double confidence = 0.9;
  const double alpha = 0.9;

  int64_t positives = 0;
  int64_t misses = 0;
  int64_t endpoints = 0;
  int64_t covered = 0;
  for (const uint64_t seed : {21ULL, 22ULL}) {
    const sim::SyntheticVideo video =
        sim::SyntheticVideo::Generate(scenario.value().before, seed);
    data::ExtractorConfig extractor;
    extractor.collection_window = scenario.value().before.collection_window;
    extractor.horizon = scenario.value().before.horizon;
    const int horizon = extractor.horizon;

    Rng rng(seed * 17 + 1);
    const auto train = data::SampleBalancedRecords(
        video, task, extractor,
        sim::Interval{extractor.collection_window, 20000}, 300, 0.5, rng);
    core::EventHitConfig model_config;
    model_config.collection_window = extractor.collection_window;
    model_config.horizon = horizon;
    model_config.feature_dim = video.feature_dim();
    model_config.num_events = 1;
    model_config.epochs = 8;
    core::EventHitModel model(model_config);
    model.Train(train);

    // Fill the rolling window the way the loop does — one confirmed record
    // at a time — then rebuild both wrappers from it.
    core::Recalibrator recalibrator(&model, /*capacity=*/200, /*tau2=*/0.5);
    for (const auto& record : data::SampleUniformRecords(
             video, task, extractor, sim::Interval{20001, 40000}, 200,
             rng)) {
      recalibrator.AddLabeledRecord(record);
    }
    ASSERT_TRUE(recalibrator.CanRebuild(64, 16));
    const core::Calibrators calibrators = recalibrator.Rebuild();
    const std::unique_ptr<core::CClassify>& cclassify = calibrators.cclassify;
    const std::unique_ptr<core::CRegress>& cregress = calibrators.cregress;

    core::EventHitStrategyOptions options;
    options.use_cclassify = true;
    options.use_cregress = true;
    options.confidence = confidence;
    options.coverage = alpha;
    const core::EventHitStrategy strategy(&model, cclassify.get(),
                                          cregress.get(), options);

    for (const auto& record : data::SampleUniformRecords(
             video, task, extractor,
             sim::Interval{40001, video.num_frames() - horizon - 1}, 300,
             rng)) {
      const data::EventLabel& label = record.labels[0];
      if (!label.present) continue;
      const core::MarshalDecision decision = strategy.Decide(record);
      ++positives;
      if (!decision.exists[0]) {
        ++misses;
        continue;
      }
      // Clamp-aware endpoint scoring, as in conformal_validity_test.cc:
      // an interval pinned at 1 / H cannot fail on that side.
      endpoints += 2;
      if (decision.intervals[0].start <= label.start ||
          decision.intervals[0].start == 1) {
        ++covered;
      }
      if (decision.intervals[0].end >= label.end ||
          decision.intervals[0].end == horizon) {
        ++covered;
      }
    }
  }

  ASSERT_GT(positives, 100);
  ASSERT_GT(endpoints, 100);
  const double miss_rate = static_cast<double>(misses) / positives;
  const double endpoint_coverage = static_cast<double>(covered) / endpoints;
  // C-CLASSIFY Theorem 4.2: P(miss) <= 1 - c, with finite-sample slack.
  EXPECT_LE(miss_rate, (1.0 - confidence) + 0.08);
  // C-REGRESS Theorem 5.2: each endpoint covered w.p. >= alpha.
  EXPECT_GE(endpoint_coverage, alpha - 0.07);
}

}  // namespace
}  // namespace eventhit::fleet
