// End-to-end integration tests of the experiment runner: generate stream,
// train EventHit, calibrate, evaluate — on a shrunken THUMOS environment so
// the whole suite stays fast.
#include "eval/runner.h"

#include <gtest/gtest.h>

#include "baselines/oracle.h"
#include "core/calibration.h"
#include "eval/curves.h"
#include "sched/collect_policy.h"

namespace eventhit::eval {
namespace {

RunnerConfig FastConfig(uint64_t seed = 42) {
  RunnerConfig config;
  config.stream_frames_override = 60000;
  config.train_records = 350;
  config.calib_records = 300;
  config.test_records = 250;
  config.model_template.epochs = 10;
  config.seed = seed;
  return config;
}

class RunnerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    task_ = new data::Task(data::FindTask("TA10").value());
    config_ = new RunnerConfig(FastConfig());
    env_ = new TaskEnvironment(TaskEnvironment::Build(*task_, *config_));
    trained_ = new TrainedEventHit(TrainEventHit(*env_, *config_));
  }
  static void TearDownTestSuite() {
    delete trained_;
    delete env_;
    delete config_;
    delete task_;
    trained_ = nullptr;
    env_ = nullptr;
    config_ = nullptr;
    task_ = nullptr;
  }

  static data::Task* task_;
  static RunnerConfig* config_;
  static TaskEnvironment* env_;
  static TrainedEventHit* trained_;
};

data::Task* RunnerTest::task_ = nullptr;
RunnerConfig* RunnerTest::config_ = nullptr;
TaskEnvironment* RunnerTest::env_ = nullptr;
TrainedEventHit* RunnerTest::trained_ = nullptr;

TEST_F(RunnerTest, EnvironmentShape) {
  EXPECT_EQ(env_->video().num_frames(), 60000);
  EXPECT_EQ(env_->collection_window(), 10);
  EXPECT_EQ(env_->horizon(), 200);
  EXPECT_EQ(env_->train_records().size(), 350u);
  EXPECT_EQ(env_->calib_records().size(), 300u);
  EXPECT_EQ(env_->test_records().size(), 250u);
}

TEST_F(RunnerTest, SplitsDoNotLeak) {
  for (const data::Record& record : env_->train_records()) {
    EXPECT_LE(record.frame, env_->splits().train.end);
  }
  for (const data::Record& record : env_->calib_records()) {
    EXPECT_GE(record.frame, env_->splits().calib.start);
    EXPECT_LE(record.frame, env_->splits().calib.end);
  }
  for (const data::Record& record : env_->test_records()) {
    EXPECT_GE(record.frame, env_->splits().test.start);
  }
}

TEST_F(RunnerTest, TrainingLearnsSignal) {
  ASSERT_FALSE(trained_->history.empty());
  EXPECT_LT(trained_->history.back().total_loss,
            trained_->history.front().total_loss);
  EXPECT_EQ(trained_->test_scores.size(), env_->test_records().size());
}

TEST_F(RunnerTest, EhoBeatsChance) {
  core::EventHitStrategyOptions options;
  const core::EventHitStrategy eho(trained_->model.get(), nullptr, nullptr,
                                   options);
  const Metrics metrics = EvaluateFromScores(
      eho, trained_->test_scores, env_->test_records(), env_->horizon());
  EXPECT_GT(metrics.rec, 0.5);
  EXPECT_LT(metrics.spl, 0.3);
}

TEST_F(RunnerTest, AnchorsBehaveAsDefined) {
  const baselines::OptStrategy opt;
  const Metrics opt_metrics =
      EvaluateStrategy(opt, env_->test_records(), env_->horizon());
  EXPECT_DOUBLE_EQ(opt_metrics.rec, 1.0);
  EXPECT_DOUBLE_EQ(opt_metrics.spl, 0.0);

  const baselines::BfStrategy bf(env_->horizon());
  const Metrics bf_metrics =
      EvaluateStrategy(bf, env_->test_records(), env_->horizon());
  EXPECT_DOUBLE_EQ(bf_metrics.rec, 1.0);
  EXPECT_DOUBLE_EQ(bf_metrics.spl, 1.0);
  EXPECT_EQ(bf_metrics.relayed_frames,
            static_cast<int64_t>(env_->test_records().size()) *
                env_->horizon());
}

TEST_F(RunnerTest, ConfidenceSweepMonotoneInRecC) {
  const auto points =
      SweepConfidence(*trained_, *env_, LinearGrid(0.1, 0.99, 8));
  ASSERT_EQ(points.size(), 8u);
  for (size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].metrics.rec_c, points[i - 1].metrics.rec_c - 1e-9);
    EXPECT_GE(points[i].metrics.relayed_frames,
              points[i - 1].metrics.relayed_frames);
  }
}

TEST_F(RunnerTest, CoverageSweepMonotoneInRelays) {
  const auto points =
      SweepCoverage(*trained_, *env_, LinearGrid(0.1, 0.95, 6));
  for (size_t i = 1; i < points.size(); ++i) {
    // Wider conformal bands can only relay more frames.
    EXPECT_GE(points[i].metrics.relayed_frames,
              points[i - 1].metrics.relayed_frames);
    EXPECT_GE(points[i].metrics.rec_r, points[i - 1].metrics.rec_r - 1e-9);
  }
}

TEST_F(RunnerTest, JointSweepReachesHigherRecallThanEho) {
  core::EventHitStrategyOptions options;
  const core::EventHitStrategy eho(trained_->model.get(), nullptr, nullptr,
                                   options);
  const Metrics eho_metrics = EvaluateFromScores(
      eho, trained_->test_scores, env_->test_records(), env_->horizon());
  const auto points = SweepJoint(*trained_, *env_, {0.99}, {0.95});
  ASSERT_EQ(points.size(), 1u);
  EXPECT_GT(points[0].metrics.rec, eho_metrics.rec);
}

TEST_F(RunnerTest, DeterministicAcrossRebuilds) {
  const TaskEnvironment env2 = TaskEnvironment::Build(*task_, *config_);
  ASSERT_EQ(env2.test_records().size(), env_->test_records().size());
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(env2.test_records()[i].frame, env_->test_records()[i].frame);
  }
  const TrainedEventHit trained2 = TrainEventHit(env2, *config_);
  EXPECT_DOUBLE_EQ(trained2.test_scores[0].existence[0],
                   trained_->test_scores[0].existence[0]);
}

core::EventHitStrategy EhcrOf(const TrainedEventHit& trained) {
  core::EventHitStrategyOptions options;
  options.use_cclassify = true;
  options.use_cregress = true;
  return core::EventHitStrategy(trained.model.get(), trained.cclassify.get(),
                                trained.cregress.get(), options);
}

void ExpectSameDecision(const core::MarshalDecision& a,
                        const core::MarshalDecision& b) {
  EXPECT_EQ(a.exists, b.exists);
  EXPECT_EQ(a.intervals, b.intervals);
  EXPECT_EQ(a.max_existence, b.max_existence);
}

TEST_F(RunnerTest, FullRateWalkDecidesLikeBatchedScores) {
  const core::EventHitStrategy ehcr = EhcrOf(*trained_);
  const sim::Interval range = env_->splits().test;
  const PolicyWalk walk =
      WalkPolicy(*env_, range, ehcr, sched::CollectPolicySpec{});
  const int64_t n = static_cast<int64_t>(walk.records.size());
  ASSERT_GT(n, 1);
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(walk.records[i].frame, range.start + i * env_->horizon());
    EXPECT_FALSE(walk.reused[i]);
  }
  EXPECT_GT(range.start + n * env_->horizon(), range.end);

  // Per-record Predict inside the marshaller, batched scores outside.
  const std::vector<core::MarshalDecision> batched = DecisionsFromScores(
      ehcr, core::PredictBatch(*trained_->model, walk.records));
  ASSERT_EQ(static_cast<int64_t>(batched.size()), n);
  for (int64_t i = 0; i < n; ++i) {
    ExpectSameDecision(walk.decisions[i], batched[i]);
  }
  EXPECT_EQ(walk.stats.horizons_predicted, n);
  EXPECT_EQ(walk.stats.horizons_reused, 0);
  EXPECT_EQ(walk.stats.frames_scored + walk.stats.frames_skipped,
            env_->collection_window() + (n - 1) * env_->horizon());
}

TEST_F(RunnerTest, DutyWalkReplaysEachScoredDecisionOnce) {
  const core::EventHitStrategy ehcr = EhcrOf(*trained_);
  const sched::CollectPolicySpec duty =
      sched::ParseCollectPolicy("duty:0.5").value();
  const PolicyWalk walk = WalkPolicy(*env_, env_->splits().test, ehcr, duty);
  const PolicyWalk full = WalkPolicy(*env_, env_->splits().test, ehcr,
                                     sched::CollectPolicySpec{});
  const size_t n = walk.records.size();
  ASSERT_EQ(n, full.records.size());
  ASSERT_GT(n, 2u);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(walk.records[i].frame, full.records[i].frame);
    EXPECT_EQ(walk.reused[i], i % 2 == 1) << "boundary " << i;
    // Scored boundaries decide on their own window, replays carry the
    // preceding scored decision.
    ExpectSameDecision(walk.decisions[i], full.decisions[i - i % 2]);
  }
  EXPECT_EQ(walk.stats.horizons_reused, static_cast<int64_t>(n / 2));
  EXPECT_EQ(walk.stats.frames_scored + walk.stats.frames_skipped,
            full.stats.frames_scored);
}

TEST_F(RunnerTest, PolicyCalibrationUsesTheWalksScoredBoundaries) {
  RunnerConfig config = *config_;
  config.collect_policy = sched::ParseCollectPolicy("duty:0.5").value();
  const TrainedEventHit trained = TrainEventHit(*env_, config);

  const core::EventHitStrategy uncalibrated(
      trained.model.get(), nullptr, nullptr, core::EventHitStrategyOptions());
  const PolicyWalk walk = WalkPolicy(*env_, env_->splits().calib,
                                     uncalibrated, config.collect_policy);
  std::vector<data::Record> scored;
  for (size_t i = 0; i < walk.records.size(); ++i) {
    if (!walk.reused[i]) scored.push_back(walk.records[i]);
  }
  // Enough boundaries that calibration keeps the policy subset.
  ASSERT_GE(scored.size(), 20u);

  const core::Calibrators calibrators =
      core::Calibrate(*trained.model, scored, 0.5);
  const core::CClassify& direct = *calibrators.cclassify;
  ASSERT_GT(direct.CalibrationSize(0), 0u);
  EXPECT_EQ(trained.cclassify->CalibrationSize(0), direct.CalibrationSize(0));
  bool differs_from_uniform = false;
  for (size_t i = 0; i < 25; ++i) {
    const core::EventScores& probe = trained.test_scores[i];
    EXPECT_EQ(trained.cclassify->PValues(probe), direct.PValues(probe))
        << "probe " << i;
    if (trained_->cclassify->PValues(probe) != direct.PValues(probe)) {
      differs_from_uniform = true;
    }
  }
  // The uniform calibration set gives other p-values: the probe sees the
  // policy subset, not a fallback.
  EXPECT_TRUE(differs_from_uniform);
}

TEST(RunnerConfigTest, HorizonAndWindowOverridesApply) {
  RunnerConfig config = FastConfig();
  config.collection_window_override = 20;
  config.horizon_override = 100;
  config.train_records = 50;
  config.calib_records = 50;
  config.test_records = 50;
  const data::Task task = data::FindTask("TA10").value();
  const TaskEnvironment env = TaskEnvironment::Build(task, config);
  EXPECT_EQ(env.collection_window(), 20);
  EXPECT_EQ(env.horizon(), 100);
  EXPECT_EQ(env.test_records()[0].covariates.size(),
            20 * env.video().feature_dim());
}

}  // namespace
}  // namespace eventhit::eval
