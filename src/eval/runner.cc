#include "eval/runner.h"

#include <memory>
#include <utility>

#include "common/check.h"
#include "core/audit_feed.h"
#include "core/calibration.h"
#include "obs/metrics.h"
#include "obs/schema.h"
#include "obs/trace.h"
#include "sim/datasets.h"

namespace eventhit::eval {

namespace {

// Conformal levels need enough calibration samples for a nontrivial
// quantile (ceil((n+1)*0.95) <= n needs n >= 19); below this floor the
// policy-scored subset is abandoned for the full uniform calibration set.
constexpr size_t kMinPolicyCalibRecords = 20;

}  // namespace

TaskEnvironment TaskEnvironment::Build(const data::Task& task,
                                       const RunnerConfig& config) {
  obs::TraceSpan span(obs::names::kSpanRunnerBuildEnv);
  TaskEnvironment env;
  env.task_ = task;
  sim::DatasetSpec spec = sim::MakeDatasetSpec(task.dataset);
  if (config.stream_frames_override > 0) {
    // Keep occurrence *rates* fixed while shrinking the stream: counts
    // scale down proportionally, statistics per Table I are unchanged.
    spec.num_frames = config.stream_frames_override;
  }

  Rng rng(config.seed);
  env.video_ = std::make_shared<const sim::SyntheticVideo>(
      sim::SyntheticVideo::Generate(spec, rng.Fork(1)));

  env.extractor_.collection_window = config.collection_window_override > 0
                                         ? config.collection_window_override
                                         : spec.collection_window;
  env.extractor_.horizon = config.horizon_override > 0
                               ? config.horizon_override
                               : spec.horizon;

  env.splits_ = data::ComputeSplits(*env.video_, env.extractor_,
                                    config.train_frac, config.calib_frac);

  Rng train_rng(rng.Fork(2));
  Rng calib_rng(rng.Fork(3));
  Rng test_rng(rng.Fork(4));
  env.train_ = data::SampleBalancedRecords(
      *env.video_, task, env.extractor_, env.splits_.train,
      config.train_records, config.train_positive_fraction, train_rng);
  env.calib_ = data::SampleUniformRecords(*env.video_, task, env.extractor_,
                                          env.splits_.calib,
                                          config.calib_records, calib_rng);
  env.test_ = data::SampleUniformRecords(*env.video_, task, env.extractor_,
                                         env.splits_.test,
                                         config.test_records, test_rng);
  return env;
}

namespace {

// TrainAndCalibrate, handing the per-epoch training statistics to
// `history` when it is non-null.
TrainedEventHit TrainAndCalibrateImpl(
    const TaskEnvironment& env, const RunnerConfig& config, double tau2,
    const ExecutionContext& ctx,
    std::vector<core::TrainEpochStats>* history) {
  TrainedEventHit trained;
  core::EventHitConfig model_config = config.model_template;
  model_config.collection_window = env.collection_window();
  model_config.horizon = env.horizon();
  model_config.feature_dim = env.video().feature_dim();
  model_config.num_events = env.task().event_indices.size();
  model_config.seed = config.seed ^ 0x9E3779B97F4A7C15ULL;

  trained.model = std::make_unique<core::EventHitModel>(model_config);
  {
    obs::TraceSpan span(obs::names::kSpanRunnerTrain);
    std::vector<core::TrainEpochStats> stats =
        trained.model->Train(env.train_records());
    if (history != nullptr) *history = std::move(stats);
  }
  // Select the inference backend BEFORE calibration: core::Calibrate below
  // scores the calibration split through the model, so thresholds are
  // built on backend-specific scores (simd's fused multiply-adds move them
  // off blocked's bits — docs/BACKENDS.md).
  trained.model->SetInferenceBackend(config.nn_backend);
  {
    obs::TraceSpan span(obs::names::kSpanRunnerCalibrate);
    // Calibrate under the collection policy used at test time: thresholds
    // built on the scored subset of a policy walk see exactly the score
    // distribution the deployed marshaller consults.
    const std::vector<data::Record>* calib = &env.calib_records();
    std::vector<data::Record> policy_calib;
    if (config.collect_policy.kind != sched::CollectPolicyKind::kFull) {
      // No conformal thresholds exist yet, so the policy's feedback runs
      // on the uncalibrated strategy: existence threshold tau1 = 0.5.
      const core::EventHitStrategy uncalibrated(
          trained.model.get(), nullptr, nullptr,
          core::EventHitStrategyOptions());
      PolicyWalk walk = WalkPolicy(env, env.splits().calib, uncalibrated,
                                   config.collect_policy);
      for (size_t i = 0; i < walk.records.size(); ++i) {
        if (!walk.reused[i]) policy_calib.push_back(std::move(walk.records[i]));
      }
      if (policy_calib.size() >= kMinPolicyCalibRecords) {
        calib = &policy_calib;
      }
    }
    core::Calibrators calibrators =
        core::Calibrate(*trained.model, *calib, tau2, ctx);
    trained.cclassify = std::move(calibrators.cclassify);
    trained.cregress = std::move(calibrators.cregress);
  }
  return trained;
}

}  // namespace

TrainedEventHit TrainAndCalibrate(const TaskEnvironment& env,
                                  const RunnerConfig& config, double tau2,
                                  const ExecutionContext& ctx) {
  return TrainAndCalibrateImpl(env, config, tau2, ctx, nullptr);
}

TrainedEventHit TrainEventHit(const TaskEnvironment& env,
                              const RunnerConfig& config, double tau2,
                              const ExecutionContext& ctx) {
  std::vector<core::TrainEpochStats> history;
  TrainedEventHit trained =
      TrainAndCalibrateImpl(env, config, tau2, ctx, &history);
  trained.history = std::move(history);
  {
    obs::TraceSpan span(obs::names::kSpanRunnerPredictBatch);
    trained.test_scores = core::PredictBatch(*trained.model,
                                             env.test_records(), ctx,
                                             config.predict_batch);
  }
  return trained;
}

Metrics EvaluateStrategy(const core::MarshalStrategy& strategy,
                         const std::vector<data::Record>& test, int horizon,
                         const ExecutionContext& ctx) {
  obs::TraceSpan span(obs::names::kSpanRunnerDecideBatch);
  std::vector<core::MarshalDecision> decisions(test.size());
  ctx.ParallelFor(test.size(), [&](size_t i) {
    decisions[i] = strategy.Decide(test[i]);
  });
  return ComputeMetrics(test, decisions, horizon);
}

Metrics EvaluateFromScores(const core::EventHitStrategy& strategy,
                           const std::vector<core::EventScores>& scores,
                           const std::vector<data::Record>& test,
                           int horizon, const ExecutionContext& ctx) {
  EVENTHIT_CHECK_EQ(scores.size(), test.size());
  return ComputeMetrics(test, DecisionsFromScores(strategy, scores, ctx),
                        horizon);
}

std::vector<core::MarshalDecision> DecisionsFromScores(
    const core::EventHitStrategy& strategy,
    const std::vector<core::EventScores>& scores,
    const ExecutionContext& ctx) {
  obs::TraceSpan span(obs::names::kSpanRunnerDecideBatch);
  std::vector<core::MarshalDecision> decisions(scores.size());
  ctx.ParallelFor(scores.size(), [&](size_t i) {
    decisions[i] = strategy.DecideFromScores(scores[i]);
  });
  return decisions;
}

PolicyWalk WalkPolicy(const TaskEnvironment& env, const sim::Interval& range,
                      const core::EventHitStrategy& strategy,
                      const sched::CollectPolicySpec& spec) {
  EVENTHIT_CHECK(!range.empty());
  const int window = env.collection_window();
  const int horizon = env.horizon();
  // Local frame M-1, the first boundary, is video frame range.start.
  const int64_t first_frame = range.start - (window - 1);
  const int64_t boundaries = (range.end - range.start) / horizon + 1;
  obs::MetricsRegistry metrics;
  core::Marshaller marshaller(&strategy, window, horizon,
                              env.video().feature_dim(),
                              env.task().event_indices.size(), &metrics);
  if (spec.kind != sched::CollectPolicyKind::kFull) {
    marshaller.set_collect_policy(sched::MakeCollectPolicy(spec));
  }
  marshaller.set_cost_model(
      core::LocalCostModelFor(strategy.model()->config()));
  PolicyWalk walk;
  walk.records.reserve(static_cast<size_t>(boundaries));
  walk.decisions.reserve(static_cast<size_t>(boundaries));
  // Calibration reads the covariates of scored boundaries only; the metrics
  // and the audit read labels. A reused boundary's record is its frame and
  // labels, with no window copied.
  marshaller.set_decision_callback(
      [&](int64_t anchor, const core::MarshalDecision& decision,
          bool reused) {
        const int64_t frame = first_frame + anchor;
        if (reused) {
          data::Record& record = walk.records.emplace_back();
          record.frame = frame;
          data::LookupLabels(env.video(), env.task(), env.extractor(), frame,
                             &record.labels);
        } else {
          walk.records.push_back(data::BuildRecord(env.video(), env.task(),
                                                   env.extractor(), frame));
        }
        walk.decisions.push_back(decision);
        walk.reused.push_back(reused);
      });
  const int64_t frames = window + (boundaries - 1) * horizon;
  for (int64_t f = 0; f < frames; ++f) {
    marshaller.PushFrame(marshaller.NextFrameNeedsFeatures()
                             ? env.video().FrameFeatures(first_frame + f)
                             : nullptr);
  }
  walk.stats = marshaller.stats();
  return walk;
}

std::vector<obs::AuditOutcome> BuildAuditOutcomes(
    const std::vector<data::Record>& records,
    const std::vector<core::MarshalDecision>& decisions) {
  EVENTHIT_CHECK_EQ(records.size(), decisions.size());
  std::vector<obs::AuditOutcome> outcomes;
  for (size_t i = 0; i < records.size(); ++i) {
    core::AppendAuditOutcomes(records[i].labels, decisions[i],
                              static_cast<int64_t>(i), /*decision_id=*/-1,
                              &outcomes);
  }
  return outcomes;
}

}  // namespace eventhit::eval
