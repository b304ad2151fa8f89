#include "eval/runner.h"

#include <algorithm>

#include "common/check.h"
#include "core/audit_feed.h"
#include "obs/schema.h"
#include "obs/trace.h"
#include "sim/datasets.h"

namespace eventhit::eval {

namespace {

// Conformal levels need enough calibration samples for a nontrivial
// quantile (ceil((n+1)*0.95) <= n needs n >= 19); below this floor the
// policy-scored subset is abandoned for the full uniform calibration set.
constexpr size_t kMinPolicyCalibRecords = 20;

// Scored subset of a stream-cadence (stride = H) sweep of the calibration
// range walked under the runner's collection policy — the records whose
// scores the deployed marshaller would actually act on. Conformal
// thresholds do not exist yet at calibration time, so the policy's
// feedback loop runs on a raw-score proxy: any_open = (max existence
// score >= 0.5), the same default existence threshold the uncalibrated
// strategy uses.
std::vector<data::Record> PolicyScoredCalibRecords(
    const TaskEnvironment& env, const RunnerConfig& config,
    const core::EventHitModel& model, const ExecutionContext& ctx) {
  std::vector<data::Record> sweep = data::StridedRecords(
      env.video(), env.task(), env.extractor(), env.splits().calib,
      env.horizon());
  const std::vector<core::EventScores> scores =
      core::PredictBatch(model, sweep, ctx, config.predict_batch);
  std::unique_ptr<sched::CollectPolicy> policy =
      sched::MakeCollectPolicy(config.collect_policy);
  std::vector<data::Record> scored;
  scored.reserve(sweep.size());
  bool have_last = false;
  for (size_t h = 0; h < sweep.size(); ++h) {
    if (have_last && !policy->ShouldScore(static_cast<int64_t>(h))) continue;
    have_last = true;
    double max_existence = 0.0;
    for (const double b : scores[h].existence) {
      max_existence = std::max(max_existence, b);
    }
    sched::ScoreObservation observation;
    observation.horizon_index = static_cast<int64_t>(h);
    observation.max_existence = max_existence;
    observation.any_open = max_existence >= 0.5;
    policy->Observe(observation);
    scored.push_back(std::move(sweep[h]));
  }
  return scored;
}

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

TrainedEventHit TrainEventHit(const TaskEnvironment& env,
                              const RunnerConfig& config, double tau2,
                              const ExecutionContext& ctx) {
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
    trained.history = trained.model->Train(env.train_records());
  }
  // Select the inference backend BEFORE calibration: the conformal
  // constructors below score the calibration split through the model, so
  // thresholds are automatically recalibrated on backend-specific scores
  // (mandatory for int8, whose quantization perturbs them —
  // docs/BACKENDS.md).
  if (config.nn_backend == nn::BackendKind::kInt8) {
    trained.model->CalibrateInt8(env.calib_records());
  }
  trained.model->SetInferenceBackend(config.nn_backend);
  {
    obs::TraceSpan span(obs::names::kSpanRunnerCalibrate);
    // Calibrate under the collection policy used at test time: thresholds
    // built on the scored subset of a policy walk see exactly the score
    // distribution the deployed marshaller consults.
    const std::vector<data::Record>* calib = &env.calib_records();
    std::vector<data::Record> policy_calib;
    if (config.collect_policy.kind != sched::CollectPolicyKind::kFull) {
      policy_calib =
          PolicyScoredCalibRecords(env, config, *trained.model, ctx);
      if (policy_calib.size() >= kMinPolicyCalibRecords) {
        calib = &policy_calib;
      }
    }
    trained.cclassify =
        std::make_unique<core::CClassify>(*trained.model, *calib, ctx);
    trained.cregress =
        std::make_unique<core::CRegress>(*trained.model, *calib, tau2, ctx);
  }
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

std::vector<core::MarshalDecision> DecisionsWithPolicy(
    const core::EventHitStrategy& strategy,
    const std::vector<core::EventScores>& scores,
    const sched::CollectPolicySpec& spec, int collection_window, int horizon,
    const sched::LocalCostModel& cost, PolicyWalkStats* stats,
    const ExecutionContext& ctx) {
  if (stats != nullptr) *stats = PolicyWalkStats();
  if (spec.kind == sched::CollectPolicyKind::kFull) {
    // Full rate: same decisions (and parallel schedule) as the legacy
    // path, with every frame charged to the local side of the ledger.
    std::vector<core::MarshalDecision> decisions =
        DecisionsFromScores(strategy, scores, ctx);
    if (stats != nullptr) {
      for (size_t h = 0; h < scores.size(); ++h) {
        const int64_t segment =
            h == 0 ? static_cast<int64_t>(collection_window)
                   : static_cast<int64_t>(horizon);
        ++stats->horizons_scored;
        stats->frames_scored += segment;
        stats->local_mflops +=
            static_cast<double>(segment) * cost.feature_mflops_per_frame +
            cost.forward_mflops_per_boundary;
      }
    }
    return decisions;
  }
  // The policy's schedule feeds on its own scored observations, so the
  // walk is inherently sequential.
  obs::TraceSpan span(obs::names::kSpanRunnerDecideBatch);
  std::unique_ptr<sched::CollectPolicy> policy = sched::MakeCollectPolicy(spec);
  std::vector<core::MarshalDecision> decisions;
  decisions.reserve(scores.size());
  for (size_t h = 0; h < scores.size(); ++h) {
    const bool scored =
        decisions.empty() || policy->ShouldScore(static_cast<int64_t>(h));
    const int64_t segment = h == 0 ? static_cast<int64_t>(collection_window)
                                   : static_cast<int64_t>(horizon);
    if (scored) {
      decisions.push_back(strategy.DecideFromScores(scores[h]));
      const core::MarshalDecision& decision = decisions.back();
      sched::ScoreObservation observation;
      observation.horizon_index = static_cast<int64_t>(h);
      observation.max_existence = decision.max_existence;
      for (const bool open : decision.exists) {
        if (open) observation.any_open = true;
      }
      policy->Observe(observation);
      if (stats != nullptr) {
        // A scored boundary only needs the M window frames extracted —
        // frames outside every window are skipped even at full duty.
        const int64_t frames = std::min<int64_t>(collection_window, segment);
        ++stats->horizons_scored;
        stats->frames_scored += frames;
        stats->frames_skipped += segment - frames;
        stats->local_mflops +=
            static_cast<double>(frames) * cost.feature_mflops_per_frame +
            cost.forward_mflops_per_boundary;
        stats->saved_mflops += static_cast<double>(segment - frames) *
                               cost.feature_mflops_per_frame;
      }
    } else {
      decisions.push_back(decisions.back());
      if (stats != nullptr) {
        ++stats->horizons_reused;
        stats->frames_skipped += segment;
        stats->saved_mflops +=
            static_cast<double>(segment) * cost.feature_mflops_per_frame +
            cost.forward_mflops_per_boundary;
      }
    }
  }
  return decisions;
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
