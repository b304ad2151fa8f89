// Experiment orchestration shared by the benchmark harness, examples and
// integration tests: builds the synthetic environment for a task, trains
// EventHit, calibrates the conformal wrappers, and evaluates strategies.
#ifndef EVENTHIT_EVAL_RUNNER_H_
#define EVENTHIT_EVAL_RUNNER_H_

#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "core/c_classify.h"
#include "core/c_regress.h"
#include "core/eventhit_model.h"
#include "core/marshaller.h"
#include "core/prediction.h"
#include "core/strategies.h"
#include "data/record_extractor.h"
#include "data/tasks.h"
#include "eval/metrics.h"
#include "nn/backend.h"
#include "obs/audit.h"
#include "sched/collect_policy.h"
#include "sim/synthetic_video.h"

namespace eventhit::eval {

/// Experiment-level knobs. Model architecture/training settings come from
/// `model_template`; the runner fills in the problem shape (M, H, D, K).
struct RunnerConfig {
  size_t train_records = 1000;
  size_t calib_records = 800;
  size_t test_records = 600;
  /// Oversampling target for positives in the training set (training only;
  /// calibration/test stay uniform to preserve exchangeability).
  double train_positive_fraction = 0.5;
  /// Stream fraction used for training / calibration (rest = test).
  double train_frac = 0.55;
  double calib_frac = 0.15;
  /// Overrides of the dataset's default M / H; 0 keeps the default.
  int collection_window_override = 0;
  int horizon_override = 0;
  /// Override of the dataset's stream length; 0 keeps the default. Shrink
  /// for fast tests/benches (event counts scale down proportionally).
  int64_t stream_frames_override = 0;
  /// Architecture + optimisation template (shape fields are overwritten).
  core::EventHitConfig model_template;
  /// Records per batch for the batched GEMM inference path (test-score
  /// precomputation; `--predict-batch` in the CLI). Scores are
  /// bit-identical at any batch size — this only trades throughput against
  /// per-thread scratch size.
  size_t predict_batch = core::kDefaultPredictBatch;
  /// Inference kernel backend (nn/backend.h; `--nn-backend` in the CLI).
  /// Set *before* conformal calibration: TrainEventHit selects it on the
  /// model right after training, so C-CLASSIFY/C-REGRESS thresholds are
  /// calibrated on scores from the same backend that later produces the
  /// test scores (docs/BACKENDS.md).
  nn::BackendKind nn_backend = nn::BackendKind::kBlocked;
  /// Collection scheduling policy (sched/collect_policy.h; the CLI's
  /// `--collect-policy`). kFull keeps the legacy every-boundary path
  /// byte-identical. Anything else makes TrainEventHit calibrate the
  /// conformal wrappers on the *scored boundaries* of a WalkPolicy run
  /// over the calibration range under this same policy, so thresholds see
  /// the score distribution deployment sees.
  sched::CollectPolicySpec collect_policy;
  /// Master seed; vary per trial.
  uint64_t seed = 42;
};

/// The generated world and record sets for one task.
class TaskEnvironment {
 public:
  /// Generates the stream and samples all three record sets.
  static TaskEnvironment Build(const data::Task& task,
                               const RunnerConfig& config);

  const data::Task& task() const { return task_; }
  const sim::SyntheticVideo& video() const { return *video_; }
  const data::ExtractorConfig& extractor() const { return extractor_; }
  int horizon() const { return extractor_.horizon; }
  int collection_window() const { return extractor_.collection_window; }
  const data::SplitRanges& splits() const { return splits_; }

  const std::vector<data::Record>& train_records() const { return train_; }
  const std::vector<data::Record>& calib_records() const { return calib_; }
  const std::vector<data::Record>& test_records() const { return test_; }

 private:
  data::Task task_;
  std::shared_ptr<const sim::SyntheticVideo> video_;
  data::ExtractorConfig extractor_;
  data::SplitRanges splits_;
  std::vector<data::Record> train_;
  std::vector<data::Record> calib_;
  std::vector<data::Record> test_;
};

/// A trained EventHit model with its conformal calibrators, and from
/// TrainEventHit the training history and the precomputed raw scores of
/// every test record (so knob sweeps pay one forward pass per record
/// total).
struct TrainedEventHit {
  std::unique_ptr<core::EventHitModel> model;
  std::unique_ptr<core::CClassify> cclassify;
  std::unique_ptr<core::CRegress> cregress;
  std::vector<core::EventScores> test_scores;
  std::vector<core::TrainEpochStats> history;
};

/// Trains + calibrates EventHit on the environment: the model and its
/// calibrators only (`test_scores` and `history` stay empty), what a fleet
/// keeps of its set-up. `tau2` is the occupancy threshold used for
/// C-REGRESS calibration (the compared algorithms all use 0.5). Training
/// itself is serial (its SGD step order is part of the model definition);
/// conformal calibration (core::Calibrate: one scoring pass over the
/// calibration records with some event present) runs across
/// `ctx.threads()` workers with deterministic, order-preserving
/// reductions.
TrainedEventHit TrainAndCalibrate(
    const TaskEnvironment& env, const RunnerConfig& config, double tau2 = 0.5,
    const ExecutionContext& ctx = ExecutionContext());

/// TrainAndCalibrate plus the per-epoch training history and the scores of
/// every test record (precomputed across `ctx.threads()` workers, in
/// record order).
TrainedEventHit TrainEventHit(const TaskEnvironment& env,
                              const RunnerConfig& config, double tau2 = 0.5,
                              const ExecutionContext& ctx = ExecutionContext());

/// Evaluates a strategy by calling Decide on every test record. Decisions
/// are computed across `ctx.threads()` workers into per-record slots, then
/// scored serially in record order — byte-identical to the serial path.
Metrics EvaluateStrategy(const core::MarshalStrategy& strategy,
                         const std::vector<data::Record>& test, int horizon,
                         const ExecutionContext& ctx = ExecutionContext());

/// Evaluates an EventHit strategy from precomputed scores.
Metrics EvaluateFromScores(const core::EventHitStrategy& strategy,
                           const std::vector<core::EventScores>& scores,
                           const std::vector<data::Record>& test,
                           int horizon, const ExecutionContext& ctx = ExecutionContext());

/// Collects the per-record decisions of an EventHit strategy (for cost /
/// timing accounting).
std::vector<core::MarshalDecision> DecisionsFromScores(
    const core::EventHitStrategy& strategy,
    const std::vector<core::EventScores>& scores,
    const ExecutionContext& ctx = ExecutionContext());

/// The prediction boundaries of one WalkPolicy run, in stream order:
/// each boundary's record (its frame and true labels, and for a scored
/// boundary its covariate window), the decision the marshaller acted on,
/// and whether that decision was a policy replay.
struct PolicyWalk {
  std::vector<data::Record> records;
  std::vector<core::MarshalDecision> decisions;
  std::vector<bool> reused;
  core::MarshallerStats stats;
};

/// Streams `range` of the environment's video through a core::Marshaller
/// that decides with `strategy` under `spec`, inline: each scored
/// boundary runs EventHitModel::Predict on the marshaller's window. The
/// walk starts at frame range.start - (M-1), so the boundaries fall on
/// range.start + kH up to range.end. As in a fleet stream, the policy is
/// installed only when `spec` is not kFull and feature-free frames are
/// pushed as nullptr; every walk, full rate included, is priced with
/// core::LocalCostModelFor. Telemetry goes to a private registry.
PolicyWalk WalkPolicy(const TaskEnvironment& env, const sim::Interval& range,
                      const core::EventHitStrategy& strategy,
                      const sched::CollectPolicySpec& spec);

/// Converts (record, decision) pairs into guarantee-audit outcomes on the
/// record clock (sim_time = record index): one outcome per (record,
/// event) pair, with the exact positive/hit semantics of ComputeMetrics —
/// feeding these into an obs::GuarantyAuditor reproduces the offline REC
/// accounting (auditor misses == positives - hits) on the same slice.
/// Endpoint coverage follows C-REGRESS: the start endpoint is covered
/// when interval.start <= label.start, the end endpoint when
/// interval.end >= label.end.
std::vector<obs::AuditOutcome> BuildAuditOutcomes(
    const std::vector<data::Record>& records,
    const std::vector<core::MarshalDecision>& decisions);

}  // namespace eventhit::eval

#endif  // EVENTHIT_EVAL_RUNNER_H_
