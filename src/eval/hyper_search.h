// Hyper-parameter search for EventHit (§III: "The hyper-parameters beta_k
// and gamma_k ... can be tuned by grid search [23], [24]" — [24] is random
// search, also provided).
//
// The objective scores a candidate by training on the supplied training
// records and evaluating the plain EHO operating point on a held-out
// validation set: objective = REC - spillage_weight * SPL. Higher is
// better.
#ifndef EVENTHIT_EVAL_HYPER_SEARCH_H_
#define EVENTHIT_EVAL_HYPER_SEARCH_H_

#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/eventhit_config.h"
#include "data/record.h"
#include "eval/metrics.h"

namespace eventhit::eval {

/// The searched axes. Every combination of the listed values is tried by
/// GridSearch; RandomSearch samples combinations uniformly.
struct HyperGrid {
  std::vector<size_t> lstm_hidden = {16, 24, 32};
  std::vector<size_t> event_hidden = {24, 32};
  std::vector<double> learning_rate = {1e-3, 3e-3};
  /// Uniform existence-loss weight beta applied to every event.
  std::vector<double> beta = {0.5, 1.0, 2.0};
  /// Uniform occupancy-loss weight gamma applied to every event.
  std::vector<double> gamma = {0.5, 1.0, 2.0};

  size_t Combinations() const {
    return lstm_hidden.size() * event_hidden.size() * learning_rate.size() *
           beta.size() * gamma.size();
  }
};

/// Search knobs.
struct HyperSearchOptions {
  /// SPL penalty in the objective.
  double spillage_weight = 0.5;
  /// tau1/tau2 of the EHO evaluation.
  double tau1 = 0.5;
  double tau2 = 0.5;
  /// Parallelism. Candidates are trained/evaluated concurrently, one per
  /// ParallelFor index, each fully self-contained (own model, own RNG
  /// stream from its config seed); results land in enumeration order and
  /// the best-first sort runs serially, so the returned vector is
  /// byte-identical for any thread count.
  ExecutionContext exec;
};

/// One evaluated candidate.
struct HyperResult {
  core::EventHitConfig config;
  Metrics validation;
  double objective = 0.0;
};

/// Exhaustive grid search. `base` supplies the fixed fields (problem shape,
/// epochs, seed); searched fields are overwritten per candidate. Returns
/// every candidate, best first.
std::vector<HyperResult> GridSearch(
    const core::EventHitConfig& base, const HyperGrid& grid,
    const std::vector<data::Record>& train,
    const std::vector<data::Record>& validation,
    const HyperSearchOptions& options = HyperSearchOptions());

/// Random search: `samples` uniformly drawn combinations (with replacement;
/// duplicates possible, as in Bergstra & Bengio). Returns every candidate,
/// best first.
std::vector<HyperResult> RandomSearch(
    const core::EventHitConfig& base, const HyperGrid& grid, size_t samples,
    const std::vector<data::Record>& train,
    const std::vector<data::Record>& validation, Rng& rng,
    const HyperSearchOptions& options = HyperSearchOptions());

/// Trains one candidate and scores it (exposed for tests and custom search
/// loops).
HyperResult EvaluateCandidate(
    const core::EventHitConfig& config, const std::vector<data::Record>& train,
    const std::vector<data::Record>& validation,
    const HyperSearchOptions& options = HyperSearchOptions());

}  // namespace eventhit::eval

#endif  // EVENTHIT_EVAL_HYPER_SEARCH_H_
