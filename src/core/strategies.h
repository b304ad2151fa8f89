// The four EventHit-based marshalling strategies compared in §VI.B:
//
//   EHO  — thresholds only: Eq. (4) on b_k with tau1, Eq. (6) with tau2.
//   EHC  — C-CLASSIFY existence (knob c), Eq. (6) intervals.
//   EHR  — Eq. (4) existence, C-REGRESS-adjusted intervals (knob alpha).
//   EHCR — C-CLASSIFY existence + C-REGRESS intervals (both knobs).
//
// One configurable class implements all four; the conformal knobs are
// mutable so a sweep over c/alpha reuses the trained model and calibrators.
#ifndef EVENTHIT_CORE_STRATEGIES_H_
#define EVENTHIT_CORE_STRATEGIES_H_

#include <string>

#include "core/c_classify.h"
#include "core/c_regress.h"
#include "core/eventhit_model.h"
#include "core/prediction.h"

namespace eventhit::core {

/// Knob settings for an EventHit strategy instance.
struct EventHitStrategyOptions {
  /// Use C-CLASSIFY for existence (else threshold tau1 on b_k).
  bool use_cclassify = false;
  /// Use C-REGRESS to widen intervals (else raw Eq. (6) output).
  bool use_cregress = false;
  /// Existence threshold tau1 (EHO/EHR).
  double tau1 = 0.5;
  /// Occupancy threshold tau2 (all variants).
  double tau2 = 0.5;
  /// Confidence level c of C-CLASSIFY (EHC/EHCR).
  double confidence = 0.9;
  /// Coverage level alpha of C-REGRESS (EHR/EHCR).
  double coverage = 0.5;
};

/// EventHit marshaller. Holds non-owning pointers: the model must outlive
/// the strategy; the calibrators are only required when the corresponding
/// use_* flag is set.
class EventHitStrategy : public MarshalStrategy {
 public:
  EventHitStrategy(const EventHitModel* model, const CClassify* cclassify,
                   const CRegress* cregress, EventHitStrategyOptions options);

  std::string name() const override;
  MarshalDecision Decide(const data::Record& record) const override;

  /// Decision from precomputed raw scores (lets sweeps over c/alpha reuse
  /// one forward pass per record).
  MarshalDecision DecideFromScores(const EventScores& scores) const;

  /// The same decision, written into `*decision`: once its vectors have
  /// held K events, deciding allocates nothing (the fleet's boundaries).
  void DecideFromScores(const EventScores& scores,
                        MarshalDecision* decision) const;

  void set_confidence(double c) { options_.confidence = c; }
  void set_coverage(double alpha) { options_.coverage = alpha; }
  void set_tau1(double tau1) { options_.tau1 = tau1; }
  void set_tau2(double tau2) { options_.tau2 = tau2; }
  const EventHitStrategyOptions& options() const { return options_; }

  /// Hot-swaps both conformal calibrators in one step (the recalibration
  /// loop, DESIGN.md §5j). Non-owning like the constructor: the caller keeps
  /// the new calibrators alive past the last decision that uses them. The
  /// swap is atomic with respect to decisions — every DecideFromScores call
  /// sees either the old pair or the new pair, never a mix.
  void set_calibrators(const CClassify* cclassify, const CRegress* cregress);

  const EventHitModel* model() const { return model_; }
  const CClassify* cclassify() const { return cclassify_; }
  const CRegress* cregress() const { return cregress_; }

  /// Conformal generation: 0 for the calibrators installed at
  /// construction, +1 per set_calibrators hot swap. Stamped into the
  /// decision provenance ledger so a decision can be traced to the exact
  /// calibrator pair that produced it.
  int64_t calibrator_generation() const { return calibrator_generation_; }

 private:
  const EventHitModel* model_;
  const CClassify* cclassify_;
  const CRegress* cregress_;
  EventHitStrategyOptions options_;
  int64_t calibrator_generation_ = 0;
};

}  // namespace eventhit::core

#endif  // EVENTHIT_CORE_STRATEGIES_H_
