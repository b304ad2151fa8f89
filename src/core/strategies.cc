#include "core/strategies.h"

#include <algorithm>

#include "common/check.h"
#include "core/interval_extraction.h"

namespace eventhit::core {

EventHitStrategy::EventHitStrategy(const EventHitModel* model,
                                   const CClassify* cclassify,
                                   const CRegress* cregress,
                                   EventHitStrategyOptions options)
    : model_(model),
      cclassify_(cclassify),
      cregress_(cregress),
      options_(options) {
  EVENTHIT_CHECK(model_ != nullptr);
  if (options_.use_cclassify) EVENTHIT_CHECK(cclassify_ != nullptr);
  if (options_.use_cregress) EVENTHIT_CHECK(cregress_ != nullptr);
}

void EventHitStrategy::set_calibrators(const CClassify* cclassify,
                                       const CRegress* cregress) {
  if (options_.use_cclassify) EVENTHIT_CHECK(cclassify != nullptr);
  if (options_.use_cregress) EVENTHIT_CHECK(cregress != nullptr);
  cclassify_ = cclassify;
  cregress_ = cregress;
  ++calibrator_generation_;
}

std::string EventHitStrategy::name() const {
  if (options_.use_cclassify && options_.use_cregress) return "EHCR";
  if (options_.use_cclassify) return "EHC";
  if (options_.use_cregress) return "EHR";
  return "EHO";
}

MarshalDecision EventHitStrategy::DecideFromScores(
    const EventScores& scores) const {
  MarshalDecision decision;
  DecideFromScores(scores, &decision);
  return decision;
}

void EventHitStrategy::DecideFromScores(const EventScores& scores,
                                        MarshalDecision* decision) const {
  const size_t k_events = scores.existence.size();
  decision->exists.assign(k_events, false);
  decision->intervals.assign(k_events, sim::Interval::Empty());
  decision->max_existence = 0.0;
  for (const double b : scores.existence) {
    decision->max_existence = std::max(decision->max_existence, b);
  }
  if (options_.use_cclassify) {
    EVENTHIT_CHECK_EQ(k_events, cclassify_->num_events());
  }

  for (size_t k = 0; k < k_events; ++k) {
    const bool exists =
        options_.use_cclassify
            ? cclassify_->PredictsPresent(k, scores, options_.confidence)
            : scores.existence[k] >= options_.tau1;
    decision->exists[k] = exists;
    if (!exists) continue;
    sim::Interval interval =
        ExtractOccurrenceInterval(scores.occupancy[k], options_.tau2);
    if (options_.use_cregress) {
      interval = cregress_->Adjust(k, interval, options_.coverage);
    }
    decision->intervals[k] = interval;
  }
}

MarshalDecision EventHitStrategy::Decide(const data::Record& record) const {
  return DecideFromScores(model_->Predict(record));
}

}  // namespace eventhit::core
