// One calibration pass for both conformal wrappers (DESIGN.md §5c).
//
// C-CLASSIFY reads the existence score of each calibration record whose
// horizon contains event k, and C-REGRESS the interval residuals of the
// same (record, event) pairs: a record with no event present enters
// neither. Calibrate therefore scores only the records with some event
// present, each once, and builds both wrappers from those scores. A
// record's scores do not depend on the batch it is scored in (the
// summation-order contract, nn/matrix.h) and the positives keep their
// order, so the wrappers are those that scoring every record would build.
#ifndef EVENTHIT_CORE_CALIBRATION_H_
#define EVENTHIT_CORE_CALIBRATION_H_

#include <memory>
#include <span>

#include "common/thread_pool.h"
#include "core/c_classify.h"
#include "core/c_regress.h"
#include "core/eventhit_model.h"
#include "data/record.h"

namespace eventhit::core {

/// C-CLASSIFY and C-REGRESS calibrated on one record set.
struct Calibrators {
  std::unique_ptr<CClassify> cclassify;
  std::unique_ptr<CRegress> cregress;
};

/// True when the horizon of `record` contains some event: the records a
/// calibration reads.
bool HasPresentEvent(const data::Record& record);

/// Scores the records of `calibration` with some event present through
/// PredictBatch (across `ctx.threads()` workers) and builds C-CLASSIFY
/// (Alg. 1: non-conformity 1 - b_k per positive (record, event)) and
/// C-REGRESS (Alg. 2, Lines 6-12: start and end residuals of the interval
/// extracted at occupancy threshold `tau2`). Score and residual lists are
/// assembled in record order, so the result does not depend on
/// `ctx.threads()`.
Calibrators Calibrate(const EventHitModel& model,
                      std::span<const data::Record> calibration, double tau2,
                      const ExecutionContext& ctx = ExecutionContext());

}  // namespace eventhit::core

#endif  // EVENTHIT_CORE_CALIBRATION_H_
