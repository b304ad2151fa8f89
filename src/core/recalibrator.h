// Rolling-window recalibration of the conformal wrappers — the deployment
// response to a drift alarm (pairs with core/drift_detector.h).
//
// During operation, the CI's confirmations of relayed segments provide
// fresh labeled records. The recalibrator keeps the most recent ones in a
// bounded window and rebuilds C-CLASSIFY / C-REGRESS from them on demand,
// so the conformal guarantees track the *current* regime without
// retraining the underlying model (retraining remains advisable when the
// scores themselves have degraded).
#ifndef EVENTHIT_CORE_RECALIBRATOR_H_
#define EVENTHIT_CORE_RECALIBRATOR_H_

#include <deque>

#include "core/calibration.h"
#include "core/eventhit_model.h"
#include "data/record.h"

namespace eventhit::core {

/// Bounded FIFO of labeled records plus calibrator factories.
class Recalibrator {
 public:
  /// `model` must outlive the recalibrator. `capacity` bounds the window;
  /// `tau2` is the occupancy threshold used when rebuilding C-REGRESS.
  Recalibrator(const EventHitModel* model, size_t capacity,
               double tau2 = 0.5);

  /// Adds a freshly labeled record (evicting the oldest at capacity).
  void AddLabeledRecord(data::Record record);

  size_t size() const { return window_.size(); }
  size_t capacity() const { return capacity_; }

  /// Number of windowed records whose horizon contains event `k` — the
  /// effective calibration sample for that event.
  size_t PositiveCount(size_t k) const;

  /// True when the window holds at least `min_records` records and every
  /// event has at least `min_positives` positives. This is the guard the
  /// recalibration loop (DESIGN.md §5j) must consult before rebuilding: a
  /// window that fails it would yield degenerate quantiles — C-CLASSIFY
  /// with an empty positive set answers p == 1 for every event (existence
  /// always asserted, unbounded spillage) and C-REGRESS with no residuals
  /// widens by nothing — so Rebuild refuses such windows outright.
  bool CanRebuild(size_t min_records, size_t min_positives) const;

  /// Rebuilds C-CLASSIFY and C-REGRESS from the current window in one
  /// scoring pass over its positive records (core::Calibrate). Counts and
  /// logs one rebuild of each. CHECK-fails unless `CanRebuild(1, 1)` holds.
  Calibrators Rebuild() const;

  /// Drops every windowed record (e.g. after a confirmed regime change,
  /// when pre-shift records would poison the calibration).
  void Clear();

 private:
  const EventHitModel* model_;
  size_t capacity_;
  double tau2_;
  std::deque<data::Record> window_;
};

}  // namespace eventhit::core

#endif  // EVENTHIT_CORE_RECALIBRATOR_H_
