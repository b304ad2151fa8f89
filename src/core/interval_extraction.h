// Converts EventHit's per-frame occurrence scores into a predicted
// occurrence interval (Equations (5)/(6) of §III).
#ifndef EVENTHIT_CORE_INTERVAL_EXTRACTION_H_
#define EVENTHIT_CORE_INTERVAL_EXTRACTION_H_

#include <vector>

#include "sim/interval.h"

namespace eventhit::core {

/// Extracts [min{v : theta_v >= tau2}, max{v : theta_v >= tau2}] with
/// 1-based offsets, per Eq. (6). When no score clears tau2 (the paper's
/// equations leave this case implicit), falls back to the argmax frame as a
/// single-frame interval, so that a predicted-present event always relays at
/// least one frame; C-REGRESS then widens it like any other estimate.
sim::Interval ExtractOccurrenceInterval(const std::vector<float>& theta,
                                        double tau2);

/// Clamps an interval of 1-based offsets to [1, horizon]. An input that
/// leaves no overlap with [1, horizon] yields the nearest single frame.
sim::Interval ClampToHorizon(const sim::Interval& interval, int horizon);

}  // namespace eventhit::core

#endif  // EVENTHIT_CORE_INTERVAL_EXTRACTION_H_
