#include "core/interval_extraction.h"

#include <algorithm>

#include "common/check.h"

namespace eventhit::core {

sim::Interval ExtractOccurrenceInterval(const std::vector<float>& theta,
                                        double tau2) {
  EVENTHIT_CHECK(!theta.empty());
  int64_t first = -1;
  int64_t last = -1;
  for (size_t v = 0; v < theta.size(); ++v) {
    if (theta[v] >= tau2) {
      if (first < 0) first = static_cast<int64_t>(v) + 1;
      last = static_cast<int64_t>(v) + 1;
    }
  }
  if (first >= 0) return sim::Interval{first, last};
  // Fallback: argmax as a one-frame interval.
  const auto it = std::max_element(theta.begin(), theta.end());
  const int64_t offset = (it - theta.begin()) + 1;
  return sim::Interval{offset, offset};
}

sim::Interval ClampToHorizon(const sim::Interval& interval, int horizon) {
  EVENTHIT_CHECK_GT(horizon, 0);
  if (interval.empty()) return sim::Interval::Empty();
  sim::Interval out{std::max<int64_t>(interval.start, 1),
                    std::min<int64_t>(interval.end, horizon)};
  if (out.empty()) {
    // Entirely outside the horizon: snap to the nearest boundary frame.
    const int64_t frame = interval.end < 1 ? 1 : horizon;
    return sim::Interval{frame, frame};
  }
  return out;
}

}  // namespace eventhit::core
