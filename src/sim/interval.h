// Closed integer frame intervals. Used for ground-truth occurrence
// intervals, predicted occurrence intervals, and the REC/SPL metrics.
#ifndef EVENTHIT_SIM_INTERVAL_H_
#define EVENTHIT_SIM_INTERVAL_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>

namespace eventhit::sim {

/// A closed interval of frame indices [start, end]. An interval with
/// start > end is empty; Interval::Empty() is the canonical empty value.
struct Interval {
  int64_t start = 0;
  int64_t end = -1;

  static Interval Empty() { return Interval{0, -1}; }

  bool empty() const { return start > end; }

  /// Number of frames covered (0 when empty).
  int64_t length() const { return empty() ? 0 : end - start + 1; }

  /// True iff frame `t` lies inside.
  bool Contains(int64_t t) const { return !empty() && t >= start && t <= end; }

  /// True iff the two intervals share at least one frame.
  bool Overlaps(const Interval& other) const {
    if (empty() || other.empty()) return false;
    return start <= other.end && other.start <= end;
  }

  friend bool operator==(const Interval& a, const Interval& b) {
    if (a.empty() && b.empty()) return true;
    return a.start == b.start && a.end == b.end;
  }
};

/// The overlap of two intervals (possibly empty).
inline Interval Intersect(const Interval& a, const Interval& b) {
  if (a.empty() || b.empty()) return Interval::Empty();
  const Interval out{std::max(a.start, b.start), std::min(a.end, b.end)};
  return out.empty() ? Interval::Empty() : out;
}

/// |a \ b|: frames of `a` not covered by `b`.
inline int64_t DifferenceLength(const Interval& a, const Interval& b) {
  return a.length() - Intersect(a, b).length();
}

/// Frames covered by the union of `intervals`, which it sorts in place by
/// start. Empty intervals cover nothing.
inline int64_t UnionLength(std::span<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  int64_t total = 0;
  int64_t covered_to = std::numeric_limits<int64_t>::min();  // Last counted.
  for (const Interval& interval : intervals) {
    if (interval.empty() || interval.end <= covered_to) continue;
    total += interval.end - std::max(interval.start, covered_to + 1) + 1;
    covered_to = interval.end;
  }
  return total;
}

}  // namespace eventhit::sim

#endif  // EVENTHIT_SIM_INTERVAL_H_
