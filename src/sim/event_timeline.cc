#include "sim/event_timeline.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace eventhit::sim {

EventTimeline EventTimeline::Generate(
    const std::vector<OccurrenceProcess>& processes, int64_t num_frames,
    Rng& rng) {
  EVENTHIT_CHECK_GT(num_frames, 0);
  EventTimeline timeline;
  timeline.num_frames_ = num_frames;
  timeline.occurrences_.resize(processes.size());

  for (size_t k = 0; k < processes.size(); ++k) {
    const OccurrenceProcess& proc = processes[k];
    EVENTHIT_CHECK_GT(proc.mean_gap, 0.0);
    EVENTHIT_CHECK_GT(proc.duration_mean, 0.0);
    EVENTHIT_CHECK_GE(proc.duration_std, 0.0);
    Rng stream(rng.Fork(k));
    // Start part-way into the first gap so the stream does not always open
    // with an imminent event.
    int64_t cursor = static_cast<int64_t>(stream.Exponential(proc.mean_gap) * 0.5);
    // Durations are drawn from a lognormal whose moments match the spec's
    // (mean, std). Unlike a clamped normal this has positive support, so
    // high-variance event types (std comparable to the mean, e.g. E11 of
    // Table I) keep their published mean instead of being biased upward by
    // truncation.
    const double m = proc.duration_mean;
    const double s = proc.duration_std;
    const double sigma_sq = std::log(1.0 + (s * s) / (m * m));
    const double mu = std::log(m) - 0.5 * sigma_sq;
    const double sigma = std::sqrt(sigma_sq);
    // Gap distribution: exponential (gap_cv = 0) or moment-matched
    // lognormal with the requested regularity.
    EVENTHIT_CHECK_GE(proc.gap_cv, 0.0);
    const double gap_sigma_sq =
        std::log(1.0 + proc.gap_cv * proc.gap_cv);
    const double gap_mu = std::log(proc.mean_gap) - 0.5 * gap_sigma_sq;
    const double gap_sigma = std::sqrt(gap_sigma_sq);
    auto draw_gap = [&]() {
      return proc.gap_cv > 0.0 ? stream.LogNormal(gap_mu, gap_sigma)
                               : stream.Exponential(proc.mean_gap);
    };
    // Room for as many occurrences as fit, then one exact-size copy: two
    // allocations at any stream length, not one per doubling.
    std::vector<Interval>& occurrences = timeline.occurrences_[k];
    occurrences.reserve(static_cast<size_t>(
        num_frames / std::max<int64_t>(1, proc.min_duration) + 1));
    while (true) {
      const int64_t gap = static_cast<int64_t>(std::llround(draw_gap()));
      int64_t duration =
          static_cast<int64_t>(std::llround(stream.LogNormal(mu, sigma)));
      duration = std::max(duration, proc.min_duration);
      const int64_t start = cursor + gap;
      const int64_t end = start + duration - 1;
      if (end >= num_frames) break;
      occurrences.push_back(Interval{start, end});
      cursor = end + 1;
    }
    occurrences.shrink_to_fit();
  }
  return timeline;
}

EventTimeline EventTimeline::FromIntervals(
    std::vector<std::vector<Interval>> intervals, int64_t num_frames) {
  EventTimeline timeline;
  timeline.num_frames_ = num_frames;
  timeline.occurrences_ = std::move(intervals);
  for (const auto& per_event : timeline.occurrences_) {
    for (size_t i = 0; i < per_event.size(); ++i) {
      EVENTHIT_CHECK(!per_event[i].empty());
      EVENTHIT_CHECK_GE(per_event[i].start, 0);
      EVENTHIT_CHECK_LT(per_event[i].end, num_frames);
      if (i > 0) EVENTHIT_CHECK_GT(per_event[i].start, per_event[i - 1].end);
    }
  }
  return timeline;
}

const std::vector<Interval>& EventTimeline::occurrences(size_t k) const {
  EVENTHIT_CHECK_LT(k, occurrences_.size());
  return occurrences_[k];
}

bool EventTimeline::IsActive(size_t k, int64_t t) const {
  const auto& events = occurrences(k);
  // First interval with start > t; the candidate is its predecessor.
  auto it = std::upper_bound(
      events.begin(), events.end(), t,
      [](int64_t value, const Interval& iv) { return value < iv.start; });
  if (it == events.begin()) return false;
  return std::prev(it)->Contains(t);
}

std::optional<Interval> EventTimeline::FirstOverlapping(
    size_t k, const Interval& window) const {
  if (window.empty()) return std::nullopt;
  const auto& events = occurrences(k);
  // First interval ending at or after window.start.
  auto it = std::lower_bound(
      events.begin(), events.end(), window.start,
      [](const Interval& iv, int64_t value) { return iv.end < value; });
  if (it == events.end() || !it->Overlaps(window)) return std::nullopt;
  return *it;
}

}  // namespace eventhit::sim
