#include "sim/synthetic_video.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/stats.h"

namespace eventhit::sim {
namespace {

// Smoothstep ramp in [0, 1] for u in [0, 1].
inline float Ramp(double u) {
  u = Clamp(u, 0.0, 1.0);
  return static_cast<float>(u * u * (3.0 - 2.0 * u));
}

// Precursor level sustained while the event is active.
constexpr float kActiveLevel = 0.85f;
// Precursor decays over lead/2 frames after the occurrence ends.
constexpr double kDecayFraction = 0.5;

// Calls fn(t, row) for every frame t of [first, last] in order, where `row`
// is the frame's storage row, or -1 when the selection leaves it out. Every
// selection runs this one per-frame code path, so a selected frame gets the
// same arithmetic, and the same bits, in a windowed video as in the whole.
template <typename Fn>
void ForEachFrame(const FrameSelection& selection, int64_t first,
                  int64_t last, Fn&& fn) {
  int64_t phase = first % selection.period;
  int64_t period_row = first / selection.period * selection.length;
  for (int64_t t = first; t <= last; ++t) {
    fn(t, phase < selection.length ? period_row + phase : int64_t{-1});
    if (++phase == selection.period) {
      phase = 0;
      period_row += selection.length;
    }
  }
}

// One Gaussian per frame of [0, n): `fn(row)` draws it on a selected frame;
// an unselected frame only advances `rng` past it.
template <typename Fn>
void GaussianPerFrame(const FrameSelection& selection, int64_t n, Rng& rng,
                      Fn&& fn) {
  ForEachFrame(selection, 0, n - 1, [&](int64_t, int64_t row) {
    if (row < 0) {
      rng.SkipGaussian();
    } else {
      fn(row);
    }
  });
}

}  // namespace

SyntheticVideo SyntheticVideo::Generate(const DatasetSpec& spec,
                                        uint64_t seed,
                                        FrameSelection selection) {
  EVENTHIT_CHECK(!spec.events.empty());
  EVENTHIT_CHECK_GT(spec.num_frames, 0);
  EVENTHIT_CHECK_GE(selection.length, 1);
  EVENTHIT_CHECK_LE(selection.length, selection.period);

  SyntheticVideo video;
  video.spec_ = spec;
  video.selection_ = selection;
  Rng rng(seed);

  // 1) Ground-truth occurrence timeline.
  std::vector<OccurrenceProcess> processes;
  processes.reserve(spec.events.size());
  for (const EventTypeSpec& ev : spec.events) {
    OccurrenceProcess proc;
    proc.mean_gap = ev.mean_gap;
    proc.gap_cv = ev.gap_cv;
    proc.duration_mean = ev.duration_mean;
    proc.duration_std = ev.duration_std;
    processes.push_back(proc);
  }
  Rng timeline_rng(rng.Fork(1));
  video.timeline_ =
      EventTimeline::Generate(processes, spec.num_frames, timeline_rng);

  const int64_t n = spec.num_frames;
  const size_t d = spec.FeatureDim();
  const size_t k_events = spec.events.size();
  const auto rows = static_cast<size_t>(selection.Rows(n));
  video.features_.assign(rows * d, 0.0f);
  video.counts_.assign(k_events, std::vector<float>(rows, 0.0f));

  auto feature_at = [&](int64_t row, size_t c) -> float& {
    return video.features_[static_cast<size_t>(row) * d + c];
  };

  // 2) Per-event precursor + activity channels and detector object counts.
  for (size_t k = 0; k < k_events; ++k) {
    const EventTypeSpec& ev = spec.events[k];
    Rng ev_rng(rng.Fork(100 + k));
    const size_t pre_c = DatasetSpec::PrecursorChannel(k);
    const size_t act_c = DatasetSpec::ActivityChannel(k);
    const std::vector<Interval>& occurrences = video.timeline_.occurrences(k);

    for (const Interval& occ : occurrences) {
      const double lead =
          std::max(10.0, ev_rng.Gaussian(ev.lead_mean, ev.lead_std));
      const float strength =
          ev_rng.Bernoulli(ev.weak_precursor_prob)
              ? static_cast<float>(ev_rng.Uniform(0.15, 0.45))
              : static_cast<float>(ev_rng.Uniform(0.9, 1.1));
      const int64_t ramp_begin =
          std::max<int64_t>(0, occ.start - static_cast<int64_t>(lead));
      const int64_t decay_len =
          std::max<int64_t>(1, static_cast<int64_t>(lead * kDecayFraction));
      const int64_t decay_end = std::min(n - 1, occ.end + decay_len);

      ForEachFrame(
          selection, ramp_begin, decay_end, [&](int64_t t, int64_t row) {
            if (row < 0) return;
            float level;
            if (t < occ.start) {
              level = Ramp(static_cast<double>(t - ramp_begin) / lead);
            } else if (t <= occ.end) {
              level = kActiveLevel;
            } else {
              level = kActiveLevel *
                      (1.0f - static_cast<float>(t - occ.end) / decay_len);
            }
            float& cell = feature_at(row, pre_c);
            cell = std::max(cell, strength * level);
          });
    }

    // Activity channel + object counts, frame by frame. The occurrence
    // cursor replaces a per-frame binary search; an unselected frame makes
    // the same Bernoulli, Gaussian and Poisson draws and keeps none.
    const PoissonSampler hit_count(ev.object_rate_active);
    const PoissonSampler false_positive_count(ev.object_rate_active * 0.6);
    const PoissonSampler background_count(ev.object_rate_background);
    size_t next = 0;  // First occurrence that ends at or after frame t.
    ForEachFrame(selection, 0, n - 1, [&](int64_t t, int64_t row) {
      while (next < occurrences.size() && occurrences[next].end < t) ++next;
      const bool active =
          next < occurrences.size() && occurrences[next].start <= t;
      const bool keep = row >= 0;
      float activity = 0.0f;
      double count;
      if (active && !ev_rng.Bernoulli(spec.detector_miss_prob)) {
        if (keep) {
          activity = static_cast<float>(0.8 + ev_rng.Gaussian(0.0, 0.06));
        } else {
          ev_rng.SkipGaussian();
        }
        count = static_cast<double>(hit_count(ev_rng));
      } else if (!active && ev_rng.Bernoulli(spec.detector_fp_prob)) {
        if (keep) {
          activity = static_cast<float>(0.5 + ev_rng.Gaussian(0.0, 0.08));
        } else {
          ev_rng.SkipGaussian();
        }
        count = static_cast<double>(false_positive_count(ev_rng));
      } else {
        if (keep) {
          activity = static_cast<float>(
              std::max(0.0, 0.05 + ev_rng.Gaussian(0.0, 0.03)));
        } else {
          ev_rng.SkipGaussian();
        }
        count = static_cast<double>(background_count(ev_rng));
      }
      if (!keep) return;
      feature_at(row, act_c) = activity;
      video.counts_[k][static_cast<size_t>(row)] = static_cast<float>(count);
    });

    // Precursor observation noise.
    GaussianPerFrame(selection, n, ev_rng, [&](int64_t row) {
      float& cell = feature_at(row, pre_c);
      cell = static_cast<float>(
          Clamp(cell + ev_rng.Gaussian(0.0, ev.precursor_noise), 0.0, 1.5));
    });
  }

  // 3) Distractor channels: precursor-like ramps uncorrelated with events.
  for (int c = 0; c < spec.num_distractor_channels; ++c) {
    Rng dist_rng(rng.Fork(1000 + c));
    const size_t channel = 2 * k_events + static_cast<size_t>(c);
    const double rate = spec.distractor_rate_per_10k / 10000.0;
    int64_t t = 0;
    while (t < n) {
      const int64_t gap =
          static_cast<int64_t>(std::llround(dist_rng.Exponential(1.0 / rate)));
      const int64_t start = t + std::max<int64_t>(gap, 1);
      if (start >= n) break;
      const int64_t width =
          static_cast<int64_t>(dist_rng.Uniform(80.0, 400.0));
      const int64_t end = std::min(n - 1, start + width);
      ForEachFrame(selection, start, end, [&](int64_t u, int64_t row) {
        if (row < 0) return;
        const double phase = static_cast<double>(u - start) / width;
        const float level = Ramp(phase < 0.5 ? phase * 2.0 : (1.0 - phase) * 2.0);
        float& cell = feature_at(row, channel);
        cell = std::max(cell, 0.9f * level);
      });
      t = end + 1;
    }
    GaussianPerFrame(selection, n, dist_rng, [&](int64_t row) {
      float& cell = feature_at(row, channel);
      cell = static_cast<float>(Clamp(cell + dist_rng.Gaussian(0.0, 0.05), 0.0, 1.5));
    });
  }

  // 4) Pure noise channels.
  for (int c = 0; c < spec.num_noise_channels; ++c) {
    Rng noise_rng(rng.Fork(2000 + c));
    const size_t channel =
        2 * k_events + static_cast<size_t>(spec.num_distractor_channels + c);
    GaussianPerFrame(selection, n, noise_rng, [&](int64_t row) {
      feature_at(row, channel) =
          static_cast<float>(Clamp(0.3 + noise_rng.Gaussian(0.0, 0.15), 0.0, 1.0));
    });
  }

  video.shift_frame_ = n;

  // 5) Merged action-unit annotation stream.
  for (size_t k = 0; k < k_events; ++k) {
    for (const Interval& occ : video.timeline_.occurrences(k)) {
      video.action_units_.push_back(ActionUnit{k, occ});
    }
  }
  std::sort(video.action_units_.begin(), video.action_units_.end(),
            [](const ActionUnit& a, const ActionUnit& b) {
              return a.interval.start < b.interval.start;
            });

  return video;
}

SyntheticVideo SyntheticVideo::GenerateWithShift(const DatasetSpec& before,
                                                 const DatasetSpec& after,
                                                 uint64_t seed) {
  EVENTHIT_CHECK_EQ(before.events.size(), after.events.size());
  EVENTHIT_CHECK_EQ(before.FeatureDim(), after.FeatureDim());
  SyntheticVideo a = Generate(before, seed);
  const SyntheticVideo b = Generate(after, seed ^ 0xD1B54A32D192ED03ULL);
  const int64_t offset = a.num_frames();

  // Concatenate features and detector counts.
  a.features_.insert(a.features_.end(), b.features_.begin(),
                     b.features_.end());
  for (size_t k = 0; k < a.counts_.size(); ++k) {
    a.counts_[k].insert(a.counts_[k].end(), b.counts_[k].begin(),
                        b.counts_[k].end());
  }

  // Merge ground-truth timelines with the second stream offset.
  std::vector<std::vector<Interval>> merged(a.num_event_types());
  for (size_t k = 0; k < a.num_event_types(); ++k) {
    merged[k] = a.timeline_.occurrences(k);
    for (const Interval& occ : b.timeline_.occurrences(k)) {
      merged[k].push_back(Interval{occ.start + offset, occ.end + offset});
    }
  }
  const int64_t total = offset + b.num_frames();
  a.timeline_ = EventTimeline::FromIntervals(std::move(merged), total);

  for (const ActionUnit& unit : b.action_units_) {
    a.action_units_.push_back(ActionUnit{
        unit.event_type, Interval{unit.interval.start + offset,
                                  unit.interval.end + offset}});
  }
  a.shift_frame_ = offset;
  a.spec_.num_frames = total;
  return a;
}

SyntheticVideo SyntheticVideo::FromParts(
    DatasetSpec spec, EventTimeline timeline, std::vector<float> features,
    std::vector<std::vector<float>> counts, int64_t shift_frame) {
  EVENTHIT_CHECK_EQ(timeline.num_frames(), spec.num_frames);
  EVENTHIT_CHECK_EQ(timeline.num_event_types(), spec.events.size());
  EVENTHIT_CHECK_EQ(features.size(),
                    static_cast<size_t>(spec.num_frames) * spec.FeatureDim());
  EVENTHIT_CHECK_EQ(counts.size(), spec.events.size());
  for (const auto& series : counts) {
    EVENTHIT_CHECK_EQ(series.size(), static_cast<size_t>(spec.num_frames));
  }
  EVENTHIT_CHECK_GT(shift_frame, 0);
  EVENTHIT_CHECK_LE(shift_frame, spec.num_frames);

  SyntheticVideo video;
  video.spec_ = std::move(spec);
  video.timeline_ = std::move(timeline);
  video.features_ = std::move(features);
  video.counts_ = std::move(counts);
  video.shift_frame_ = shift_frame;
  for (size_t k = 0; k < video.num_event_types(); ++k) {
    for (const Interval& occ : video.timeline_.occurrences(k)) {
      video.action_units_.push_back(ActionUnit{k, occ});
    }
  }
  std::sort(video.action_units_.begin(), video.action_units_.end(),
            [](const ActionUnit& a, const ActionUnit& b) {
              return a.interval.start < b.interval.start;
            });
  return video;
}

const float* SyntheticVideo::FrameFeatures(int64_t t) const {
  EVENTHIT_CHECK_GE(t, 0);
  EVENTHIT_CHECK_LT(t, num_frames());
  EVENTHIT_CHECK(selection_.Contains(t));
  return features_.data() +
         static_cast<size_t>(selection_.Row(t)) * feature_dim();
}

double SyntheticVideo::ObjectCount(size_t k, int64_t t) const {
  EVENTHIT_CHECK_LT(k, counts_.size());
  EVENTHIT_CHECK_GE(t, 0);
  EVENTHIT_CHECK_LT(t, num_frames());
  EVENTHIT_CHECK(selection_.Contains(t));
  return counts_[k][static_cast<size_t>(selection_.Row(t))];
}

}  // namespace eventhit::sim
