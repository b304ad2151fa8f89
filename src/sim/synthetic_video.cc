#include "sim/synthetic_video.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/stats.h"
#include "sim/skip_kernels.h"

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

// Calls fn(t, count, row) for consecutive runs of frames that cover
// [first, last): the `count` frames from t on are either all selected,
// stored from row `row` on, or all left out (row == -1). Every selection
// runs the same per-frame code on its selected frames, so a selected frame
// gets the same arithmetic, and the same bits, in a windowed video as in
// the whole; the left-out runs go to the skip kernels.
template <typename Fn>
void ForEachRun(const FrameSelection& selection, int64_t first, int64_t last,
                Fn&& fn) {
  const int64_t stored_end = std::min(last, selection.end);
  int64_t t = first;
  while (t < last) {
    int64_t run_end = last;
    int64_t row = -1;
    if (t < stored_end) {
      const int64_t phase = t % selection.period;
      const int64_t period_start = t - phase;
      if (phase < selection.length) {
        row = selection.Row(t);
        run_end = selection.length == selection.period
                      ? stored_end
                      : std::min(stored_end, period_start + selection.length);
      } else if (period_start + selection.period < stored_end) {
        run_end = period_start + selection.period;
      }
    }
    fn(t, run_end - t, row);
    t = run_end;
  }
}

// One Gaussian per frame of [0, stop) on each lane's `rngs[l]`:
// `fn(l, row)` draws a selected frame's; the runs left out go through the
// Gaussian skip kernel.
template <typename Fn>
void GaussianPass(const FrameSelection& selection, int64_t stop,
                  std::vector<Rng>& rngs, bool use_lanes, Fn&& fn) {
  const int count = static_cast<int>(rngs.size());
  RngState states[kSkipLanes];
  ForEachRun(selection, 0, stop, [&](int64_t, int64_t frames, int64_t row) {
    if (row >= 0) {
      for (int l = 0; l < count; ++l) {
        for (int64_t i = 0; i < frames; ++i) fn(l, row + i);
      }
      return;
    }
    for (int l = 0; l < count; ++l) states[l] = rngs[l].state();
    SkipGaussians(states, count, frames, use_lanes);
    for (int l = 0; l < count; ++l) rngs[l].set_state(states[l]);
  });
}

// Stream-shape fields every member of a group must share.
bool SameShape(const DatasetSpec& a, const DatasetSpec& b) {
  return a.num_frames == b.num_frames && a.events.size() == b.events.size() &&
         a.num_distractor_channels == b.num_distractor_channels &&
         a.num_noise_channels == b.num_noise_channels;
}

}  // namespace

SyntheticVideo SyntheticVideo::Generate(const DatasetSpec& spec,
                                        uint64_t seed,
                                        FrameSelection selection) {
  const VideoSource source{&spec, seed};
  SyntheticVideo video;
  GenerateLanes(&source, 1, selection, /*use_lanes=*/false, &video);
  return video;
}

std::vector<SyntheticVideo> SyntheticVideo::GenerateGroup(
    std::span<const VideoSource> sources, FrameSelection selection) {
  EVENTHIT_CHECK(!sources.empty());
  for (const VideoSource& source : sources) {
    EVENTHIT_CHECK(source.spec != nullptr);
    EVENTHIT_CHECK(SameShape(*source.spec, *sources[0].spec));
  }
  std::vector<SyntheticVideo> videos(sources.size());
  for (size_t first = 0; first < sources.size(); first += kSkipLanes) {
    const int count = static_cast<int>(
        std::min<size_t>(kSkipLanes, sources.size() - first));
    // A lone stream has no lanes to fill; the scalar kernels serve it.
    GenerateLanes(sources.data() + first, count, selection,
                  count > 1 && SkipLanesAvailable(), videos.data() + first);
  }
  return videos;
}

void SyntheticVideo::GenerateLanes(const VideoSource* sources, int count,
                                   const FrameSelection& selection,
                                   bool use_lanes, SyntheticVideo* videos) {
  EVENTHIT_CHECK_GE(count, 1);
  EVENTHIT_CHECK_LE(count, kSkipLanes);
  EVENTHIT_CHECK_GE(selection.length, 1);
  EVENTHIT_CHECK_LE(selection.length, selection.period);
  EVENTHIT_CHECK_GE(selection.end, 0);
  const DatasetSpec& shape = *sources[0].spec;
  EVENTHIT_CHECK(!shape.events.empty());
  EVENTHIT_CHECK_GT(shape.num_frames, 0);

  const int64_t n = shape.num_frames;
  const size_t d = shape.FeatureDim();
  const size_t k_events = shape.events.size();
  const auto rows = static_cast<size_t>(selection.Rows(n));
  // Each channel's last pass stops where the selection stores its last
  // frame; earlier passes on the same generator walk every frame.
  const int64_t stored_end = std::min(n, selection.end);

  std::vector<Rng> roots;
  roots.reserve(static_cast<size_t>(count));
  for (int l = 0; l < count; ++l) {
    const DatasetSpec& spec = *sources[l].spec;
    SyntheticVideo& video = videos[l];
    video.spec_ = spec;
    video.selection_ = selection;
    roots.emplace_back(sources[l].seed);

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
    Rng timeline_rng(roots[l].Fork(1));
    video.timeline_ = EventTimeline::Generate(processes, n, timeline_rng);
    video.features_.assign(rows * d, 0.0f);
    video.counts_.assign(k_events, std::vector<float>(rows, 0.0f));
  }

  auto feature_at = [&](int l, int64_t row, size_t c) -> float& {
    return videos[l].features_[static_cast<size_t>(row) * d + c];
  };

  // Lane l's generator for the channel being synthesized.
  std::vector<Rng> rngs;
  auto fork_channels = [&](uint64_t stream) {
    rngs.clear();
    for (int l = 0; l < count; ++l) rngs.emplace_back(roots[l].Fork(stream));
  };
  RngState states[kSkipLanes];

  // 2) Per-event precursor + activity channels and detector object counts.
  for (size_t k = 0; k < k_events; ++k) {
    fork_channels(100 + k);
    const size_t pre_c = DatasetSpec::PrecursorChannel(k);
    const size_t act_c = DatasetSpec::ActivityChannel(k);

    for (int l = 0; l < count; ++l) {
      const EventTypeSpec& ev = sources[l].spec->events[k];
      Rng& ev_rng = rngs[l];
      for (const Interval& occ : videos[l].timeline_.occurrences(k)) {
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

        ForEachRun(selection, ramp_begin, decay_end + 1,
                   [&](int64_t first, int64_t frames, int64_t row) {
                     if (row < 0) return;
                     for (int64_t i = 0; i < frames; ++i) {
                       const int64_t t = first + i;
                       float level;
                       if (t < occ.start) {
                         level = Ramp(static_cast<double>(t - ramp_begin) /
                                      lead);
                       } else if (t <= occ.end) {
                         level = kActiveLevel;
                       } else {
                         level = kActiveLevel *
                                 (1.0f - static_cast<float>(t - occ.end) /
                                             decay_len);
                       }
                       float& cell = feature_at(l, row + i, pre_c);
                       cell = std::max(cell, strength * level);
                     }
                   });
      }
    }

    // Activity channel + object counts over every frame: the precursor
    // noise pass draws after it on the same generator. A selected frame
    // runs the per-frame code; a left-out run is split where some lane's
    // event starts or stops, so each piece has one Bernoulli probability
    // and one pair of Poisson means per lane for the activity skip kernel.
    struct LaneActivity {
      const std::vector<Interval>* occurrences;
      size_t next = 0;  // First occurrence that ends at or after frame t.
      PoissonSampler hit_count, false_positive_count, background_count;
      ActivityLane active, inactive;  // Skip-kernel draws per event state.
    };
    std::vector<LaneActivity> activity;
    activity.reserve(static_cast<size_t>(count));
    for (int l = 0; l < count; ++l) {
      const DatasetSpec& spec = *sources[l].spec;
      const EventTypeSpec& ev = spec.events[k];
      LaneActivity a{&videos[l].timeline_.occurrences(k), 0,
                      PoissonSampler(ev.object_rate_active),
                      PoissonSampler(ev.object_rate_active * 0.6),
                      PoissonSampler(ev.object_rate_background), {}, {}};
      // Active: a missed detection (Bernoulli success) reads background.
      a.active = {BernoulliThreshold(spec.detector_miss_prob),
                  {a.background_count.mean(), a.hit_count.mean()},
                  {a.background_count.limit(), a.hit_count.limit()}};
      // Inactive: a false positive (success) draws the false-positive
      // count.
      a.inactive = {
          BernoulliThreshold(spec.detector_fp_prob),
          {a.false_positive_count.mean(), a.background_count.mean()},
          {a.false_positive_count.limit(), a.background_count.limit()}};
      activity.push_back(a);
    }
    // Moves lane l's cursor to frame t; returns whether the event is active
    // there and the first frame where that changes.
    auto seek = [&](int l, int64_t t, int64_t* change) {
      LaneActivity& a = activity[static_cast<size_t>(l)];
      const std::vector<Interval>& occ = *a.occurrences;
      while (a.next < occ.size() && occ[a.next].end < t) ++a.next;
      if (a.next == occ.size()) {
        *change = n;
        return false;
      }
      const bool active = occ[a.next].start <= t;
      *change = active ? occ[a.next].end + 1 : occ[a.next].start;
      return active;
    };

    ForEachRun(selection, 0, n, [&](int64_t first, int64_t frames,
                                    int64_t row) {
      if (row >= 0) {
        for (int l = 0; l < count; ++l) {
          const DatasetSpec& spec = *sources[l].spec;
          const LaneActivity& a = activity[static_cast<size_t>(l)];
          Rng& ev_rng = rngs[l];
          std::vector<float>& counts_k = videos[l].counts_[k];
          for (int64_t i = 0; i < frames; ++i) {
            int64_t change;
            const bool active = seek(l, first + i, &change);
            float level;
            double objects;
            if (active && !ev_rng.Bernoulli(spec.detector_miss_prob)) {
              level = static_cast<float>(0.8 + ev_rng.Gaussian(0.0, 0.06));
              objects = static_cast<double>(a.hit_count(ev_rng));
            } else if (!active && ev_rng.Bernoulli(spec.detector_fp_prob)) {
              level = static_cast<float>(0.5 + ev_rng.Gaussian(0.0, 0.08));
              objects = static_cast<double>(a.false_positive_count(ev_rng));
            } else {
              level = static_cast<float>(
                  std::max(0.0, 0.05 + ev_rng.Gaussian(0.0, 0.03)));
              objects = static_cast<double>(a.background_count(ev_rng));
            }
            feature_at(l, row + i, act_c) = level;
            counts_k[static_cast<size_t>(row + i)] =
                static_cast<float>(objects);
          }
        }
        return;
      }
      ActivityLane params[kSkipLanes];
      for (int64_t t = first; t < first + frames;) {
        int64_t piece_end = first + frames;
        for (int l = 0; l < count; ++l) {
          int64_t change;
          const bool active = seek(l, t, &change);
          piece_end = std::min(piece_end, change);
          const LaneActivity& a = activity[static_cast<size_t>(l)];
          params[l] = active ? a.active : a.inactive;
          states[l] = rngs[l].state();
        }
        SkipActivities(states, count, piece_end - t, params, use_lanes);
        for (int l = 0; l < count; ++l) rngs[l].set_state(states[l]);
        t = piece_end;
      }
    });

    // Precursor observation noise.
    GaussianPass(selection, stored_end, rngs, use_lanes,
                 [&](int l, int64_t row) {
                   float& cell = feature_at(l, row, pre_c);
                   cell = static_cast<float>(Clamp(
                       cell + rngs[l].Gaussian(
                                  0.0, sources[l].spec->events[k]
                                           .precursor_noise),
                       0.0, 1.5));
                 });
  }

  // 3) Distractor channels: precursor-like ramps uncorrelated with events.
  for (int c = 0; c < shape.num_distractor_channels; ++c) {
    fork_channels(1000 + static_cast<uint64_t>(c));
    const size_t channel = 2 * k_events + static_cast<size_t>(c);
    for (int l = 0; l < count; ++l) {
      Rng& dist_rng = rngs[l];
      const double rate = sources[l].spec->distractor_rate_per_10k / 10000.0;
      int64_t t = 0;
      while (t < n) {
        const int64_t gap = static_cast<int64_t>(
            std::llround(dist_rng.Exponential(1.0 / rate)));
        const int64_t start = t + std::max<int64_t>(gap, 1);
        if (start >= n) break;
        const int64_t width =
            static_cast<int64_t>(dist_rng.Uniform(80.0, 400.0));
        const int64_t end = std::min(n - 1, start + width);
        ForEachRun(selection, start, end + 1,
                   [&](int64_t first, int64_t frames, int64_t row) {
                     if (row < 0) return;
                     for (int64_t i = 0; i < frames; ++i) {
                       const double phase =
                           static_cast<double>(first + i - start) / width;
                       const float level = Ramp(
                           phase < 0.5 ? phase * 2.0 : (1.0 - phase) * 2.0);
                       float& cell = feature_at(l, row + i, channel);
                       cell = std::max(cell, 0.9f * level);
                     }
                   });
        t = end + 1;
      }
    }
    GaussianPass(selection, stored_end, rngs, use_lanes,
                 [&](int l, int64_t row) {
                   float& cell = feature_at(l, row, channel);
                   cell = static_cast<float>(
                       Clamp(cell + rngs[l].Gaussian(0.0, 0.05), 0.0, 1.5));
                 });
  }

  // 4) Pure noise channels.
  for (int c = 0; c < shape.num_noise_channels; ++c) {
    fork_channels(2000 + static_cast<uint64_t>(c));
    const size_t channel =
        2 * k_events + static_cast<size_t>(shape.num_distractor_channels + c);
    GaussianPass(selection, stored_end, rngs, use_lanes,
                 [&](int l, int64_t row) {
                   feature_at(l, row, channel) = static_cast<float>(
                       Clamp(0.3 + rngs[l].Gaussian(0.0, 0.15), 0.0, 1.0));
                 });
  }

  // 5) Merged action-unit annotation stream.
  for (int l = 0; l < count; ++l) {
    SyntheticVideo& video = videos[l];
    video.shift_frame_ = n;
    size_t units = 0;
    for (size_t k = 0; k < k_events; ++k) {
      units += video.timeline_.occurrences(k).size();
    }
    video.action_units_.reserve(units);
    for (size_t k = 0; k < k_events; ++k) {
      for (const Interval& occ : video.timeline_.occurrences(k)) {
        video.action_units_.push_back(ActionUnit{k, occ});
      }
    }
    std::sort(video.action_units_.begin(), video.action_units_.end(),
              [](const ActionUnit& a, const ActionUnit& b) {
                return a.interval.start < b.interval.start;
              });
  }
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
