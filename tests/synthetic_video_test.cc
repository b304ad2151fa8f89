#include "sim/synthetic_video.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/stats.h"
#include "sim/datasets.h"

namespace eventhit::sim {
namespace {

DatasetSpec SmallSpec() {
  DatasetSpec spec;
  spec.name = "test";
  spec.num_frames = 20000;
  spec.collection_window = 10;
  spec.horizon = 100;
  EventTypeSpec ev;
  ev.name = "ev0";
  ev.mean_gap = 400.0;
  ev.duration_mean = 40.0;
  ev.duration_std = 8.0;
  ev.lead_mean = 120.0;
  ev.lead_std = 20.0;
  ev.precursor_noise = 0.05;
  ev.weak_precursor_prob = 0.0;
  spec.events.push_back(ev);
  ev.name = "ev1";
  ev.mean_gap = 600.0;
  spec.events.push_back(ev);
  return spec;
}

TEST(SyntheticVideoTest, DimensionsMatchSpec) {
  const DatasetSpec spec = SmallSpec();
  const SyntheticVideo video = SyntheticVideo::Generate(spec, 1);
  EXPECT_EQ(video.num_frames(), spec.num_frames);
  EXPECT_EQ(video.feature_dim(), 2u * 2 + 2 + 2);
  EXPECT_EQ(video.num_event_types(), 2u);
}

TEST(SyntheticVideoTest, DeterministicPerSeed) {
  const DatasetSpec spec = SmallSpec();
  const SyntheticVideo a = SyntheticVideo::Generate(spec, 5);
  const SyntheticVideo b = SyntheticVideo::Generate(spec, 5);
  for (int64_t t = 0; t < 200; ++t) {
    for (size_t c = 0; c < a.feature_dim(); ++c) {
      EXPECT_EQ(a.FrameFeatures(t)[c], b.FrameFeatures(t)[c]);
    }
  }
  const SyntheticVideo c = SyntheticVideo::Generate(spec, 6);
  bool any_diff = false;
  for (int64_t t = 0; t < 200 && !any_diff; ++t) {
    for (size_t ch = 0; ch < a.feature_dim(); ++ch) {
      if (a.FrameFeatures(t)[ch] != c.FrameFeatures(t)[ch]) any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(SyntheticVideoTest, PrecursorRampRisesBeforeOccurrences) {
  const DatasetSpec spec = SmallSpec();
  const SyntheticVideo video = SyntheticVideo::Generate(spec, 7);
  const auto& occurrences = video.timeline().occurrences(0);
  ASSERT_GT(occurrences.size(), 5u);
  const size_t channel = DatasetSpec::PrecursorChannel(0);
  double near_sum = 0.0, far_sum = 0.0;
  int counted = 0;
  for (const Interval& occ : occurrences) {
    if (occ.start < 300) continue;
    // 20 frames before start: ramp nearly complete. 250 frames before:
    // before the ramp begins (lead ~120).
    near_sum += video.FrameFeatures(occ.start - 20)[channel];
    far_sum += video.FrameFeatures(occ.start - 250)[channel];
    ++counted;
  }
  ASSERT_GT(counted, 3);
  EXPECT_GT(near_sum / counted, far_sum / counted + 0.3);
}

TEST(SyntheticVideoTest, ActivityChannelHighDuringEvents) {
  const DatasetSpec spec = SmallSpec();
  const SyntheticVideo video = SyntheticVideo::Generate(spec, 9);
  const size_t channel = DatasetSpec::ActivityChannel(0);
  RunningStats active, inactive;
  for (int64_t t = 0; t < video.num_frames(); t += 7) {
    const double v = video.FrameFeatures(t)[channel];
    if (video.timeline().IsActive(0, t)) {
      active.Add(v);
    } else {
      inactive.Add(v);
    }
  }
  EXPECT_GT(active.mean(), 0.6);
  EXPECT_LT(inactive.mean(), 0.15);
}

TEST(SyntheticVideoTest, ObjectCountsReflectActivity) {
  const DatasetSpec spec = SmallSpec();
  const SyntheticVideo video = SyntheticVideo::Generate(spec, 11);
  RunningStats active, inactive;
  for (int64_t t = 0; t < video.num_frames(); t += 5) {
    const double count = video.ObjectCount(0, t);
    EXPECT_GE(count, 0.0);
    if (video.timeline().IsActive(0, t)) {
      active.Add(count);
    } else {
      inactive.Add(count);
    }
  }
  EXPECT_GT(active.mean(), 1.5);
  EXPECT_LT(inactive.mean(), 0.6);
}

TEST(SyntheticVideoTest, ActionUnitsSortedAndComplete) {
  const DatasetSpec spec = SmallSpec();
  const SyntheticVideo video = SyntheticVideo::Generate(spec, 13);
  size_t expected = video.timeline().occurrences(0).size() +
                    video.timeline().occurrences(1).size();
  EXPECT_EQ(video.action_units().size(), expected);
  for (size_t i = 1; i < video.action_units().size(); ++i) {
    EXPECT_LE(video.action_units()[i - 1].interval.start,
              video.action_units()[i].interval.start);
  }
  for (const ActionUnit& unit : video.action_units()) {
    EXPECT_LT(unit.event_type, 2u);
  }
}

TEST(SyntheticVideoTest, FeaturesAreBoundedAndFinite) {
  const DatasetSpec spec = SmallSpec();
  const SyntheticVideo video = SyntheticVideo::Generate(spec, 15);
  for (int64_t t = 0; t < video.num_frames(); t += 11) {
    for (size_t c = 0; c < video.feature_dim(); ++c) {
      const float v = video.FrameFeatures(t)[c];
      EXPECT_GE(v, 0.0f);
      EXPECT_LE(v, 1.6f);
    }
  }
}

TEST(SyntheticVideoTest, WeakPrecursorsReduceSignal) {
  DatasetSpec spec = SmallSpec();
  spec.events.resize(1);
  spec.events[0].weak_precursor_prob = 1.0;  // Every precursor weak.
  const SyntheticVideo weak = SyntheticVideo::Generate(spec, 17);
  spec.events[0].weak_precursor_prob = 0.0;
  const SyntheticVideo strong = SyntheticVideo::Generate(spec, 17);
  const size_t channel = DatasetSpec::PrecursorChannel(0);
  auto mean_before_start = [&](const SyntheticVideo& video) {
    RunningStats stats;
    for (const Interval& occ : video.timeline().occurrences(0)) {
      if (occ.start >= 30) {
        stats.Add(video.FrameFeatures(occ.start - 10)[channel]);
      }
    }
    return stats.mean();
  };
  EXPECT_LT(mean_before_start(weak), mean_before_start(strong) - 0.2);
}

TEST(SyntheticVideoTest, OutOfRangeAccessDies) {
  const DatasetSpec spec = SmallSpec();
  const SyntheticVideo video = SyntheticVideo::Generate(spec, 19);
  EXPECT_DEATH(video.FrameFeatures(-1), "CHECK failed");
  EXPECT_DEATH(video.FrameFeatures(video.num_frames()), "CHECK failed");
  EXPECT_DEATH(video.ObjectCount(5, 0), "CHECK failed");
}

// Requires every frame `stored` stores, its detector counts, the timeline
// and the action units to equal `reference`'s bit for bit; `reference`
// stores every frame `stored` does (the whole video, or the same
// selection).
void ExpectStoredFramesMatch(const SyntheticVideo& stored,
                             const SyntheticVideo& reference) {
  const FrameSelection& selection = stored.selection();
  ASSERT_EQ(stored.num_frames(), reference.num_frames());
  EXPECT_EQ(stored.shift_frame(), reference.shift_frame());
  for (size_t k = 0; k < reference.num_event_types(); ++k) {
    EXPECT_EQ(stored.timeline().occurrences(k),
              reference.timeline().occurrences(k));
  }
  ASSERT_EQ(stored.action_units().size(), reference.action_units().size());
  for (size_t i = 0; i < reference.action_units().size(); ++i) {
    EXPECT_EQ(stored.action_units()[i].event_type,
              reference.action_units()[i].event_type);
    EXPECT_EQ(stored.action_units()[i].interval,
              reference.action_units()[i].interval);
  }
  const size_t row_bytes = reference.feature_dim() * sizeof(float);
  int64_t rows = 0;
  for (int64_t t = 0; t < reference.num_frames(); ++t) {
    if (!selection.Contains(t)) continue;
    ++rows;
    ASSERT_EQ(std::memcmp(stored.FrameFeatures(t), reference.FrameFeatures(t),
                          row_bytes),
              0)
        << "frame " << t;
    for (size_t k = 0; k < reference.num_event_types(); ++k) {
      ASSERT_EQ(std::bit_cast<uint64_t>(stored.ObjectCount(k, t)),
                std::bit_cast<uint64_t>(reference.ObjectCount(k, t)))
          << "frame " << t << " event " << k;
    }
  }
  EXPECT_EQ(rows, selection.Rows(reference.num_frames()));
}

// Generates `whole`'s spec windowed by `selection` from the same seed and
// requires it to match the whole video.
void ExpectWindowedMatchesWhole(const SyntheticVideo& whole, uint64_t seed,
                                FrameSelection selection) {
  SCOPED_TRACE(whole.spec().name + " seed " + std::to_string(seed) + " (" +
               std::to_string(selection.length) + ", " +
               std::to_string(selection.period) + ", " +
               std::to_string(selection.end) + ")");
  ExpectStoredFramesMatch(
      SyntheticVideo::Generate(whole.spec(), seed, selection), whole);
}

TEST(SyntheticVideoTest, WindowedRowsMatchWholeVideoBitForBit) {
  for (const DatasetId id :
       {DatasetId::kVirat, DatasetId::kThumos, DatasetId::kBreakfast}) {
    DatasetSpec spec = MakeDatasetSpec(id);
    spec.num_frames = 12000;
    const FrameSelection windows{spec.collection_window, spec.horizon};
    // A fleet stream's windows end before the video does.
    const FrameSelection ended{spec.collection_window, spec.horizon,
                               spec.num_frames - spec.horizon - 37};
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      const SyntheticVideo whole = SyntheticVideo::Generate(spec, seed);
      ExpectWindowedMatchesWhole(whole, seed, windows);
      ExpectWindowedMatchesWhole(whole, seed, ended);
      ExpectWindowedMatchesWhole(whole, seed, FrameSelection{7, 61});
    }
  }
}

TEST(SyntheticVideoTest, FrameSelectionRowsAreConsecutive) {
  const FrameSelection whole;
  EXPECT_TRUE(whole.Contains(12345));
  EXPECT_EQ(whole.Row(12345), 12345);
  EXPECT_EQ(whole.Rows(700), 700);
  const FrameSelection windows{10, 200};
  EXPECT_TRUE(windows.Contains(209));
  EXPECT_FALSE(windows.Contains(210));
  EXPECT_FALSE(windows.Contains(399));
  EXPECT_EQ(windows.Row(9), 9);
  EXPECT_EQ(windows.Row(200), 10);
  EXPECT_EQ(windows.Row(409), 29);
  EXPECT_EQ(windows.Rows(700), 40);  // Three windows + frames 600..609.
  EXPECT_EQ(windows.Rows(605), 35);
}

TEST(SyntheticVideoTest, FrameSelectionEndStopsStorage) {
  const FrameSelection windows{10, 200, 610};
  EXPECT_TRUE(windows.Contains(609));
  EXPECT_FALSE(windows.Contains(610));
  EXPECT_FALSE(windows.Contains(800));
  EXPECT_EQ(windows.Row(609), 39);
  EXPECT_EQ(windows.Rows(605), 35);
  EXPECT_EQ(windows.Rows(700), 40);
  EXPECT_EQ(windows.Rows(5000), 40);
  const FrameSelection mid_window{10, 200, 605};
  EXPECT_TRUE(mid_window.Contains(604));
  EXPECT_FALSE(mid_window.Contains(605));
  EXPECT_EQ(mid_window.Rows(5000), 35);
  const FrameSelection prefix{1, 1, 300};
  EXPECT_TRUE(prefix.Contains(299));
  EXPECT_FALSE(prefix.Contains(300));
  EXPECT_EQ(prefix.Rows(100), 100);
  EXPECT_EQ(prefix.Rows(1000), 300);
  EXPECT_EQ(FrameSelection{}.Rows(1000), 1000);

  const DatasetSpec spec = SmallSpec();
  const SyntheticVideo video =
      SyntheticVideo::Generate(spec, 19, FrameSelection{10, 100, 310});
  EXPECT_EQ(video.FrameFeatures(309), video.FrameFeatures(300) +
                                          9 * video.feature_dim());
  EXPECT_DEATH(video.FrameFeatures(310), "CHECK failed");
  EXPECT_DEATH(video.FrameFeatures(400), "CHECK failed");
  EXPECT_DEATH(video.ObjectCount(0, 400), "CHECK failed");
  EXPECT_DEATH(SyntheticVideo::Generate(spec, 19, FrameSelection{10, 100, -1}),
               "CHECK failed");
}

// The streams of a group store bit for bit what their whole videos store,
// as they do generated alone, at every group size (four lanes at a time,
// the last group partial), with per-stream seeds, gap scales and object
// rates. Rates of 0 and 80 put Poisson counts outside Knuth's loop, which
// the lanes hand to the scalar form.
TEST(SyntheticVideoTest, GroupedVideosMatchSingleVideosBitForBit) {
  constexpr size_t kStreams = 9;
  std::vector<DatasetSpec> shapes;
  for (const DatasetId id :
       {DatasetId::kVirat, DatasetId::kThumos, DatasetId::kBreakfast}) {
    shapes.push_back(MakeDatasetSpec(id));
  }
  shapes.push_back(MakeDatasetSpec(DatasetId::kThumos));
  shapes.back().name = "THUMOS odd rates";
  for (size_t shape = 0; shape < shapes.size(); ++shape) {
    DatasetSpec& base = shapes[shape];
    base.num_frames = 6000;
    const bool odd_rates = shape == 3;
    const int64_t m = base.collection_window;
    const int64_t h = base.horizon;
    for (const uint64_t seed_base : {uint64_t{1}, uint64_t{500}}) {
      std::vector<DatasetSpec> specs(kStreams, base);
      std::vector<VideoSource> sources;
      for (size_t i = 0; i < kStreams; ++i) {
        static constexpr double kGapScales[] = {0.75, 1.0, 1.5};
        for (EventTypeSpec& ev : specs[i].events) {
          ev.mean_gap *= kGapScales[i % 3];
        }
        if (odd_rates) {
          specs[i].events[0].object_rate_active = i % 2 == 0 ? 80.0 : 0.0;
          specs[i].events[1].object_rate_background =
              i % 3 == 0 ? 0.0 : (i % 3 == 1 ? 80.0 : 0.3);
          specs[i].detector_fp_prob = 0.3;
        }
        sources.push_back({&specs[i], seed_base + 7 * i});
      }
      std::vector<SyntheticVideo> whole;
      for (const VideoSource& source : sources) {
        whole.push_back(SyntheticVideo::Generate(*source.spec, source.seed));
      }
      for (const FrameSelection selection :
           {FrameSelection{}, FrameSelection{m, h},
            FrameSelection{m, h, m + (base.num_frames - 2 * h) / h * h},
            FrameSelection{7, 61}}) {
        SCOPED_TRACE(base.name + " seeds from " + std::to_string(seed_base) +
                     " (" + std::to_string(selection.length) + ", " +
                     std::to_string(selection.period) + ", " +
                     std::to_string(selection.end) + ")");
        for (size_t i = 0; i < kStreams; ++i) {
          SCOPED_TRACE("alone, stream " + std::to_string(i));
          ExpectStoredFramesMatch(
              SyntheticVideo::Generate(*sources[i].spec, sources[i].seed,
                                       selection),
              whole[i]);
        }
        for (size_t size = 1; size <= kStreams; ++size) {
          const std::vector<SyntheticVideo> group =
              SyntheticVideo::GenerateGroup(
                  std::span<const VideoSource>(sources.data(), size),
                  selection);
          ASSERT_EQ(group.size(), size);
          for (size_t i = 0; i < size; ++i) {
            SCOPED_TRACE("group of " + std::to_string(size) + ", stream " +
                         std::to_string(i));
            ExpectStoredFramesMatch(group[i], whole[i]);
          }
        }
      }
    }
  }
}

TEST(SyntheticVideoTest, GroupMembersMustShareAShape) {
  DatasetSpec a = MakeDatasetSpec(DatasetId::kThumos);
  a.num_frames = 1000;
  DatasetSpec b = a;
  b.num_noise_channels += 1;
  const VideoSource sources[] = {{&a, 1}, {&b, 2}};
  EXPECT_DEATH(SyntheticVideo::GenerateGroup(sources, FrameSelection{}),
               "CHECK failed");
}

TEST(SyntheticVideoTest, ReadingAnUnselectedFrameDies) {
  const DatasetSpec spec = SmallSpec();
  const SyntheticVideo video =
      SyntheticVideo::Generate(spec, 19, FrameSelection{10, 100});
  EXPECT_EQ(video.FrameFeatures(109), video.FrameFeatures(100) +
                                          9 * video.feature_dim());
  EXPECT_DEATH(video.FrameFeatures(10), "CHECK failed");
  EXPECT_DEATH(video.FrameFeatures(199), "CHECK failed");
  EXPECT_DEATH(video.ObjectCount(0, 50), "CHECK failed");
  EXPECT_DEATH(SyntheticVideo::Generate(spec, 19, FrameSelection{0, 100}),
               "CHECK failed");
  EXPECT_DEATH(SyntheticVideo::Generate(spec, 19, FrameSelection{101, 100}),
               "CHECK failed");
}

TEST(ShiftedStreamTest, ConcatenatesRegimes) {
  DatasetSpec before;
  before.name = "before";
  before.num_frames = 20000;
  EventTypeSpec ev;
  ev.name = "e";
  ev.mean_gap = 900.0;
  ev.duration_mean = 50.0;
  ev.duration_std = 10.0;
  before.events.push_back(ev);

  DatasetSpec after = before;
  after.name = "after";
  after.num_frames = 20000;
  after.events[0].mean_gap = 200.0;  // Events arrive ~4x as often.

  const SyntheticVideo video =
      SyntheticVideo::GenerateWithShift(before, after, 5);
  EXPECT_EQ(video.num_frames(), 40000);
  EXPECT_EQ(video.shift_frame(), 20000);

  // Occurrence density must jump at the shift point.
  int64_t early = 0, late = 0;
  for (const Interval& occ : video.timeline().occurrences(0)) {
    EXPECT_GE(occ.start, 0);
    EXPECT_LT(occ.end, 40000);
    (occ.start < 20000 ? early : late) += 1;
  }
  EXPECT_GT(late, 2 * early);

  // Features are continuous (valid) across the boundary.
  for (int64_t t = 19990; t < 20010; ++t) {
    for (size_t c = 0; c < video.feature_dim(); ++c) {
      const float v = video.FrameFeatures(t)[c];
      EXPECT_GE(v, 0.0f);
      EXPECT_LE(v, 1.6f);
    }
  }
  // Object counts accessible across the whole concatenated stream.
  EXPECT_GE(video.ObjectCount(0, 39999), 0.0);
}

TEST(ShiftedStreamTest, ActionUnitsCoverBothRegimes) {
  DatasetSpec spec;
  spec.num_frames = 15000;
  EventTypeSpec ev;
  ev.name = "e";
  ev.mean_gap = 500.0;
  spec.events.push_back(ev);
  const SyntheticVideo video =
      SyntheticVideo::GenerateWithShift(spec, spec, 9);
  bool any_late = false;
  for (const ActionUnit& unit : video.action_units()) {
    any_late = any_late || unit.interval.start >= 15000;
  }
  EXPECT_TRUE(any_late);
}

TEST(ShiftedStreamTest, MismatchedSpecsDie) {
  DatasetSpec a;
  a.num_frames = 1000;
  a.events.emplace_back();
  a.events[0].duration_mean = 20;
  DatasetSpec b = a;
  b.events.emplace_back();
  b.events[1].duration_mean = 20;
  EXPECT_DEATH(SyntheticVideo::GenerateWithShift(a, b, 1), "CHECK failed");
}

}  // namespace
}  // namespace eventhit::sim
