#include "sim/synthetic_video.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstring>

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

// Generates `whole`'s spec windowed by `selection` from the same seed and
// requires every stored row, count, timeline interval and action unit to
// equal the whole video's, bit for bit.
void ExpectWindowedMatchesWhole(const SyntheticVideo& whole, uint64_t seed,
                                FrameSelection selection) {
  SCOPED_TRACE(whole.spec().name + " seed " + std::to_string(seed) + " (" +
               std::to_string(selection.length) + ", " +
               std::to_string(selection.period) + ")");
  const SyntheticVideo windowed =
      SyntheticVideo::Generate(whole.spec(), seed, selection);
  ASSERT_EQ(windowed.num_frames(), whole.num_frames());
  EXPECT_EQ(windowed.shift_frame(), whole.shift_frame());
  for (size_t k = 0; k < whole.num_event_types(); ++k) {
    EXPECT_EQ(windowed.timeline().occurrences(k),
              whole.timeline().occurrences(k));
  }
  ASSERT_EQ(windowed.action_units().size(), whole.action_units().size());
  for (size_t i = 0; i < whole.action_units().size(); ++i) {
    EXPECT_EQ(windowed.action_units()[i].event_type,
              whole.action_units()[i].event_type);
    EXPECT_EQ(windowed.action_units()[i].interval,
              whole.action_units()[i].interval);
  }
  const size_t row_bytes = whole.feature_dim() * sizeof(float);
  int64_t rows = 0;
  for (int64_t t = 0; t < whole.num_frames(); ++t) {
    if (!selection.Contains(t)) continue;
    ++rows;
    ASSERT_EQ(std::memcmp(windowed.FrameFeatures(t), whole.FrameFeatures(t),
                          row_bytes),
              0)
        << "frame " << t;
    for (size_t k = 0; k < whole.num_event_types(); ++k) {
      ASSERT_EQ(std::bit_cast<uint64_t>(windowed.ObjectCount(k, t)),
                std::bit_cast<uint64_t>(whole.ObjectCount(k, t)))
          << "frame " << t << " event " << k;
    }
  }
  EXPECT_EQ(rows, selection.Rows(whole.num_frames()));
}

TEST(SyntheticVideoTest, WindowedRowsMatchWholeVideoBitForBit) {
  for (const DatasetId id :
       {DatasetId::kVirat, DatasetId::kThumos, DatasetId::kBreakfast}) {
    DatasetSpec spec = MakeDatasetSpec(id);
    spec.num_frames = 12000;
    const FrameSelection windows{spec.collection_window, spec.horizon};
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      const SyntheticVideo whole = SyntheticVideo::Generate(spec, seed);
      ExpectWindowedMatchesWhole(whole, seed, windows);
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

}  // namespace
}  // namespace eventhit::sim
