#include "data/record_extractor.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/tasks.h"

namespace eventhit::data {
namespace {

// A miniature THUMOS-like environment for fast extraction tests.
sim::SyntheticVideo SmallVideo() {
  sim::DatasetSpec spec = sim::MakeDatasetSpec(sim::DatasetId::kThumos);
  spec.num_frames = 40000;
  return sim::SyntheticVideo::Generate(spec, 99);
}

ExtractorConfig SmallConfig() {
  ExtractorConfig config;
  config.collection_window = 10;
  config.horizon = 200;
  return config;
}

TEST(RecordExtractorTest, CovariateShapeAndContent) {
  const sim::SyntheticVideo video = SmallVideo();
  const Task task = FindTask("TA10").value();
  const ExtractorConfig config = SmallConfig();
  const Record record = BuildRecord(video, task, config, 5000);
  EXPECT_EQ(record.frame, 5000);
  EXPECT_EQ(record.covariates.size(), 10 * video.feature_dim());
  // Row m corresponds to frame 5000 - 10 + 1 + m.
  for (int m = 0; m < 10; ++m) {
    const float* expected = video.FrameFeatures(4991 + m);
    const float* actual = record.covariates.data() + m * video.feature_dim();
    for (size_t c = 0; c < video.feature_dim(); ++c) {
      EXPECT_EQ(actual[c], expected[c]) << "m=" << m << " c=" << c;
    }
  }
  EXPECT_EQ(record.labels.size(), 1u);
}

TEST(RecordExtractorTest, LabelsMatchTimeline) {
  const sim::SyntheticVideo video = SmallVideo();
  const Task task = FindTask("TA10").value();
  const ExtractorConfig config = SmallConfig();
  const size_t event_index = task.event_indices[0];
  const auto& occurrences = video.timeline().occurrences(event_index);
  ASSERT_FALSE(occurrences.empty());

  // The labels-only lookup holds BuildRecord's labels at every anchor,
  // for every THUMOS event at once, refilling one buffer.
  Task all_events = task;
  all_events.event_indices = {0, 1, 2};
  std::vector<EventLabel> labels;
  int64_t present = 0;
  for (int64_t anchor = config.collection_window - 1;
       anchor + config.horizon < video.num_frames(); anchor += 7) {
    LookupLabels(video, all_events, config, anchor, &labels);
    const Record record = BuildRecord(video, all_events, config, anchor);
    ASSERT_EQ(labels.size(), record.labels.size());
    for (size_t k = 0; k < labels.size(); ++k) {
      EXPECT_EQ(labels[k].present, record.labels[k].present);
      EXPECT_EQ(labels[k].start, record.labels[k].start);
      EXPECT_EQ(labels[k].end, record.labels[k].end);
      EXPECT_EQ(labels[k].censored, record.labels[k].censored);
      present += labels[k].present ? 1 : 0;
    }
  }
  EXPECT_GT(present, 0);
  EXPECT_DEATH(LookupLabels(video, all_events, config,
                            video.num_frames() - config.horizon, &labels),
               "CHECK failed");

  // Anchor just before an occurrence fully inside the horizon.
  for (const sim::Interval& occ : occurrences) {
    const int64_t anchor = occ.start - 50;
    if (anchor < config.collection_window ||
        anchor + config.horizon >= video.num_frames()) {
      continue;
    }
    if (occ.end > anchor + config.horizon) continue;  // Want uncensored.
    // Ensure no earlier occurrence overlaps this horizon.
    const auto first = video.timeline().FirstOverlapping(
        event_index, sim::Interval{anchor + 1, anchor + config.horizon});
    if (!first.has_value() || !(*first == occ)) continue;

    const Record record = BuildRecord(video, task, config, anchor);
    const EventLabel& label = record.labels[0];
    ASSERT_TRUE(label.present);
    EXPECT_EQ(label.start, static_cast<int>(occ.start - anchor));
    EXPECT_EQ(label.end, static_cast<int>(occ.end - anchor));
    EXPECT_FALSE(label.censored);
    return;  // One verified instance suffices.
  }
  FAIL() << "no suitable occurrence found in the generated stream";
}

TEST(RecordExtractorTest, CensoringAtHorizonEnd) {
  const sim::SyntheticVideo video = SmallVideo();
  const Task task = FindTask("TA10").value();
  const ExtractorConfig config = SmallConfig();
  const size_t event_index = task.event_indices[0];
  for (const sim::Interval& occ :
       video.timeline().occurrences(event_index)) {
    // Anchor such that the occurrence starts inside but ends beyond H.
    const int64_t anchor = occ.end - config.horizon;  // occ.end at offset H.
    if (anchor < config.collection_window ||
        anchor + config.horizon >= video.num_frames() ||
        occ.start <= anchor) {
      continue;
    }
    const auto first = video.timeline().FirstOverlapping(
        event_index, sim::Interval{anchor + 1, anchor + config.horizon});
    if (!first.has_value() || !(*first == occ)) continue;
    // Shift anchor back one so the event truly ends beyond the horizon.
    const Record record = BuildRecord(video, task, config, anchor - 1);
    const EventLabel& label = record.labels[0];
    if (!label.present) continue;
    if (occ.end > (anchor - 1) + config.horizon) {
      EXPECT_TRUE(label.censored);
      EXPECT_EQ(label.end, config.horizon);
      return;
    }
  }
  GTEST_SKIP() << "no censored configuration found for this seed";
}

TEST(RecordExtractorTest, OngoingEventClipsStartToOne) {
  const sim::SyntheticVideo video = SmallVideo();
  const Task task = FindTask("TA10").value();
  const ExtractorConfig config = SmallConfig();
  const size_t event_index = task.event_indices[0];
  for (const sim::Interval& occ :
       video.timeline().occurrences(event_index)) {
    const int64_t anchor = occ.start + 5;  // Mid-event anchor.
    if (anchor < config.collection_window ||
        anchor + config.horizon >= video.num_frames() ||
        occ.end <= anchor) {
      continue;
    }
    const Record record = BuildRecord(video, task, config, anchor);
    ASSERT_TRUE(record.labels[0].present);
    EXPECT_EQ(record.labels[0].start, 1);
    return;
  }
  FAIL() << "no ongoing-event anchor found";
}

TEST(RecordExtractorTest, SplitsArePositionedAndDisjoint) {
  const sim::SyntheticVideo video = SmallVideo();
  const ExtractorConfig config = SmallConfig();
  const SplitRanges splits = ComputeSplits(video, config, 0.5, 0.2);
  EXPECT_EQ(splits.train.start, config.collection_window - 1);
  EXPECT_LT(splits.train.end, splits.calib.start);
  EXPECT_LT(splits.calib.end, splits.test.start);
  EXPECT_LE(splits.test.end, video.num_frames() - config.horizon - 1);
  // Roughly proportional.
  const double total = static_cast<double>(
      splits.test.end - splits.train.start);
  EXPECT_NEAR(static_cast<double>(splits.train.length()) / total, 0.5, 0.05);
}

TEST(RecordExtractorTest, UniformSamplesStayInRange) {
  const sim::SyntheticVideo video = SmallVideo();
  const Task task = FindTask("TA10").value();
  const ExtractorConfig config = SmallConfig();
  const sim::Interval range{1000, 2000};
  Rng rng(5);
  const auto records =
      SampleUniformRecords(video, task, config, range, 50, rng);
  EXPECT_EQ(records.size(), 50u);
  for (const Record& record : records) {
    EXPECT_GE(record.frame, 1000);
    EXPECT_LE(record.frame, 2000);
  }
}

TEST(RecordExtractorTest, BalancedSamplingRaisesPositiveRate) {
  const sim::SyntheticVideo video = SmallVideo();
  const Task task = FindTask("TA12").value();  // Sparsest THUMOS event.
  const ExtractorConfig config = SmallConfig();
  const SplitRanges splits = ComputeSplits(video, config, 0.6, 0.2);
  Rng rng_a(7), rng_b(7);
  const auto uniform = SampleUniformRecords(video, task, config, splits.train,
                                            300, rng_a);
  const auto balanced = SampleBalancedRecords(video, task, config,
                                              splits.train, 300, 0.5, rng_b);
  auto positive_fraction = [](const std::vector<Record>& records) {
    size_t positives = 0;
    for (const Record& r : records) positives += AnyEventPresent(r) ? 1 : 0;
    return static_cast<double>(positives) / static_cast<double>(records.size());
  };
  EXPECT_EQ(balanced.size(), 300u);
  EXPECT_GT(positive_fraction(balanced), positive_fraction(uniform));
  EXPECT_NEAR(positive_fraction(balanced), 0.5, 0.15);
}

TEST(RecordExtractorTest, AnchorBoundsEnforced) {
  const sim::SyntheticVideo video = SmallVideo();
  const Task task = FindTask("TA10").value();
  const ExtractorConfig config = SmallConfig();
  EXPECT_DEATH(BuildRecord(video, task, config, 3), "CHECK failed");
  EXPECT_DEATH(
      BuildRecord(video, task, config, video.num_frames() - 10),
      "CHECK failed");
}

TEST(RecordExtractorTest, MultiEventTaskLabelsAllEvents) {
  sim::DatasetSpec spec = sim::MakeDatasetSpec(sim::DatasetId::kVirat);
  spec.num_frames = 60000;
  const sim::SyntheticVideo video = sim::SyntheticVideo::Generate(spec, 1);
  const Task task = FindTask("TA9").value();  // E1, E5, E6.
  ExtractorConfig config;
  config.collection_window = 25;
  config.horizon = 500;
  const Record record = BuildRecord(video, task, config, 30000);
  EXPECT_EQ(record.labels.size(), 3u);
}

// A video windowed to (M, H) serves every boundary window as the whole
// video does; a window reaching past the selection dies instead of reading
// a neighbouring window's rows.
TEST(RecordExtractorTest, WindowedVideoServesBoundaryWindowsOnly) {
  sim::DatasetSpec spec = sim::MakeDatasetSpec(sim::DatasetId::kThumos);
  spec.num_frames = 3000;
  const sim::SyntheticVideo whole = sim::SyntheticVideo::Generate(spec, 5);
  const sim::SyntheticVideo windowed = sim::SyntheticVideo::Generate(
      spec, 5, sim::FrameSelection{10, 200});
  const Task task = FindTask("TA10").value();
  const ExtractorConfig config = SmallConfig();
  for (int64_t anchor = 9; anchor + config.horizon < spec.num_frames;
       anchor += config.horizon) {
    const Record a = BuildRecord(windowed, task, config, anchor);
    const Record b = BuildRecord(whole, task, config, anchor);
    EXPECT_EQ(a.covariates, b.covariates) << "anchor " << anchor;
    ASSERT_EQ(a.labels.size(), b.labels.size());
    for (size_t k = 0; k < a.labels.size(); ++k) {
      EXPECT_EQ(a.labels[k].present, b.labels[k].present);
      EXPECT_EQ(a.labels[k].start, b.labels[k].start);
      EXPECT_EQ(a.labels[k].end, b.labels[k].end);
      EXPECT_EQ(a.labels[k].censored, b.labels[k].censored);
    }
  }
  // Truth labels need no window: at anchor 109, whose window (frames
  // 100..109) was left out, the lookup reads the whole video's labels.
  std::vector<EventLabel> labels;
  for (const int64_t anchor : {int64_t{109}, int64_t{2509}}) {
    EXPECT_FALSE(windowed.selection().Contains(anchor));
    LookupLabels(windowed, task, config, anchor, &labels);
    const Record b = BuildRecord(whole, task, config, anchor);
    ASSERT_EQ(labels.size(), b.labels.size());
    for (size_t k = 0; k < labels.size(); ++k) {
      EXPECT_EQ(labels[k].present, b.labels[k].present);
      EXPECT_EQ(labels[k].start, b.labels[k].start);
      EXPECT_EQ(labels[k].end, b.labels[k].end);
      EXPECT_EQ(labels[k].censored, b.labels[k].censored);
    }
  }
  EXPECT_DEATH(BuildRecord(windowed, task, config, 109), "CHECK failed");
  // Frame 190 was left out...
  ExtractorConfig wide = config;
  wide.collection_window = 20;
  EXPECT_DEATH(BuildRecord(windowed, task, wide, 209), "CHECK failed");
  // ...and frames 5 and 209 are both stored, but not 205 rows apart.
  wide.collection_window = 205;
  EXPECT_DEATH(BuildRecord(windowed, task, wide, 209), "CHECK failed");
}

}  // namespace
}  // namespace eventhit::data
