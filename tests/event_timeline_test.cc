#include "sim/event_timeline.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"

namespace eventhit::sim {
namespace {

EventTimeline MakeFixedTimeline() {
  // Event 0: [10,19], [50,54]; Event 1: [30,39].
  return EventTimeline::FromIntervals(
      {{Interval{10, 19}, Interval{50, 54}}, {Interval{30, 39}}}, 100);
}

TEST(EventTimelineTest, FromIntervalsAccessors) {
  const EventTimeline timeline = MakeFixedTimeline();
  EXPECT_EQ(timeline.num_frames(), 100);
  EXPECT_EQ(timeline.num_event_types(), 2u);
  EXPECT_EQ(timeline.occurrences(0).size(), 2u);
  EXPECT_EQ(timeline.occurrences(1).size(), 1u);
}

TEST(EventTimelineTest, IsActive) {
  const EventTimeline timeline = MakeFixedTimeline();
  EXPECT_FALSE(timeline.IsActive(0, 9));
  EXPECT_TRUE(timeline.IsActive(0, 10));
  EXPECT_TRUE(timeline.IsActive(0, 19));
  EXPECT_FALSE(timeline.IsActive(0, 20));
  EXPECT_TRUE(timeline.IsActive(0, 52));
  EXPECT_FALSE(timeline.IsActive(1, 10));
  EXPECT_TRUE(timeline.IsActive(1, 35));
}

TEST(EventTimelineTest, FirstOverlapping) {
  const EventTimeline timeline = MakeFixedTimeline();
  // Window covering both occurrences of event 0 returns the first.
  auto hit = timeline.FirstOverlapping(0, Interval{0, 99});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, (Interval{10, 19}));
  // Window touching only the second.
  hit = timeline.FirstOverlapping(0, Interval{20, 60});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, (Interval{50, 54}));
  // Partial overlap at the edge counts.
  hit = timeline.FirstOverlapping(0, Interval{19, 25});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, (Interval{10, 19}));
  // No overlap.
  EXPECT_FALSE(timeline.FirstOverlapping(0, Interval{20, 49}).has_value());
  EXPECT_FALSE(timeline.FirstOverlapping(0, Interval::Empty()).has_value());
}

TEST(EventTimelineTest, GenerateRespectsBoundsAndOrdering) {
  Rng rng(7);
  OccurrenceProcess proc;
  proc.mean_gap = 200.0;
  proc.duration_mean = 50.0;
  proc.duration_std = 10.0;
  const EventTimeline timeline =
      EventTimeline::Generate({proc, proc}, 50000, rng);
  for (size_t k = 0; k < 2; ++k) {
    const auto& occurrences = timeline.occurrences(k);
    ASSERT_GT(occurrences.size(), 10u);
    int64_t previous_end = -1;
    for (const Interval& occ : occurrences) {
      EXPECT_GT(occ.start, previous_end);
      EXPECT_GE(occ.start, 0);
      EXPECT_LT(occ.end, 50000);
      EXPECT_GE(occ.length(), proc.min_duration);
      previous_end = occ.end;
    }
  }
}

TEST(EventTimelineTest, GenerateMatchesTargetStatistics) {
  Rng rng(11);
  OccurrenceProcess proc;
  proc.mean_gap = 940.0;
  proc.duration_mean = 60.0;
  proc.duration_std = 12.0;
  // Expected occurrences ~ N / (gap + duration) = 100000/1000 = 100.
  const EventTimeline timeline = EventTimeline::Generate({proc}, 100000, rng);
  const auto count = static_cast<double>(timeline.occurrences(0).size());
  EXPECT_NEAR(count, 100.0, 30.0);
  std::vector<double> durations;
  for (const Interval& occ : timeline.occurrences(0)) {
    durations.push_back(static_cast<double>(occ.length()));
  }
  EXPECT_NEAR(Mean(durations), 60.0, 6.0);
}

TEST(EventTimelineTest, DistinctEventStreamsAreIndependent) {
  Rng rng(13);
  OccurrenceProcess proc;
  proc.mean_gap = 500.0;
  const EventTimeline timeline =
      EventTimeline::Generate({proc, proc}, 20000, rng);
  // Same process parameters but different realisations.
  ASSERT_FALSE(timeline.occurrences(0).empty());
  ASSERT_FALSE(timeline.occurrences(1).empty());
  EXPECT_NE(timeline.occurrences(0).front().start,
            timeline.occurrences(1).front().start);
}

TEST(EventTimelineTest, FromIntervalsValidatesOrdering) {
  EXPECT_DEATH(EventTimeline::FromIntervals(
                   {{Interval{10, 20}, Interval{15, 30}}}, 100),
               "CHECK failed");
  EXPECT_DEATH(EventTimeline::FromIntervals({{Interval{10, 200}}}, 100),
               "CHECK failed");
}

TEST(EventTimelineTest, GenerateIsDeterministicPerSeed) {
  OccurrenceProcess proc;
  proc.mean_gap = 300.0;
  Rng rng_a(99);
  Rng rng_b(99);
  const EventTimeline a = EventTimeline::Generate({proc}, 30000, rng_a);
  const EventTimeline b = EventTimeline::Generate({proc}, 30000, rng_b);
  ASSERT_EQ(a.occurrences(0).size(), b.occurrences(0).size());
  for (size_t i = 0; i < a.occurrences(0).size(); ++i) {
    EXPECT_EQ(a.occurrences(0)[i], b.occurrences(0)[i]);
  }
}

}  // namespace
}  // namespace eventhit::sim
