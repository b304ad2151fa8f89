#include "sim/datasets.h"

#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

namespace eventhit::sim {
namespace {

TEST(DatasetsTest, Names) {
  EXPECT_STREQ(DatasetName(DatasetId::kVirat), "VIRAT");
  EXPECT_STREQ(DatasetName(DatasetId::kThumos), "THUMOS");
  EXPECT_STREQ(DatasetName(DatasetId::kBreakfast), "Breakfast");
}

TEST(DatasetsTest, SpecShapesMatchPaper) {
  const DatasetSpec virat = MakeDatasetSpec(DatasetId::kVirat);
  EXPECT_EQ(virat.events.size(), 6u);
  EXPECT_EQ(virat.collection_window, 25);
  EXPECT_EQ(virat.horizon, 500);

  const DatasetSpec thumos = MakeDatasetSpec(DatasetId::kThumos);
  EXPECT_EQ(thumos.events.size(), 3u);
  EXPECT_EQ(thumos.collection_window, 10);
  EXPECT_EQ(thumos.horizon, 200);

  const DatasetSpec breakfast = MakeDatasetSpec(DatasetId::kBreakfast);
  EXPECT_EQ(breakfast.events.size(), 3u);
  EXPECT_EQ(breakfast.collection_window, 50);
  EXPECT_EQ(breakfast.horizon, 500);
}

TEST(DatasetsTest, GlobalEventResolution) {
  auto ref = ResolveGlobalEvent(1);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref.value().dataset, DatasetId::kVirat);
  EXPECT_EQ(ref.value().local_index, 0u);

  ref = ResolveGlobalEvent(6);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref.value().dataset, DatasetId::kVirat);
  EXPECT_EQ(ref.value().local_index, 5u);

  ref = ResolveGlobalEvent(7);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref.value().dataset, DatasetId::kThumos);
  EXPECT_EQ(ref.value().local_index, 0u);

  ref = ResolveGlobalEvent(12);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref.value().dataset, DatasetId::kBreakfast);
  EXPECT_EQ(ref.value().local_index, 2u);

  EXPECT_FALSE(ResolveGlobalEvent(0).ok());
  EXPECT_FALSE(ResolveGlobalEvent(13).ok());
}

// Table I reproduction property: generated streams match the published
// occurrence counts and duration statistics within sampling tolerance.
//
// gtest names each case after the raw bytes of its parameter, so the row has
// no implicit padding: `pad` fills the gap after `dataset` with zeros, where
// uninitialised stack bytes would otherwise change the names on every run.
struct TableOneRow {
  TableOneRow(DatasetId dataset, size_t local_index, double occurrences,
              double duration_mean, double duration_std)
      : dataset(dataset),
        local_index(local_index),
        occurrences(occurrences),
        duration_mean(duration_mean),
        duration_std(duration_std) {}

  DatasetId dataset;
  std::int32_t pad = 0;
  size_t local_index;
  double occurrences;
  double duration_mean;
  double duration_std;
};
static_assert(sizeof(TableOneRow) == sizeof(DatasetId) + sizeof(std::int32_t) +
                                         sizeof(size_t) + 3 * sizeof(double),
              "TableOneRow must have no padding bytes");

class TableOneTest : public ::testing::TestWithParam<TableOneRow> {};

TEST_P(TableOneTest, GeneratedStatisticsMatchTableOne) {
  const TableOneRow row = GetParam();
  const DatasetSpec spec = MakeDatasetSpec(row.dataset);
  const SyntheticVideo video = SyntheticVideo::Generate(spec, 20240101);
  const std::vector<EventStats> stats = ComputeEventStats(video);
  ASSERT_GT(stats.size(), row.local_index);
  const EventStats& ev = stats[row.local_index];
  // Occurrence counts are Poisson-ish: allow ~3 sigma.
  EXPECT_NEAR(static_cast<double>(ev.occurrences), row.occurrences,
              3.0 * std::sqrt(row.occurrences) + 3.0);
  EXPECT_NEAR(ev.duration_mean, row.duration_mean,
              0.15 * row.duration_mean + 3.0);
  // Duration std: loose band (clamping at min duration biases it down).
  EXPECT_NEAR(ev.duration_std, row.duration_std,
              0.35 * row.duration_std + 4.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllEvents, TableOneTest,
    ::testing::Values(
        TableOneRow{DatasetId::kVirat, 0, 54, 61.5, 15.4},
        TableOneRow{DatasetId::kVirat, 1, 57, 62.0, 11.9},
        TableOneRow{DatasetId::kVirat, 2, 56, 86.6, 25.0},
        TableOneRow{DatasetId::kVirat, 3, 93, 145.1, 35.1},
        TableOneRow{DatasetId::kVirat, 4, 162, 193.7, 158.8},
        TableOneRow{DatasetId::kVirat, 5, 165, 571.2, 176.4},
        TableOneRow{DatasetId::kThumos, 0, 80, 99.3, 40.1},
        TableOneRow{DatasetId::kThumos, 1, 74, 91.2, 35.4},
        TableOneRow{DatasetId::kThumos, 2, 48, 92.8, 25.9},
        TableOneRow{DatasetId::kBreakfast, 0, 132, 114.0, 48.8},
        TableOneRow{DatasetId::kBreakfast, 1, 121, 97.2, 107.5},
        TableOneRow{DatasetId::kBreakfast, 2, 95, 240.2, 153.8}));

TEST(DatasetsTest, ComputeEventStatsOnTinyTimeline) {
  DatasetSpec spec = MakeDatasetSpec(DatasetId::kThumos);
  spec.num_frames = 30000;  // Shrunk stream still works.
  const SyntheticVideo video = SyntheticVideo::Generate(spec, 3);
  const auto stats = ComputeEventStats(video);
  ASSERT_EQ(stats.size(), 3u);
  for (const auto& ev : stats) {
    EXPECT_FALSE(ev.name.empty());
    EXPECT_GE(ev.occurrences, 0);
  }
}

}  // namespace
}  // namespace eventhit::sim
