#include "common/stats.h"

#include <cmath>

#include <gtest/gtest.h>

namespace eventhit {
namespace {

TEST(StatsTest, MeanBasics) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({4.0}), 4.0);
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(StatsTest, SampleStdDev) {
  EXPECT_DOUBLE_EQ(SampleStdDev({}), 0.0);
  EXPECT_DOUBLE_EQ(SampleStdDev({5.0}), 0.0);
  // Variance of {2,4,4,4,5,5,7,9} is 32/7 with n-1 denominator.
  EXPECT_NEAR(SampleStdDev({2, 4, 4, 4, 5, 5, 7, 9}), std::sqrt(32.0 / 7.0),
              1e-12);
}

TEST(StatsTest, ConformalQuantileRankUsesFiniteSampleCorrection) {
  // Rank is ceil(level * (n+1)) clamped to [1, n] — Theorem 5.2 requires
  // the n+1, not ceil(level * n).
  EXPECT_EQ(ConformalQuantileRank(5, 0.5), 3u);   // ceil(3.0)
  EXPECT_EQ(ConformalQuantileRank(10, 0.5), 6u);  // ceil(5.5); old formula: 5
  EXPECT_EQ(ConformalQuantileRank(5, 0.2), 2u);   // ceil(1.2); old formula: 1
  EXPECT_EQ(ConformalQuantileRank(20, 0.9), 19u);  // ceil(18.9)
  EXPECT_EQ(ConformalQuantileRank(5, 1.0), 5u);   // Clamped to n.
  EXPECT_EQ(ConformalQuantileRank(5, 0.0), 1u);   // Clamped to rank 1.
}

TEST(StatsTest, OrderStatQuantileMatchesCorrectedDefinition) {
  const std::vector<double> values{5.0, 1.0, 3.0, 2.0, 4.0};
  // ceil(0.5 * 6) = 3rd smallest.
  EXPECT_DOUBLE_EQ(OrderStatQuantile(values, 0.5), 3.0);
  // ceil(0.2 * 6) = 2nd smallest (the old ceil(0.2 * 5) gave the 1st).
  EXPECT_DOUBLE_EQ(OrderStatQuantile(values, 0.2), 2.0);
  EXPECT_DOUBLE_EQ(OrderStatQuantile(values, 1.0), 5.0);
  // Level 0 clamps to the minimum (rank 1).
  EXPECT_DOUBLE_EQ(OrderStatQuantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(OrderStatQuantile({}, 0.5), 0.0);
}

TEST(StatsTest, Clamp) {
  EXPECT_DOUBLE_EQ(Clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(Clamp(-1.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(Clamp(0.4, 0.0, 1.0), 0.4);
}

TEST(StatsTest, SigmoidSymmetryAndStability) {
  EXPECT_DOUBLE_EQ(Sigmoid(0.0), 0.5);
  EXPECT_NEAR(Sigmoid(2.0) + Sigmoid(-2.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(1000.0), 1.0, 1e-12);   // No overflow.
  EXPECT_NEAR(Sigmoid(-1000.0), 0.0, 1e-12);  // No underflow surprises.
}

TEST(RunningStatsTest, MatchesBatchComputation) {
  const std::vector<double> values{1.5, -2.0, 0.5, 3.25, 7.0, -1.0};
  RunningStats stats;
  for (double v : values) stats.Add(v);
  EXPECT_EQ(stats.count(), values.size());
  EXPECT_NEAR(stats.mean(), Mean(values), 1e-12);
  EXPECT_NEAR(stats.stddev(), SampleStdDev(values), 1e-12);
}

TEST(RunningStatsTest, DegenerateCases) {
  RunningStats stats;
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  stats.Add(4.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 4.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

}  // namespace
}  // namespace eventhit
