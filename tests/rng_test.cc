#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.h"

namespace eventhit {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanNearHalf) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.Uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.005);
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(13);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = rng.UniformInt(2, 6);
    ASSERT_GE(v, 2);
    ASSERT_LE(v, 6);
    ++counts[static_cast<size_t>(v - 2)];
  }
  for (int c : counts) EXPECT_GT(c, 800);  // ~1000 expected each.
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(17);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(19);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(RngTest, GaussianShiftScale) {
  Rng rng(23);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Gaussian(10.0, 3.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.08);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.08);
}

TEST(RngTest, SkipGaussianAdvancesLikeGaussian) {
  Rng drawn(2024);
  Rng skipped(2024);
  for (int i = 0; i < 100000; ++i) {
    drawn.Gaussian();
    skipped.SkipGaussian();
    ASSERT_EQ(drawn.NextUint64(), skipped.NextUint64()) << "draw " << i;
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(29);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Exponential(4.0));
  EXPECT_NEAR(stats.mean(), 4.0, 0.1);
}

TEST(RngTest, PoissonSmallMean) {
  Rng rng(31);
  RunningStats stats;
  for (int i = 0; i < 30000; ++i) {
    stats.Add(static_cast<double>(rng.Poisson(2.5)));
  }
  EXPECT_NEAR(stats.mean(), 2.5, 0.05);
  EXPECT_NEAR(stats.variance(), 2.5, 0.15);
}

TEST(RngTest, PoissonLargeMeanUsesNormalApprox) {
  Rng rng(37);
  RunningStats stats;
  for (int i = 0; i < 30000; ++i) {
    stats.Add(static_cast<double>(rng.Poisson(100.0)));
  }
  EXPECT_NEAR(stats.mean(), 100.0, 1.0);
}

TEST(RngTest, PoissonZeroMeanIsZero) {
  Rng rng(41);
  EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(43);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / 20000.0, 0.3, 0.01);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(47);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = values;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(RngTest, ForkDecorrelatesStreams) {
  Rng parent(53);
  Rng child_a(parent.Fork(0));
  Rng child_b(parent.Fork(1));
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child_a.NextUint64() == child_b.NextUint64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, LogNormalMedian) {
  Rng rng(59);
  std::vector<double> draws;
  for (int i = 0; i < 20001; ++i) draws.push_back(rng.LogNormal(1.0, 0.5));
  std::nth_element(draws.begin(), draws.begin() + 10000, draws.end());
  // Median of lognormal(mu, sigma) is exp(mu).
  EXPECT_NEAR(draws[10000], std::exp(1.0), 0.1);
}

}  // namespace
}  // namespace eventhit
