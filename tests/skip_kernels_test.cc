// The generator's skip kernels (sim/skip_kernels.h) must consume exactly
// the draws of the per-frame code they replace: a skipped Gaussian exactly
// what Rng::Gaussian() draws, Box-Muller's zero-uniform retry included; an
// activity frame exactly a Bernoulli, a Gaussian and a PoissonSampler
// count. The AVX2 lanes must equal the scalar form on every lane.
#include "sim/skip_kernels.h"

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace eventhit::sim {
namespace {

// A state whose next output is 0: the output is rotl(s1 * 5, 7) * 9.
RngState ZeroOutputState() { return {0x9E3779B97F4A7C15ULL, 0, 12345, 678}; }

// The state one xoshiro256** step before `after`, so that `after`'s first
// output is the second draw from the returned state.
RngState StepBack(const RngState& after) {
  const uint64_t x3 = (after[3] >> 45) | (after[3] << 19);  // s3 ^ s1
  const uint64_t s0 = after[0] ^ x3;
  const uint64_t y = after[1] ^ after[2];  // s1 ^ (s1 << 17)
  const uint64_t s1 = y ^ (y << 17) ^ (y << 34) ^ (y << 51);
  return {s0, s1, after[1] ^ s1 ^ s0, x3 ^ s1};
}

Rng FromState(const RngState& state) {
  Rng rng(0);
  rng.set_state(state);
  return rng;
}

// What the per-frame code draws on an activity frame the selection leaves
// out, through the public Rng API.
void ActivityFrameByRng(Rng& rng, double p, const PoissonSampler& success,
                        const PoissonSampler& failure) {
  const bool hit = rng.Bernoulli(p);
  rng.SkipGaussian();
  (hit ? success : failure)(rng);
}

ActivityLane MakeLane(double p, const PoissonSampler& success,
                      const PoissonSampler& failure) {
  return {BernoulliThreshold(p),
          {success.mean(), failure.mean()},
          {success.limit(), failure.limit()}};
}

TEST(SkipKernelsTest, StepBackInvertsOneStep) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const RngState before = rng.state();
    rng.NextUint64();
    ASSERT_EQ(StepBack(rng.state()), before) << "step " << i;
  }
}

TEST(SkipKernelsTest, BernoulliThresholdMatchesUniformComparison) {
  Rng rng(41);
  std::vector<double> probabilities = {
      0.0, -0.5, 1.0, 1.5, 0.5, 0.08, 0.02, 1e-300,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::quiet_NaN(), 0x1.0p-53, 0x1.8p-53,
      1.0 - 0x1.0p-53};
  for (int i = 0; i < 200; ++i) probabilities.push_back(rng.Uniform());
  for (const double p : probabilities) {
    const uint64_t threshold = BernoulliThreshold(p);
    // Draws at the threshold, around it and at random.
    std::vector<uint64_t> draws = {0, ~uint64_t{0}};
    for (const uint64_t k : {threshold, threshold - 1, threshold + 1}) {
      if (k < (uint64_t{1} << 53)) draws.push_back(k << 11);
    }
    for (int j = 0; j < 50; ++j) draws.push_back(rng.NextUint64());
    for (const uint64_t bits : draws) {
      ASSERT_EQ((bits >> 11) < threshold, UnitFromBits(bits) < p)
          << "p " << p << " bits " << bits;
    }
  }
}

// Box-Muller's retry: from a state whose next uniform is 0, Gaussian()
// draws a third uniform. SkipGaussian, the scalar skip kernel and a lane
// of the AVX2 one (which hands the frame to the scalar form) must all
// consume the same three draws; so must an activity frame's skipped
// Gaussian.
TEST(SkipKernelsTest, ZeroUniformRetryConsumesLikeGaussian) {
  const RngState zero = ZeroOutputState();
  Rng probe = FromState(zero);
  ASSERT_EQ(probe.Uniform(), 0.0);

  Rng drawn = FromState(zero);
  const double variate = drawn.Gaussian();
  EXPECT_TRUE(std::isfinite(variate));
  Rng three = FromState(zero);
  for (int i = 0; i < 3; ++i) three.NextUint64();
  EXPECT_EQ(drawn.state(), three.state());

  Rng skipped = FromState(zero);
  skipped.SkipGaussian();
  EXPECT_EQ(skipped.state(), drawn.state());

  RngState scalar = zero;
  SkipGaussians(&scalar, 1, 1, /*use_lanes=*/false);
  EXPECT_EQ(scalar, drawn.state());

  // An activity frame whose Gaussian draws the zero: the Bernoulli draws
  // first, so start one step earlier.
  const RngState before = StepBack(zero);
  const PoissonSampler success(2.5);
  const PoissonSampler failure(0.3);
  Rng activity_rng = FromState(before);
  ActivityFrameByRng(activity_rng, 0.08, success, failure);
  const ActivityLane lane = MakeLane(0.08, success, failure);
  RngState activity = before;
  SkipActivities(&activity, 1, 1, &lane, /*use_lanes=*/false);
  EXPECT_EQ(activity, activity_rng.state());

  if (!SkipLanesAvailable()) {
    GTEST_SKIP() << "no AVX2 lanes on this host; scalar form checked";
  }
  // Lane 2's Gaussian run reaches the zero on its third frame (two frames
  // of two draws each lead up to it), its activity run on the first; the
  // other lanes run on.
  RngState third_frame = zero;
  for (int i = 0; i < 4; ++i) third_frame = StepBack(third_frame);
  for (const int frames : {3, 5, 40}) {
    SCOPED_TRACE(frames);
    std::array<RngState, kSkipLanes> states;
    std::array<RngState, kSkipLanes> expected;
    std::array<RngState, kSkipLanes> activity_states;
    std::array<RngState, kSkipLanes> activity_expected;
    std::array<ActivityLane, kSkipLanes> lanes;
    for (int l = 0; l < kSkipLanes; ++l) {
      const auto i = static_cast<size_t>(l);
      Rng gaussian_rng = l == 2 ? FromState(third_frame) : Rng(1 + l);
      Rng activity_rng = l == 2 ? FromState(before) : Rng(10 + l);
      states[i] = gaussian_rng.state();
      activity_states[i] = activity_rng.state();
      lanes[i] = lane;
      for (int f = 0; f < frames; ++f) {
        gaussian_rng.Gaussian();
        ActivityFrameByRng(activity_rng, 0.08, success, failure);
      }
      expected[i] = gaussian_rng.state();
      activity_expected[i] = activity_rng.state();
    }
    SkipGaussians(states.data(), kSkipLanes, frames, /*use_lanes=*/true);
    SkipActivities(activity_states.data(), kSkipLanes, frames, lanes.data(),
                   /*use_lanes=*/true);
    EXPECT_EQ(states, expected);
    EXPECT_EQ(activity_states, activity_expected);
  }
}

// Random states, lane counts, run lengths and per-lane draws: the scalar
// form must match the Rng API frame by frame, and the AVX2 lanes the
// scalar form. Poisson means of 0 and 80 leave Knuth's loop (no draw, a
// Gaussian), which the lanes hand to the scalar form.
TEST(SkipKernelsTest, KernelsMatchPerFrameDrawsOnRandomStates) {
  Rng rng(2024);
  const double means[] = {0.0, 0.3, 2.5, 1.5, 64.0, 80.0, 0.18};
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE(trial);
    const int count = 1 + static_cast<int>(rng.UniformInt(0, kSkipLanes - 1));
    const int64_t frames = rng.UniformInt(0, 300);
    std::array<RngState, kSkipLanes> start;
    std::array<ActivityLane, kSkipLanes> lanes;
    std::vector<PoissonSampler> success;
    std::vector<PoissonSampler> failure;
    std::vector<double> p;
    for (int l = 0; l < count; ++l) {
      start[static_cast<size_t>(l)] = Rng(rng.NextUint64()).state();
      p.push_back(rng.Bernoulli(0.1) ? 1.0 : rng.Uniform(0.0, 0.3));
      success.emplace_back(means[rng.UniformInt(0, 6)]);
      failure.emplace_back(means[rng.UniformInt(0, 6)]);
      lanes[static_cast<size_t>(l)] = MakeLane(p.back(), success.back(),
                                               failure.back());
    }

    std::array<RngState, kSkipLanes> gaussian = start;
    std::array<RngState, kSkipLanes> activity = start;
    SkipGaussians(gaussian.data(), count, frames, /*use_lanes=*/false);
    SkipActivities(activity.data(), count, frames, lanes.data(),
                   /*use_lanes=*/false);
    for (int l = 0; l < count; ++l) {
      const auto i = static_cast<size_t>(l);
      Rng by_gaussian = FromState(start[i]);
      Rng by_activity = FromState(start[i]);
      for (int64_t f = 0; f < frames; ++f) {
        by_gaussian.Gaussian();
        ActivityFrameByRng(by_activity, p[i], success[i], failure[i]);
      }
      ASSERT_EQ(gaussian[i], by_gaussian.state()) << "lane " << l;
      ASSERT_EQ(activity[i], by_activity.state()) << "lane " << l;
    }

    if (!SkipLanesAvailable()) continue;
    std::array<RngState, kSkipLanes> gaussian_lanes = start;
    std::array<RngState, kSkipLanes> activity_lanes = start;
    SkipGaussians(gaussian_lanes.data(), count, frames, /*use_lanes=*/true);
    SkipActivities(activity_lanes.data(), count, frames, lanes.data(),
                   /*use_lanes=*/true);
    for (int l = 0; l < count; ++l) {
      const auto i = static_cast<size_t>(l);
      ASSERT_EQ(gaussian_lanes[i], gaussian[i]) << "lane " << l;
      ASSERT_EQ(activity_lanes[i], activity[i]) << "lane " << l;
    }
  }
  if (!SkipLanesAvailable()) {
    GTEST_SKIP() << "no AVX2 lanes on this host; scalar form checked";
  }
}

}  // namespace
}  // namespace eventhit::sim
