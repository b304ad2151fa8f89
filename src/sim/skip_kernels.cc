#include "sim/skip_kernels.h"

#include <cmath>

#include "common/check.h"
#include "common/cpu.h"

namespace eventhit::sim {

#if EVENTHIT_SIM_HAVE_AVX2
// Implemented in skip_kernels_avx2.cc, which is compiled with -mavx2.
// Declared here, not in a header, so nothing reaches them past the
// SkipLanesAvailable() gate. `words` holds four generators word-major
// (words[4 * w + l] is word w of lane l). Each steps the lanes frame by
// frame and returns the frames all four completed; it stops, every lane at
// the start of that frame, before a frame the scalar form must take.
namespace detail {
int64_t SkipGaussianLanesAvx2(uint64_t* words, int64_t frames);
int64_t SkipActivityLanesAvx2(uint64_t* words, int64_t frames,
                              const ActivityLane* lanes);
}  // namespace detail
#endif  // EVENTHIT_SIM_HAVE_AVX2

namespace {

// Box-Muller's draws with the variate left uncomputed: a uniform, retried
// while zero, then a second (Rng::SkipGaussian).
inline void SkipGaussianDraws(uint64_t& s0, uint64_t& s1, uint64_t& s2,
                              uint64_t& s3) {
  while ((XoshiroNext(s0, s1, s2, s3) >> 11) == 0) {
  }
  XoshiroNext(s0, s1, s2, s3);
}

// The scalar forms keep the generator's state in locals for the whole run.
void SkipGaussianRun(RngState& state, int64_t frames) {
  uint64_t s0 = state[0], s1 = state[1], s2 = state[2], s3 = state[3];
  for (int64_t f = 0; f < frames; ++f) SkipGaussianDraws(s0, s1, s2, s3);
  state = {s0, s1, s2, s3};
}

void SkipActivityRun(RngState& state, int64_t frames,
                     const ActivityLane& lane) {
  uint64_t s0 = state[0], s1 = state[1], s2 = state[2], s3 = state[3];
  for (int64_t f = 0; f < frames; ++f) {
    const int branch =
        (XoshiroNext(s0, s1, s2, s3) >> 11) < lane.threshold ? 0 : 1;
    SkipGaussianDraws(s0, s1, s2, s3);
    // PoissonSampler's three cases: no draw at mean 0, one Gaussian (the
    // normal approximation) above 64, Knuth's loop in between.
    const double mean = lane.mean[branch];
    if (mean == 0.0) continue;
    if (mean > 64.0) {
      SkipGaussianDraws(s0, s1, s2, s3);
      continue;
    }
    const double limit = lane.limit[branch];
    double product = 1.0;
    do {
      product *= UnitFromBits(XoshiroNext(s0, s1, s2, s3));
    } while (product > limit);
  }
  state = {s0, s1, s2, s3};
}

void CheckLaneCount(int count) {
  EVENTHIT_CHECK_GE(count, 1);
  EVENTHIT_CHECK_LE(count, kSkipLanes);
}

#if EVENTHIT_SIM_HAVE_AVX2
// Word-major lanes; lanes past `count` copy lane 0, so they stop only
// where lane 0 does.
void Pack(const RngState* states, int count, uint64_t* words) {
  for (int w = 0; w < 4; ++w) {
    for (int l = 0; l < kSkipLanes; ++l) {
      words[4 * w + l] = states[l < count ? l : 0][static_cast<size_t>(w)];
    }
  }
}

void Unpack(const uint64_t* words, int count, RngState* states) {
  for (int l = 0; l < count; ++l) {
    for (int w = 0; w < 4; ++w) {
      states[l][static_cast<size_t>(w)] = words[4 * w + l];
    }
  }
}

// Runs `frames` frames in lanes through `lanes_fn`, and each frame it
// stops before through `scalar_fn` on every lane.
template <typename LanesFn, typename ScalarFn>
void RunLanes(RngState* states, int count, int64_t frames,
              LanesFn&& lanes_fn, ScalarFn&& scalar_fn) {
  alignas(32) uint64_t words[4 * kSkipLanes];
  int64_t done = 0;
  for (;;) {
    Pack(states, count, words);
    done += lanes_fn(words, frames - done);
    Unpack(words, count, states);
    if (done == frames) return;
    for (int l = 0; l < count; ++l) scalar_fn(l);
    ++done;
  }
}
#endif  // EVENTHIT_SIM_HAVE_AVX2

}  // namespace

uint64_t BernoulliThreshold(double p) {
  // Bernoulli(p) succeeds when k * 2^-53 < p for k = bits >> 11, an
  // integer below 2^53. Scaling both sides by 2^53 is exact, so it succeeds
  // when k < p * 2^53, i.e. when k < ceil(p * 2^53).
  if (!(p > 0.0)) return 0;  // NaN included: the comparison always fails.
  if (p >= 1.0) return uint64_t{1} << 53;
  return static_cast<uint64_t>(std::ceil(p * 0x1.0p53));
}

bool SkipLanesAvailable() {
#if EVENTHIT_SIM_HAVE_AVX2
  return CpuHasAvx2Fma();
#else
  return false;
#endif
}

void SkipGaussians(RngState* states, int count, int64_t frames,
                   bool use_lanes) {
  CheckLaneCount(count);
  if (!use_lanes) {
    for (int l = 0; l < count; ++l) SkipGaussianRun(states[l], frames);
    return;
  }
  EVENTHIT_CHECK(SkipLanesAvailable());
#if EVENTHIT_SIM_HAVE_AVX2
  RunLanes(
      states, count, frames,
      [](uint64_t* words, int64_t n) {
        return detail::SkipGaussianLanesAvx2(words, n);
      },
      [&](int l) { SkipGaussianRun(states[l], 1); });
#endif
}

void SkipActivities(RngState* states, int count, int64_t frames,
                    const ActivityLane* lanes, bool use_lanes) {
  CheckLaneCount(count);
  if (!use_lanes) {
    for (int l = 0; l < count; ++l) {
      SkipActivityRun(states[l], frames, lanes[l]);
    }
    return;
  }
  EVENTHIT_CHECK(SkipLanesAvailable());
#if EVENTHIT_SIM_HAVE_AVX2
  ActivityLane padded[kSkipLanes];
  for (int l = 0; l < kSkipLanes; ++l) padded[l] = lanes[l < count ? l : 0];
  RunLanes(
      states, count, frames,
      [&](uint64_t* words, int64_t n) {
        return detail::SkipActivityLanesAvx2(words, n, padded);
      },
      [&](int l) { SkipActivityRun(states[l], 1, lanes[l]); });
#endif
}

}  // namespace eventhit::sim
