// Skip kernels: advance a stream's generators past the draws of frames a
// windowed video leaves out, without computing the values those draws
// would make (DESIGN.md §5g).
//
// A video's channels draw frame by frame. A frame the selection leaves out
// must still consume exactly its draws, or every later frame's bits move;
// the kernels consume them for a whole run of such frames at a time. Two
// kinds of run exist:
//
//   * a Gaussian run: one Gaussian per frame (the precursor, distractor and
//     noise channels' observation noise);
//   * an activity run: per frame a Bernoulli draw, a Gaussian and a Poisson
//     count whose mean the Bernoulli picks (an event's activity channel and
//     detector count), over frames where the event stays active or stays
//     inactive.
//
// Each kernel has a scalar form, which steps one generator with its state
// in locals, and an AVX2 form, which steps four generators in lockstep
// lanes (skip_kernels_avx2.cc). The group drivers below pick between them.
#ifndef EVENTHIT_SIM_SKIP_KERNELS_H_
#define EVENTHIT_SIM_SKIP_KERNELS_H_

#include <cstdint>

#include "common/rng.h"

namespace eventhit::sim {

/// Streams stepped together: the AVX2 forms' lane count.
inline constexpr int kSkipLanes = 4;

/// One lane's draws over a run of skipped activity frames, constant across
/// the run. Each frame draws a Bernoulli, which succeeds when its uniform's
/// 53 bits are below `threshold` (BernoulliThreshold); a skipped Gaussian;
/// and a Poisson count at mean[0] after a success, at mean[1] after a
/// failure. limit[i] is exp(-mean[i]), the Knuth limit
/// (PoissonSampler::limit()).
struct ActivityLane {
  uint64_t threshold = 0;
  double mean[2] = {0.0, 0.0};
  double limit[2] = {1.0, 1.0};
};

/// The t for which (bits >> 11) < t exactly when Rng::Bernoulli(p) succeeds
/// on a draw of `bits`.
uint64_t BernoulliThreshold(double p);

/// True when the AVX2 forms are compiled in and the CPU has AVX2
/// (common/cpu.h).
bool SkipLanesAvailable();

/// Advances states[0, count) (count <= kSkipLanes) past `frames` skipped
/// Gaussians each, exactly as that many Rng::SkipGaussian() calls do. With
/// `use_lanes` (which requires SkipLanesAvailable()) the lanes step in
/// lockstep; a frame on which some lane draws a zero uniform, Box-Muller's
/// retry, runs through the scalar form instead.
void SkipGaussians(RngState* states, int count, int64_t frames,
                   bool use_lanes);

/// Advances states[0, count) past `frames` skipped activity frames each,
/// lane l with the draws of lanes[l]. With `use_lanes`, as SkipGaussians;
/// a frame on which some lane draws a zero uniform for its Gaussian, or
/// needs a Poisson count at a mean outside (0, 64] (no draw at 0, a
/// Gaussian above 64), runs through the scalar form instead.
void SkipActivities(RngState* states, int count, int64_t frames,
                    const ActivityLane* lanes, bool use_lanes);

}  // namespace eventhit::sim

#endif  // EVENTHIT_SIM_SKIP_KERNELS_H_
