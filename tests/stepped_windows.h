// Drives collection windows through a one-frame encoder step the way a
// fleet does: every step call advances a shuffled subset of the windows
// still open, each by its own next frame, so a window's frames are stepped
// in batches of changing size and composition. For the nn/ and core/ tests
// that pin stepped windows to the whole-window forward pass.
#ifndef EVENTHIT_TESTS_STEPPED_WINDOWS_H_
#define EVENTHIT_TESTS_STEPPED_WINDOWS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace eventhit::testutil {

/// Step batch sizes, cycled call by call (fewer when fewer windows are
/// open). A fleet steps up to a wave of 256 streams at once.
inline constexpr size_t kStepBatches[] = {1, 3, 17, 64, 256};

/// `inputs` holds `count` windows of `steps` frames of `dim` features,
/// record-major: window s's frame t starts at (s * steps + t) * dim. Runs
/// every window from h = c = 0 through `step(x, n, h, c)` — x is
/// [dim x n], h and c are [hidden x n], batch-minor, updated in place —
/// where call k takes kStepBatches[k % 5] windows (or all still open),
/// picked by a shuffle seeded with `seed`. Appends each call's n to
/// `*batches` and returns every window's final h, row-major per window.
template <typename StepFn>
std::vector<float> StepWindows(const float* inputs, size_t count,
                               size_t steps, size_t dim, size_t hidden,
                               uint64_t seed, StepFn&& step,
                               std::vector<size_t>* batches) {
  Rng rng(seed);
  std::vector<float> state_h(count * hidden, 0.0f);
  std::vector<float> state_c(count * hidden, 0.0f);
  std::vector<size_t> next(count, 0);  // Each window's next frame.
  std::vector<size_t> open(count);
  for (size_t s = 0; s < count; ++s) open[s] = s;
  std::vector<float> x, h, c;
  for (size_t call = 0; !open.empty(); ++call) {
    rng.Shuffle(open);
    const size_t n = std::min(open.size(), kStepBatches[call % 5]);
    batches->push_back(n);
    x.assign(dim * n, 0.0f);
    h.assign(hidden * n, 0.0f);
    c.assign(hidden * n, 0.0f);
    for (size_t b = 0; b < n; ++b) {
      const size_t s = open[b];
      const float* frame = inputs + (s * steps + next[s]) * dim;
      for (size_t j = 0; j < dim; ++j) x[j * n + b] = frame[j];
      for (size_t j = 0; j < hidden; ++j) {
        h[j * n + b] = state_h[s * hidden + j];
        c[j * n + b] = state_c[s * hidden + j];
      }
    }
    step(x.data(), n, h.data(), c.data());
    for (size_t b = 0; b < n; ++b) {
      const size_t s = open[b];
      for (size_t j = 0; j < hidden; ++j) {
        state_h[s * hidden + j] = h[j * n + b];
        state_c[s * hidden + j] = c[j * n + b];
      }
      ++next[s];
    }
    open.erase(std::remove_if(open.begin(), open.end(),
                              [&](size_t s) { return next[s] == steps; }),
               open.end());
  }
  return state_h;
}

}  // namespace eventhit::testutil

#endif  // EVENTHIT_TESTS_STEPPED_WINDOWS_H_
