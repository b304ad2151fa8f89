#include "nn/activations.h"

#include <algorithm>

#include "nn/activations_inl.h"

namespace eventhit::nn {
namespace {

// Rational minimax approximation of tanh on [-7.905, 7.905] (the standard
// 13/6-degree odd/even pair; coefficients in activations_inl.h, shared with
// the AVX2 kernels): clamp, polynomials, one divide — no libm call on the
// inference hot path. Absolute error is under 4e-7 everywhere and a few
// ulps in the core range, far inside the model's 1e-5 score-agreement
// bound.
//
// The clamp is std::max(x, lo) then std::min(x, hi): a NaN or a signed zero
// passes through unchanged — the same as the AVX2 kernels' max(lo, x),
// min(hi, x) in instruction operand order.
inline float TanhClamp(float x) {
  return std::min(std::max(x, -detail::kTanhClamp), detail::kTanhClamp);
}

// The polynomial part, on an already clamped input.
inline float TanhRational(float x) {
  const float x2 = x * x;
  float p = detail::kTanhNum[0];
  for (size_t i = 1; i < detail::kTanhNumTerms; ++i) {
    p = p * x2 + detail::kTanhNum[i];
  }
  p = p * x;
  float q = detail::kTanhDen[0];
  for (size_t i = 1; i < detail::kTanhDenTerms; ++i) {
    q = q * x2 + detail::kTanhDen[i];
  }
  return p / q;
}

// The in-place loops run in chunks of kChunk elements, each chunk in two
// passes: clamp, then polynomial. With both in one loop body GCC's PRE
// constant-folds the polynomial on the clamped-to-bound path and splits the
// loop into branches, which defeats vectorization; split, both loops
// vectorize under plain -O3 at the baseline ISA (SSE2 on x86-64, NEON on
// aarch64). The per-element operations are those of TanhScalar, and
// src/nn/CMakeLists.txt pins -ffp-contract=off, so the result is the same
// bits vectorized or not and on every host.
constexpr size_t kChunk = 256;

}  // namespace

// sigmoid(x) = (1 + tanh(x/2)) / 2, exact at 0 and saturating to exactly
// 0/1, so probability outputs stay in [0, 1].
float SigmoidScalar(float x) {
  return 0.5f + 0.5f * TanhRational(TanhClamp(0.5f * x));
}

float TanhScalar(float x) { return TanhRational(TanhClamp(x)); }

void TanhInPlace(float* x, size_t n) {
  for (size_t i0 = 0; i0 < n; i0 += kChunk) {
    const size_t end = std::min(n, i0 + kChunk);
    for (size_t i = i0; i < end; ++i) x[i] = TanhClamp(x[i]);
    for (size_t i = i0; i < end; ++i) x[i] = TanhRational(x[i]);
  }
}

void SigmoidInPlace(float* x, size_t n) {
  for (size_t i0 = 0; i0 < n; i0 += kChunk) {
    const size_t end = std::min(n, i0 + kChunk);
    for (size_t i = i0; i < end; ++i) x[i] = TanhClamp(0.5f * x[i]);
    for (size_t i = i0; i < end; ++i) {
      x[i] = 0.5f + 0.5f * TanhRational(x[i]);
    }
  }
}

void TanhBackward(const float* y, const float* dy, float* dx, size_t n) {
  for (size_t i = 0; i < n; ++i) dx[i] = dy[i] * (1.0f - y[i] * y[i]);
}

}  // namespace eventhit::nn
