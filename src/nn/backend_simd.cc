// Explicit AVX2 kernels for the `simd` and `blocked` backends
// (docs/BACKENDS.md).
//
// This translation unit is compiled with -mavx2 -mfma (see
// src/nn/CMakeLists.txt) and must therefore never be entered unless
// SimdAvailable() reported AVX2+FMA at runtime — backend.cc's dispatch
// tables are the only callers, and they check first. Keep it free of
// standard-library templates: an out-of-line instantiation compiled here
// with AVX2 could be the copy the linker keeps for the whole program. The
// TU is also compiled with -ffp-contract=off so the compiler cannot fuse
// any multiply and add behind our back: the only FMAs are the explicit
// _mm256_fmadd_ps of MulAdd<true>.
//
// Every float kernel is a template on kFma, which decides how one
// multiply-add step of a GEMM k-loop or a Horner polynomial rounds:
//
//   kFma = true   (simd)    one fused multiply-add, one rounding per term;
//   kFma = false  (blocked) a separate multiply then add, two roundings —
//                           the exact IEEE operations, in the same order,
//                           of the portable kernels (gemm.cc,
//                           activations.cc) and the scalar oracle, so the
//                           blocked backend computes the same bits on AVX2
//                           and non-AVX2 hosts.
//
// The sigmoid's outer 0.5 + 0.5*t is a plain multiply and add in both
// flavours. Each output element is computed as
//
//   GemmZero:  first k-term by one multiply, each later term by one
//              multiply-add step, ascending k;
//   Gemm:      start from the existing C value, every term a multiply-add
//              step, ascending k;
//
// and a column tail that is not a multiple of eight runs the same vector
// code under a lane mask (masked loads and stores), so a column's bits do
// not depend on where it falls in the batch: per-record results are
// invariant under batch composition (the fleet's solo==batched digest
// contract).
#include <immintrin.h>

#include <cstddef>
#include <cstring>

#include "nn/activations_inl.h"

namespace eventhit::nn::detail {
namespace {

#if defined(__GNUC__) || defined(__clang__)
#define EVENTHIT_RESTRICT __restrict__
#else
#define EVENTHIT_RESTRICT
#endif

constexpr size_t kLanes = 8;

// acc + a*b with one rounding (kFma) or two (multiply, then add).
template <bool kFma>
inline __m256 MulAdd(__m256 a, __m256 b, __m256 acc) {
  if constexpr (kFma) {
    return _mm256_fmadd_ps(a, b, acc);
  } else {
    return _mm256_add_ps(_mm256_mul_ps(a, b), acc);
  }
}

// Column access for one 8-wide panel: a full panel uses plain unaligned
// loads and stores, the tail panel the same loads and stores under a lane
// mask (masked-off lanes read as zero and are never written).
struct FullPanel {
  __m256 Load(const float* p) const { return _mm256_loadu_ps(p); }
  void Store(float* p, __m256 v) const { _mm256_storeu_ps(p, v); }
};

struct TailPanel {
  explicit TailPanel(size_t lanes)
      : mask(_mm256_cmpgt_epi32(
            _mm256_set1_epi32(static_cast<int>(lanes)),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))) {}
  __m256 Load(const float* p) const { return _mm256_maskload_ps(p, mask); }
  void Store(float* p, __m256 v) const { _mm256_maskstore_ps(p, mask, v); }
  __m256i mask;
};

// Runs `panel(j, access)` over the 8-wide column panels of [0, n): full
// panels first, then one masked panel for the remainder.
template <class PanelFn>
inline void ForEachPanel(size_t n, PanelFn&& panel) {
  size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) panel(j, FullPanel{});
  if (j < n) panel(j, TailPanel(n - j));
}

// --- float GEMM ------------------------------------------------------------

// kRows A rows (4, or 1 for the row remainder: a compile-time count, so
// the accumulators stay in registers) times one 8-column B panel; C is
// loaded once (or not at all, for GemmZero) and stored once.
template <bool kFma, bool kAccumulate, size_t kRows, class Panel>
inline void GemmRows(size_t k, const float* const* a, const float* b,
                     size_t ldb, float* const* c, Panel panel) {
  __m256 acc[kRows];
  size_t kk;
  if constexpr (kAccumulate) {
    for (size_t r = 0; r < kRows; ++r) acc[r] = panel.Load(c[r]);
    kk = 0;
  } else {
    const __m256 b0 = panel.Load(b);
    for (size_t r = 0; r < kRows; ++r) {
      acc[r] = _mm256_mul_ps(_mm256_set1_ps(a[r][0]), b0);
    }
    kk = 1;
  }
  for (; kk < k; ++kk) {
    const __m256 bv = panel.Load(b + kk * ldb);
    for (size_t r = 0; r < kRows; ++r) {
      acc[r] = MulAdd<kFma>(_mm256_set1_ps(a[r][kk]), bv, acc[r]);
    }
  }
  for (size_t r = 0; r < kRows; ++r) panel.Store(c[r], acc[r]);
}

// One A row times kPanels adjacent full 8-column panels: the row's k-loop
// advances kPanels independent accumulators, so a row left over from the
// four-row tiles is not bound by the latency of a single add chain. Each
// element still gets GemmRows' operations in ascending k.
template <bool kFma, bool kAccumulate, size_t kPanels>
inline void GemmRowPanels(size_t k, const float* a, const float* b,
                          size_t ldb, float* c) {
  __m256 acc[kPanels];
  size_t kk;
  if constexpr (kAccumulate) {
    for (size_t p = 0; p < kPanels; ++p) {
      acc[p] = _mm256_loadu_ps(c + p * kLanes);
    }
    kk = 0;
  } else {
    const __m256 a0 = _mm256_set1_ps(a[0]);
    for (size_t p = 0; p < kPanels; ++p) {
      acc[p] = _mm256_mul_ps(a0, _mm256_loadu_ps(b + p * kLanes));
    }
    kk = 1;
  }
  for (; kk < k; ++kk) {
    const __m256 av = _mm256_set1_ps(a[kk]);
    const float* brow = b + kk * ldb;
    for (size_t p = 0; p < kPanels; ++p) {
      acc[p] = MulAdd<kFma>(av, _mm256_loadu_ps(brow + p * kLanes), acc[p]);
    }
  }
  for (size_t p = 0; p < kPanels; ++p) {
    _mm256_storeu_ps(c + p * kLanes, acc[p]);
  }
}

template <bool kFma, bool kAccumulate>
void GemmAvx2Impl(size_t m, size_t n, size_t k,
                  const float* EVENTHIT_RESTRICT a, size_t lda,
                  const float* EVENTHIT_RESTRICT b, size_t ldb,
                  float* EVENTHIT_RESTRICT c, size_t ldc) {
  if (k == 0) {
    if constexpr (!kAccumulate) {
      for (size_t i = 0; i < m; ++i) {
        std::memset(c + i * ldc, 0, n * sizeof(float));
      }
    }
    return;
  }
  // Four-row tiles across every column panel: the tile's A rows stay hot
  // in L1 while the (small, k x n) B operand streams once per tile.
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const float* rows[4] = {a + i * lda, a + (i + 1) * lda,
                            a + (i + 2) * lda, a + (i + 3) * lda};
    ForEachPanel(n, [&](size_t j, auto panel) {
      float* out[4] = {c + i * ldc + j, c + (i + 1) * ldc + j,
                       c + (i + 2) * ldc + j, c + (i + 3) * ldc + j};
      GemmRows<kFma, kAccumulate, 4>(k, rows, b + j, ldb, out, panel);
    });
  }
  // Leftover rows: four full panels at a time, then the rest one by one.
  constexpr size_t kRowPanels = 4;
  for (; i < m; ++i) {
    const float* row[1] = {a + i * lda};
    float* const c_row = c + i * ldc;
    size_t j = 0;
    for (; j + kRowPanels * kLanes <= n; j += kRowPanels * kLanes) {
      GemmRowPanels<kFma, kAccumulate, kRowPanels>(k, row[0], b + j, ldb,
                                                   c_row + j);
    }
    ForEachPanel(n - j, [&](size_t jj, auto panel) {
      float* out[1] = {c_row + j + jj};
      GemmRows<kFma, kAccumulate, 1>(k, row, b + j + jj, ldb, out, panel);
    });
  }
}

// --- activations -----------------------------------------------------------
//
// The rational tanh of activations.cc (coefficients shared via
// activations_inl.h): clamp, x2 = x*x, Horner for numerator and
// denominator, p*x, one divide. The clamp is max(lo, x) then min(hi, x) in
// the instructions' operand order, which returns x itself for a NaN or a
// signed zero — exactly what std::max(x, lo) / std::min(x, hi) do in the
// portable code. Sigmoid is 0.5 + 0.5*tanh(0.5*x) with its multiplies and
// add kept separate in both flavours.

template <bool kFma>
inline __m256 TanhVec(__m256 x) {
  x = _mm256_max_ps(_mm256_set1_ps(-kTanhClamp), x);
  x = _mm256_min_ps(_mm256_set1_ps(kTanhClamp), x);
  const __m256 x2 = _mm256_mul_ps(x, x);
  __m256 p = _mm256_set1_ps(kTanhNum[0]);
  for (size_t i = 1; i < kTanhNumTerms; ++i) {
    p = MulAdd<kFma>(p, x2, _mm256_set1_ps(kTanhNum[i]));
  }
  p = _mm256_mul_ps(p, x);
  __m256 q = _mm256_set1_ps(kTanhDen[0]);
  for (size_t i = 1; i < kTanhDenTerms; ++i) {
    q = MulAdd<kFma>(q, x2, _mm256_set1_ps(kTanhDen[i]));
  }
  return _mm256_div_ps(p, q);
}

template <bool kFma>
inline __m256 SigmoidVec(__m256 x) {
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 t = TanhVec<kFma>(_mm256_mul_ps(half, x));
  return _mm256_add_ps(half, _mm256_mul_ps(half, t));
}

template <class Fn>
inline void MapInPlace(float* x, size_t n, Fn fn) {
  ForEachPanel(n, [&](size_t i, auto panel) {
    panel.Store(x + i, fn(panel.Load(x + i)));
  });
}

}  // namespace

template <bool kFma>
void GemmZeroAvx2(size_t m, size_t n, size_t k, const float* a, size_t lda,
                  const float* b, size_t ldb, float* c, size_t ldc) {
  GemmAvx2Impl<kFma, false>(m, n, k, a, lda, b, ldb, c, ldc);
}

template <bool kFma>
void GemmAvx2(size_t m, size_t n, size_t k, const float* a, size_t lda,
              const float* b, size_t ldb, float* c, size_t ldc) {
  GemmAvx2Impl<kFma, true>(m, n, k, a, lda, b, ldb, c, ldc);
}

template <bool kFma>
void TanhInPlaceAvx2(float* x, size_t n) {
  MapInPlace(x, n, [](__m256 v) { return TanhVec<kFma>(v); });
}

template <bool kFma>
void SigmoidInPlaceAvx2(float* x, size_t n) {
  MapInPlace(x, n, [](__m256 v) { return SigmoidVec<kFma>(v); });
}

// The two flavours backend.cc's tables point at.
template void GemmZeroAvx2<true>(size_t, size_t, size_t, const float*, size_t,
                                 const float*, size_t, float*, size_t);
template void GemmZeroAvx2<false>(size_t, size_t, size_t, const float*,
                                  size_t, const float*, size_t, float*,
                                  size_t);
template void GemmAvx2<true>(size_t, size_t, size_t, const float*, size_t,
                             const float*, size_t, float*, size_t);
template void GemmAvx2<false>(size_t, size_t, size_t, const float*, size_t,
                              const float*, size_t, float*, size_t);
template void TanhInPlaceAvx2<true>(float*, size_t);
template void TanhInPlaceAvx2<false>(float*, size_t);
template void SigmoidInPlaceAvx2<true>(float*, size_t);
template void SigmoidInPlaceAvx2<false>(float*, size_t);

}  // namespace eventhit::nn::detail
