#include "nn/gemm.h"

namespace eventhit::nn {
namespace {

#if defined(__GNUC__) || defined(__clang__)
#define EVENTHIT_RESTRICT __restrict__
#else
#define EVENTHIT_RESTRICT
#endif

// Rows of A (and C) processed together by the register tile. Four float
// accumulator rows x one vector register of columns fits comfortably in
// the sixteen xmm/ymm registers of baseline x86-64 while quartering the
// number of times each B row is streamed from cache.
constexpr size_t kRowTile = 4;

// One tile: C[0..4) x [0..n) += A-tile * B (or = with kAccumulate false,
// which peels the first k-term into a store so C is never read or
// pre-zeroed). The a-scalars hoist into registers; the j loop is
// unit-stride over four independent accumulator rows, which the compiler
// turns into FMA-free packed multiply-adds without needing to reassociate
// anything (each c[j] is a distinct element, not a reduction).
template <bool kAccumulate>
inline void GemmTile4(size_t n, size_t k, const float* EVENTHIT_RESTRICT a0,
                      const float* EVENTHIT_RESTRICT a1,
                      const float* EVENTHIT_RESTRICT a2,
                      const float* EVENTHIT_RESTRICT a3,
                      const float* EVENTHIT_RESTRICT b, size_t ldb,
                      float* EVENTHIT_RESTRICT c0,
                      float* EVENTHIT_RESTRICT c1,
                      float* EVENTHIT_RESTRICT c2,
                      float* EVENTHIT_RESTRICT c3) {
  size_t kk = 0;
  if constexpr (!kAccumulate) {
    if (k == 0) {
      for (size_t j = 0; j < n; ++j) {
        c0[j] = 0.0f;
        c1[j] = 0.0f;
        c2[j] = 0.0f;
        c3[j] = 0.0f;
      }
      return;
    }
    const float a00 = a0[0];
    const float a10 = a1[0];
    const float a20 = a2[0];
    const float a30 = a3[0];
    for (size_t j = 0; j < n; ++j) {
      c0[j] = a00 * b[j];
      c1[j] = a10 * b[j];
      c2[j] = a20 * b[j];
      c3[j] = a30 * b[j];
    }
    kk = 1;
  }
  for (; kk < k; ++kk) {
    const float a0k = a0[kk];
    const float a1k = a1[kk];
    const float a2k = a2[kk];
    const float a3k = a3[kk];
    const float* EVENTHIT_RESTRICT brow = b + kk * ldb;
    for (size_t j = 0; j < n; ++j) {
      c0[j] += a0k * brow[j];
      c1[j] += a1k * brow[j];
      c2[j] += a2k * brow[j];
      c3[j] += a3k * brow[j];
    }
  }
}

template <bool kAccumulate>
inline void GemmTile1(size_t n, size_t k, const float* EVENTHIT_RESTRICT a0,
                      const float* EVENTHIT_RESTRICT b, size_t ldb,
                      float* EVENTHIT_RESTRICT c0) {
  size_t kk = 0;
  if constexpr (!kAccumulate) {
    if (k == 0) {
      for (size_t j = 0; j < n; ++j) c0[j] = 0.0f;
      return;
    }
    const float a00 = a0[0];
    for (size_t j = 0; j < n; ++j) c0[j] = a00 * b[j];
    kk = 1;
  }
  for (; kk < k; ++kk) {
    const float a0k = a0[kk];
    const float* EVENTHIT_RESTRICT brow = b + kk * ldb;
    for (size_t j = 0; j < n; ++j) {
      c0[j] += a0k * brow[j];
    }
  }
}

template <bool kAccumulate>
void GemmImpl(size_t m, size_t n, size_t k, const float* a, size_t lda,
              const float* b, size_t ldb, float* c, size_t ldc) {
  size_t i = 0;
  for (; i + kRowTile <= m; i += kRowTile) {
    GemmTile4<kAccumulate>(n, k, a + i * lda, a + (i + 1) * lda,
                           a + (i + 2) * lda, a + (i + 3) * lda, b, ldb,
                           c + i * ldc, c + (i + 1) * ldc, c + (i + 2) * ldc,
                           c + (i + 3) * ldc);
  }
  for (; i < m; ++i) {
    GemmTile1<kAccumulate>(n, k, a + i * lda, b, ldb, c + i * ldc);
  }
}

}  // namespace

void Gemm(size_t m, size_t n, size_t k, const float* a, size_t lda,
          const float* b, size_t ldb, float* c, size_t ldc) {
  GemmImpl<true>(m, n, k, a, lda, b, ldb, c, ldc);
}

void GemmZero(size_t m, size_t n, size_t k, const float* a, size_t lda,
              const float* b, size_t ldb, float* c, size_t ldc) {
  GemmImpl<false>(m, n, k, a, lda, b, ldb, c, ldc);
}

}  // namespace eventhit::nn
