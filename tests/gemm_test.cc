#include "nn/gemm.h"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/backend.h"
#include "nn/matrix.h"
#include "nn/workspace.h"

namespace eventhit::nn {
namespace {

std::vector<float> RandomBuffer(size_t n, Rng& rng) {
  std::vector<float> buf(n);
  for (auto& v : buf) v = static_cast<float>(rng.Gaussian(0.0, 1.0));
  return buf;
}

// Reference C += A*B in the documented summation order: float accumulation,
// ascending-k, on top of the incoming C value. The blocked kernel must match
// this to the bit — the contract in gemm.h is exact order, not tolerance.
void NaiveGemm(size_t m, size_t n, size_t k, const float* a, size_t lda,
               const float* b, size_t ldb, float* c, size_t ldc) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      float acc = c[i * ldc + j];
      for (size_t p = 0; p < k; ++p) {
        acc += a[i * lda + p] * b[p * ldb + j];
      }
      c[i * ldc + j] = acc;
    }
  }
}

// Double-precision reference, for a blanket accuracy check independent of
// float rounding order.
void NaiveGemmDouble(size_t m, size_t n, size_t k, const float* a, size_t lda,
                     const float* b, size_t ldb, std::vector<double>& c) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double acc = c[i * n + j];
      for (size_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[i * lda + p]) *
               static_cast<double>(b[p * ldb + j]);
      }
      c[i * n + j] = acc;
    }
  }
}

void CheckGemmShape(size_t m, size_t n, size_t k, uint64_t seed) {
  Rng rng(seed);
  const std::vector<float> a = RandomBuffer(m * k, rng);
  const std::vector<float> b = RandomBuffer(k * n, rng);
  // Start from a non-zero C so the accumulate-into-destination behaviour is
  // exercised, not just the from-zero case.
  std::vector<float> c = RandomBuffer(m * n, rng);
  std::vector<float> c_ref = c;
  std::vector<double> c_dbl(c.begin(), c.end());

  Gemm(m, n, k, a.data(), k, b.data(), n, c.data(), n);
  NaiveGemm(m, n, k, a.data(), k, b.data(), n, c_ref.data(), n);
  NaiveGemmDouble(m, n, k, a.data(), k, b.data(), n, c_dbl);

  for (size_t i = 0; i < m * n; ++i) {
    EXPECT_EQ(c[i], c_ref[i]) << "m=" << m << " n=" << n << " k=" << k
                              << " elem " << i;
    EXPECT_NEAR(c[i], c_dbl[i], 1e-3 * (1.0 + std::abs(c_dbl[i])))
        << "m=" << m << " n=" << n << " k=" << k << " elem " << i;
  }
}

TEST(GemmTest, MatchesNaiveReferenceAcrossShapes) {
  // Shapes straddle the 4-row register tile: multiples, remainders of 1–3,
  // single-row / single-column / single-k edge cases.
  const size_t shapes[][3] = {
      {1, 1, 1},  {1, 8, 5},   {8, 1, 5},  {5, 5, 1},  {4, 16, 8},
      {8, 32, 4}, {7, 13, 11}, {3, 9, 17}, {6, 2, 33}, {17, 31, 29},
  };
  uint64_t seed = 100;
  for (const auto& s : shapes) {
    CheckGemmShape(s[0], s[1], s[2], seed++);
  }
}

TEST(GemmTest, DegenerateShapesAreNoOps) {
  std::vector<float> a(8, 1.0f), b(8, 2.0f);
  std::vector<float> c = {3.0f, 4.0f, 5.0f, 6.0f};
  const std::vector<float> c_before = c;
  Gemm(0, 2, 2, a.data(), 2, b.data(), 2, c.data(), 2);
  Gemm(2, 0, 2, a.data(), 2, b.data(), 0, c.data(), 0);
  Gemm(2, 2, 0, a.data(), 0, b.data(), 2, c.data(), 2);
  EXPECT_EQ(c, c_before);
}

TEST(GemmTest, RespectsLeadingDimensions) {
  // Embed a 2x3 * 3x2 product inside larger row strides and check the
  // padding lanes are untouched.
  const size_t m = 2, n = 2, k = 3;
  const size_t lda = 5, ldb = 4, ldc = 6;
  Rng rng(7);
  const std::vector<float> a = RandomBuffer(m * lda, rng);
  const std::vector<float> b = RandomBuffer(k * ldb, rng);
  std::vector<float> c = RandomBuffer(m * ldc, rng);
  std::vector<float> c_ref = c;

  Gemm(m, n, k, a.data(), lda, b.data(), ldb, c.data(), ldc);
  NaiveGemm(m, n, k, a.data(), lda, b.data(), ldb, c_ref.data(), ldc);
  for (size_t i = 0; i < m * ldc; ++i) {
    EXPECT_EQ(c[i], c_ref[i]) << "elem " << i;
  }
}

TEST(GemmTest, SingleColumnMatchesMatVecBitExact) {
  // With n=1 and a zeroed destination, Gemm must reproduce MatVec exactly:
  // this is the equivalence the batched forward pass relies on.
  Rng rng(21);
  Matrix w = Matrix::GlorotUniform(9, 7, rng);
  const std::vector<float> x = RandomBuffer(7, rng);
  std::vector<float> y_gemm(9, 0.0f);
  std::vector<float> y_matvec(9);
  Gemm(9, 1, 7, w.data(), 7, x.data(), 1, y_gemm.data(), 1);
  MatVec(w, x.data(), y_matvec.data());
  for (size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(y_gemm[i], y_matvec[i]) << "row " << i;
  }
}

TEST(GemmZeroTest, MatchesZeroFillPlusGemm) {
  const size_t shapes[][3] = {
      {1, 1, 1}, {4, 16, 8}, {7, 13, 11}, {3, 9, 17}, {17, 31, 29}};
  uint64_t seed = 200;
  for (const auto& s : shapes) {
    const size_t m = s[0], n = s[1], k = s[2];
    Rng rng(seed++);
    const std::vector<float> a = RandomBuffer(m * k, rng);
    const std::vector<float> b = RandomBuffer(k * n, rng);
    // Overwrite mode must ignore whatever is in C.
    std::vector<float> c = RandomBuffer(m * n, rng);
    std::vector<float> c_ref(m * n, 0.0f);
    GemmZero(m, n, k, a.data(), k, b.data(), n, c.data(), n);
    Gemm(m, n, k, a.data(), k, b.data(), n, c_ref.data(), n);
    for (size_t i = 0; i < m * n; ++i) {
      EXPECT_EQ(c[i], c_ref[i])
          << "m=" << m << " n=" << n << " k=" << k << " elem " << i;
    }
  }
}

TEST(GemmZeroTest, ZeroKZeroFillsDestination) {
  std::vector<float> a(4, 1.0f), b(4, 1.0f);
  std::vector<float> c = {7.0f, 8.0f, 9.0f, 10.0f, 11.0f, 12.0f};
  GemmZero(3, 2, 0, a.data(), 0, b.data(), 2, c.data(), 2);
  for (float v : c) {
    EXPECT_EQ(v, 0.0f);
  }
}

// The blocked kernels (AVX2 where the CPU has it, the portable ones
// elsewhere) against the scalar oracle, bit for bit, at row counts that
// leave 0-3 rows outside the four-row tiles and column counts of one to
// twelve 8-wide panels, with and without a tail beyond four.
TEST(GemmTest, BlockedKernelsMatchScalarOracle) {
  const BackendKernels& blocked = *GetBackend(BackendKind::kBlocked).kernels;
  const BackendKernels& scalar = *GetBackend(BackendKind::kScalar).kernels;
  uint64_t seed = 300;
  for (const size_t m : {1u, 5u, 10u, 501u}) {
    for (const size_t n : {8u, 24u, 32u, 40u, 96u}) {
      for (const size_t k : {1u, 13u, 64u}) {
        Rng rng(seed++);
        const std::vector<float> a = RandomBuffer(m * k, rng);
        const std::vector<float> b = RandomBuffer(k * n, rng);
        const std::vector<float> c0 = RandomBuffer(m * n, rng);
        for (const bool accumulate : {false, true}) {
          std::vector<float> got = c0;
          std::vector<float> want = c0;
          const GemmFn fast = accumulate ? blocked.gemm : blocked.gemm_zero;
          const GemmFn oracle = accumulate ? scalar.gemm : scalar.gemm_zero;
          fast(m, n, k, a.data(), k, b.data(), n, got.data(), n);
          oracle(m, n, k, a.data(), k, b.data(), n, want.data(), n);
          EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                got.size() * sizeof(float)),
                    0)
              << (accumulate ? "Gemm" : "GemmZero") << " m=" << m
              << " n=" << n << " k=" << k;
        }
      }
    }
  }
}

TEST(WorkspaceTest, AllocReturnsDistinctWritableBuffers) {
  Workspace ws;
  float* a = ws.Alloc(100);
  float* b = ws.Alloc(50);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // Writing both fully must not overlap.
  for (size_t i = 0; i < 100; ++i) a[i] = 1.0f;
  for (size_t i = 0; i < 50; ++i) b[i] = 2.0f;
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a[i], 1.0f);
  }
  EXPECT_GE(ws.used(), 150u);
  EXPECT_GE(ws.capacity(), ws.used());
}

TEST(WorkspaceTest, ResetRewindsAndCapacityStabilises) {
  Workspace ws;
  // A steady-state allocation pattern: after enough Resets the capacity must
  // stop growing (all blocks coalesced, no further heap traffic).
  size_t cap_after_warmup = 0;
  for (int round = 0; round < 6; ++round) {
    ws.Reset();
    EXPECT_EQ(ws.used(), 0u);
    ws.Alloc(700);
    ws.Alloc(1300);
    ws.Alloc(64);
    if (round == 2) cap_after_warmup = ws.capacity();
    if (round > 2) {
      EXPECT_EQ(ws.capacity(), cap_after_warmup);
    }
  }
}

TEST(WorkspaceTest, ResetReusesTheSameBlock) {
  Workspace ws;
  ws.Alloc(4096);
  ws.Reset();
  float* first = ws.Alloc(4096);
  ws.Reset();
  float* second = ws.Alloc(4096);
  // Once the arena fits the sequence in one block, the same storage is
  // handed back — the steady state is allocation-free.
  EXPECT_EQ(first, second);
}

TEST(WorkspaceTest, ZeroSizedAllocIsValid) {
  Workspace ws;
  EXPECT_NE(ws.Alloc(0), nullptr);
}

}  // namespace
}  // namespace eventhit::nn
