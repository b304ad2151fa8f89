// Blocked, cache-aware GEMM micro-kernels for the forward pass, which
// inference runs at every batch size, 1 included, and for the batched
// training backward.
//
// Why hand-rolled: EventHit's matrices are small (tens of rows/columns), so
// a general BLAS dependency buys nothing, but batching B prediction windows
// turns the per-record MatVecs into C += A*B products with B-fold weight
// reuse — the difference between a memory-bound and a compute-bound forward
// pass. The kernels here are written so a plain `-O3` build auto-vectorizes
// them: the inner loop runs unit-stride over independent output columns
// (no reduction, so no reassociation licence is needed), A is register-tiled
// four rows at a time, and all pointers are declared non-aliasing.
//
// Summation-order contract (see also matrix.h): every output element is
// accumulated in `float`, adding k-terms in ascending-k order starting from
// the existing value of C. This is exactly the order MatVec/MatVecAccum use,
// so a batched forward pass that (a) zero-fills C, (b) runs one Gemm per
// operand, and (c) adds the bias last reproduces the per-record MatVec
// reference bit-for-bit at any batch size. Conformal calibration scores are
// therefore not perturbed by batching (eventhit_model_test pins this).
#ifndef EVENTHIT_NN_GEMM_H_
#define EVENTHIT_NN_GEMM_H_

#include <cstddef>

namespace eventhit::nn {

/// C += A * B.
///
/// A is m x k (row-major, leading dimension `lda` >= k), B is k x n
/// (leading dimension `ldb` >= n), C is m x n (leading dimension
/// `ldc` >= n). The buffers must not overlap. Each C element accumulates
/// its k terms in ascending-k order on top of the incoming value, in
/// `float` (the summation-order contract above). Degenerate shapes
/// (m, n or k of zero) are no-ops.
void Gemm(size_t m, size_t n, size_t k, const float* a, size_t lda,
          const float* b, size_t ldb, float* c, size_t ldc);

/// C = A * B (overwrite): identical to zero-filling C and calling Gemm, but
/// without the memset traffic or the destination reload — the k==0 term
/// replaces the implicit zero. Same shape conventions, aliasing rules and
/// ascending-k float order as Gemm, so results match the zero-fill + Gemm
/// sequence bit-for-bit (up to the sign of a zero product). With k == 0,
/// C is zero-filled. This is the kernel the batched forward passes use for
/// their from-zero products (nn/matrix.h summation-order contract).
void GemmZero(size_t m, size_t n, size_t k, const float* a, size_t lda,
              const float* b, size_t ldb, float* c, size_t ldc);

}  // namespace eventhit::nn

#endif  // EVENTHIT_NN_GEMM_H_
