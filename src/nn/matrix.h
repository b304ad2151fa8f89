// Dense row-major float matrix plus the handful of kernels the neural
// network substrate needs (matrix-vector products, outer-product gradient
// accumulation). Deliberately minimal: EventHit's model is small, so clarity
// and cache-friendly contiguous loops beat a general BLAS dependency. The
// matrix-vector kernels serve the per-record ForwardCached/Backward layers,
// the reference the batched GEMM passes (nn/gemm.h) are tested against;
// inference never runs them.
#ifndef EVENTHIT_NN_MATRIX_H_
#define EVENTHIT_NN_MATRIX_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"

namespace eventhit::nn {

/// Vector of activations/gradients. Plain std::vector keeps interop with the
/// rest of the library trivial.
using Vec = std::vector<float>;

/// Row-major dense matrix of floats.
class Matrix {
 public:
  Matrix() = default;

  /// Creates a rows x cols matrix of zeros.
  Matrix(size_t rows, size_t cols);

  /// All-zero matrix (alias of the constructor, for readability).
  static Matrix Zeros(size_t rows, size_t cols);

  /// Glorot/Xavier-uniform initialisation in
  /// [-sqrt(6/(rows+cols)), +sqrt(6/(rows+cols))].
  static Matrix GlorotUniform(size_t rows, size_t cols, Rng& rng);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float At(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  float* Row(size_t r) { return data_.data() + r * cols_; }
  const float* Row(size_t r) const { return data_.data() + r * cols_; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Sets every element to zero (used to reset gradients between steps).
  void SetZero();

  /// Sum of squared elements (for gradient-norm clipping).
  double SquaredNorm() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<float> data_;
};

// Summation-order contract (shared with nn/gemm.h): every inner product in
// these kernels accumulates in `float`, adding column terms in ascending
// order from zero, and any pre-existing destination value is added in one
// final operation (y[r] += acc). The build never enables -ffast-math, so
// the compiler may not reassociate these sums — which makes the order part
// of the kernels' observable behaviour. The GEMM kernels replay the exact
// same order per output element, so the batched forward pass agrees with
// the per-record reference bit for bit at any batch size and conformal
// calibration scores are stable under batching.

/// y = W * x. `x` must have W.cols() elements, `y` W.rows().
void MatVec(const Matrix& w, const float* x, float* y);

/// y += W * x (inner products formed separately, then added once; see the
/// summation-order contract above).
void MatVecAccum(const Matrix& w, const float* x, float* y);

/// dx += W^T * dy. `dy` has W.rows() elements, `dx` W.cols().
void MatTVecAccum(const Matrix& w, const float* dy, float* dx);

/// dW += dy * x^T (outer product), the weight gradient of y = W x.
void OuterAccum(Matrix& dw, const float* dy, const float* x);

/// out = A^T for a row-major rows x cols `a`: `out` is cols x rows,
/// row-major. The batched backward passes use it to build W^T and
/// record-major copies of batch-minor activations, so every GEMM operand
/// streams unit-stride.
void Transpose(const float* a, size_t rows, size_t cols, float* out);

/// out[c * ldo + r] = a[r * lda + c] for r < rows, c < cols: Transpose
/// between strided buffers. A negative `lda` walks the source rows
/// backwards from `a` (row r at a + r * lda). Copies 4 x 4 blocks (SSE
/// shuffles on x86); every element is a plain copy, so the bytes written
/// do not depend on the blocking.
void TransposeStrided(const float* a, std::ptrdiff_t lda, size_t rows,
                      size_t cols, float* out, size_t ldo);

}  // namespace eventhit::nn

#endif  // EVENTHIT_NN_MATRIX_H_
