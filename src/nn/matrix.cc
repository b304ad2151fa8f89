#include "nn/matrix.h"

#include <cmath>
#include <cstring>

#if defined(__SSE__)
#include <xmmintrin.h>
#endif

#include "common/check.h"

namespace eventhit::nn {

Matrix::Matrix(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

Matrix Matrix::Zeros(size_t rows, size_t cols) { return Matrix(rows, cols); }

Matrix Matrix::GlorotUniform(size_t rows, size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  const double bound = std::sqrt(6.0 / static_cast<double>(rows + cols));
  for (size_t i = 0; i < m.data_.size(); ++i) {
    m.data_[i] = static_cast<float>(rng.Uniform(-bound, bound));
  }
  return m;
}

void Matrix::SetZero() {
  std::memset(data_.data(), 0, data_.size() * sizeof(float));
}

double Matrix::SquaredNorm() const {
  double sum = 0.0;
  for (float v : data_) sum += static_cast<double>(v) * v;
  return sum;
}

void MatVec(const Matrix& w, const float* x, float* y) {
  const size_t rows = w.rows();
  const size_t cols = w.cols();
  for (size_t r = 0; r < rows; ++r) {
    const float* row = w.Row(r);
    float acc = 0.0f;
    for (size_t c = 0; c < cols; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
}

void MatVecAccum(const Matrix& w, const float* x, float* y) {
  const size_t rows = w.rows();
  const size_t cols = w.cols();
  for (size_t r = 0; r < rows; ++r) {
    const float* row = w.Row(r);
    float acc = 0.0f;
    for (size_t c = 0; c < cols; ++c) acc += row[c] * x[c];
    y[r] += acc;
  }
}

void MatTVecAccum(const Matrix& w, const float* dy, float* dx) {
  const size_t rows = w.rows();
  const size_t cols = w.cols();
  // Row-major friendly order: stream each row once, scaled by dy[r].
  for (size_t r = 0; r < rows; ++r) {
    const float scale = dy[r];
    if (scale == 0.0f) continue;
    const float* row = w.Row(r);
    for (size_t c = 0; c < cols; ++c) dx[c] += scale * row[c];
  }
}

void OuterAccum(Matrix& dw, const float* dy, const float* x) {
  const size_t rows = dw.rows();
  const size_t cols = dw.cols();
  for (size_t r = 0; r < rows; ++r) {
    const float scale = dy[r];
    if (scale == 0.0f) continue;
    float* row = dw.Row(r);
    for (size_t c = 0; c < cols; ++c) row[c] += scale * x[c];
  }
}

void Transpose(const float* a, size_t rows, size_t cols, float* out) {
  TransposeStrided(a, static_cast<std::ptrdiff_t>(cols), rows, cols, out,
                   rows);
}

void TransposeStrided(const float* a, std::ptrdiff_t lda, size_t rows,
                      size_t cols, float* out, size_t ldo) {
  const auto src = [&](size_t r, size_t c) {
    return a + static_cast<std::ptrdiff_t>(r) * lda +
           static_cast<std::ptrdiff_t>(c);
  };
  // Elements outside the 4 x 4 blocks: the right edge of the block rows
  // and the rows below them.
  const auto copy = [&](size_t r0, size_t r1, size_t c0, size_t c1) {
    for (size_t c = c0; c < c1; ++c) {
      for (size_t r = r0; r < r1; ++r) out[c * ldo + r] = *src(r, c);
    }
  };
  size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    size_t c = 0;
    for (; c + 4 <= cols; c += 4) {
#if defined(__SSE__)
      __m128 v0 = _mm_loadu_ps(src(r, c));
      __m128 v1 = _mm_loadu_ps(src(r + 1, c));
      __m128 v2 = _mm_loadu_ps(src(r + 2, c));
      __m128 v3 = _mm_loadu_ps(src(r + 3, c));
      _MM_TRANSPOSE4_PS(v0, v1, v2, v3);
      _mm_storeu_ps(out + c * ldo + r, v0);
      _mm_storeu_ps(out + (c + 1) * ldo + r, v1);
      _mm_storeu_ps(out + (c + 2) * ldo + r, v2);
      _mm_storeu_ps(out + (c + 3) * ldo + r, v3);
#else
      copy(r, r + 4, c, c + 4);
#endif
    }
    copy(r, r + 4, c, cols);
  }
  copy(r, rows, 0, cols);
}

}  // namespace eventhit::nn
