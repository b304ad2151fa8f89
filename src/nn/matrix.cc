#include "nn/matrix.h"

#include <cmath>
#include <cstring>

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
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) out[c * rows + r] = a[r * cols + c];
  }
}

}  // namespace eventhit::nn
