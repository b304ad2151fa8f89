#include "nn/matrix.h"

#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace eventhit::nn {
namespace {

TEST(MatrixTest, ZeroConstruction) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 4; ++c) EXPECT_EQ(m.At(r, c), 0.0f);
  }
}

TEST(MatrixTest, RowMajorLayout) {
  Matrix m(2, 3);
  m.At(1, 2) = 7.0f;
  EXPECT_EQ(m.data()[1 * 3 + 2], 7.0f);
  EXPECT_EQ(m.Row(1)[2], 7.0f);
}

TEST(MatrixTest, GlorotBoundsRespected) {
  Rng rng(5);
  const Matrix m = Matrix::GlorotUniform(20, 30, rng);
  const double bound = std::sqrt(6.0 / 50.0);
  bool any_nonzero = false;
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::fabs(m.data()[i]), bound + 1e-6);
    any_nonzero = any_nonzero || m.data()[i] != 0.0f;
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(MatrixTest, SetZero) {
  Matrix a(2, 2);
  a.At(0, 0) = 1.0f;
  a.At(1, 1) = 2.0f;
  a.SetZero();
  EXPECT_EQ(a.At(0, 0), 0.0f);
  EXPECT_EQ(a.At(1, 1), 0.0f);
}

TEST(MatrixTest, SquaredNorm) {
  Matrix m(1, 3);
  m.At(0, 0) = 1.0f;
  m.At(0, 1) = 2.0f;
  m.At(0, 2) = -2.0f;
  EXPECT_DOUBLE_EQ(m.SquaredNorm(), 9.0);
}

TEST(KernelsTest, MatVec) {
  Matrix w(2, 3);
  // [[1 2 3], [4 5 6]] * [1, 0, -1] = [-2, -2]
  float vals[] = {1, 2, 3, 4, 5, 6};
  for (size_t i = 0; i < 6; ++i) w.data()[i] = vals[i];
  const float x[] = {1.0f, 0.0f, -1.0f};
  float y[2];
  MatVec(w, x, y);
  EXPECT_FLOAT_EQ(y[0], -2.0f);
  EXPECT_FLOAT_EQ(y[1], -2.0f);
}

TEST(KernelsTest, MatVecAccumAddsToExisting) {
  Matrix w(1, 2);
  w.At(0, 0) = 1.0f;
  w.At(0, 1) = 1.0f;
  const float x[] = {2.0f, 3.0f};
  float y[1] = {10.0f};
  MatVecAccum(w, x, y);
  EXPECT_FLOAT_EQ(y[0], 15.0f);
}

TEST(KernelsTest, MatTVecAccumIsTransposeProduct) {
  Matrix w(2, 3);
  float vals[] = {1, 2, 3, 4, 5, 6};
  for (size_t i = 0; i < 6; ++i) w.data()[i] = vals[i];
  const float dy[] = {1.0f, -1.0f};
  float dx[3] = {0.0f, 0.0f, 0.0f};
  MatTVecAccum(w, dy, dx);
  EXPECT_FLOAT_EQ(dx[0], -3.0f);  // 1*1 + 4*(-1)
  EXPECT_FLOAT_EQ(dx[1], -3.0f);  // 2 - 5
  EXPECT_FLOAT_EQ(dx[2], -3.0f);  // 3 - 6
}

TEST(KernelsTest, OuterAccum) {
  Matrix dw(2, 2);
  const float dy[] = {1.0f, 2.0f};
  const float x[] = {3.0f, 4.0f};
  OuterAccum(dw, dy, x);
  OuterAccum(dw, dy, x);  // Accumulates.
  EXPECT_FLOAT_EQ(dw.At(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(dw.At(0, 1), 8.0f);
  EXPECT_FLOAT_EQ(dw.At(1, 0), 12.0f);
  EXPECT_FLOAT_EQ(dw.At(1, 1), 16.0f);
}

TEST(KernelsTest, MatVecThenTransposeRoundTripConsistency) {
  // Property: dy . (W x) == x . (W^T dy) for random data.
  Rng rng(99);
  const Matrix w = Matrix::GlorotUniform(5, 7, rng);
  Vec x(7), dy(5);
  for (auto& v : x) v = static_cast<float>(rng.Gaussian());
  for (auto& v : dy) v = static_cast<float>(rng.Gaussian());
  Vec y(5, 0.0f);
  MatVec(w, x.data(), y.data());
  Vec dx(7, 0.0f);
  MatTVecAccum(w, dy.data(), dx.data());
  double lhs = 0.0, rhs = 0.0;
  for (size_t i = 0; i < 5; ++i) lhs += static_cast<double>(dy[i]) * y[i];
  for (size_t i = 0; i < 7; ++i) rhs += static_cast<double>(x[i]) * dx[i];
  EXPECT_NEAR(lhs, rhs, 1e-4);
}

TEST(KernelsTest, TransposeStridedCopiesEveryElement) {
  // Sizes on and off the 4 x 4 blocks, forward and backward (negative)
  // source strides, destination rows wider than the source has rows.
  for (const size_t rows : {1u, 3u, 4u, 9u, 50u}) {
    for (const size_t cols : {1u, 4u, 7u, 16u, 17u}) {
      const size_t lda = cols + 3;
      const size_t ldo = rows + 2;
      std::vector<float> a(rows * lda);
      for (size_t i = 0; i < a.size(); ++i) a[i] = static_cast<float>(i);
      for (const bool backwards : {false, true}) {
        const float* first = backwards ? a.data() + (rows - 1) * lda : a.data();
        const auto stride = backwards ? -static_cast<std::ptrdiff_t>(lda)
                                      : static_cast<std::ptrdiff_t>(lda);
        std::vector<float> out(cols * ldo, -1.0f);
        TransposeStrided(first, stride, rows, cols, out.data(), ldo);
        for (size_t c = 0; c < cols; ++c) {
          for (size_t r = 0; r < ldo; ++r) {
            const size_t src_row = backwards ? rows - 1 - r : r;
            const float want =
                r < rows ? a[src_row * lda + c] : -1.0f;  // Padding kept.
            EXPECT_EQ(out[c * ldo + r], want)
                << rows << "x" << cols << (backwards ? " backwards" : "")
                << " at (" << r << ", " << c << ")";
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace eventhit::nn
