#include "nn/activations.h"

#include <cmath>

#include <gtest/gtest.h>

namespace eventhit::nn {
namespace {

TEST(ActivationsTest, TanhInPlace) {
  float x[] = {0.0f, 1.0f, -1.0f};
  TanhInPlace(x, 3);
  EXPECT_FLOAT_EQ(x[0], 0.0f);
  EXPECT_NEAR(x[1], std::tanh(1.0f), 1e-6);
  EXPECT_NEAR(x[2], -x[1], 1e-6);
}

TEST(ActivationsTest, SigmoidInPlace) {
  float x[] = {0.0f, 100.0f, -100.0f};
  SigmoidInPlace(x, 3);
  EXPECT_FLOAT_EQ(x[0], 0.5f);
  EXPECT_NEAR(x[1], 1.0f, 1e-6);
  EXPECT_NEAR(x[2], 0.0f, 1e-6);
}

TEST(ActivationsTest, TanhBackwardMatchesDerivative) {
  // d/dx tanh = 1 - tanh^2, expressed via the output y.
  const float y[] = {0.5f};
  const float dy[] = {2.0f};
  float dx[1];
  TanhBackward(y, dy, dx, 1);
  EXPECT_NEAR(dx[0], 2.0f * (1.0f - 0.25f), 1e-6);
}

TEST(ActivationsTest, ScalarHelpersAgreeWithVectorised) {
  for (float x : {-3.0f, -0.5f, 0.0f, 0.5f, 3.0f}) {
    float v = x;
    SigmoidInPlace(&v, 1);
    EXPECT_NEAR(SigmoidScalar(x), v, 1e-7);
    EXPECT_NEAR(TanhScalar(x), std::tanh(x), 1e-7);
  }
}

TEST(ActivationsTest, NumericalTanhDerivativeCrossCheck) {
  // Central difference vs. TanhBackward across a range of inputs.
  const double eps = 1e-4;
  for (double x : {-2.0, -0.7, 0.0, 0.3, 1.9}) {
    const double numeric = (std::tanh(x + eps) - std::tanh(x - eps)) / (2 * eps);
    const float y = static_cast<float>(std::tanh(x));
    const float dy = 1.0f;
    float dx;
    TanhBackward(&y, &dy, &dx, 1);
    EXPECT_NEAR(dx, numeric, 1e-4);
  }
}

}  // namespace
}  // namespace eventhit::nn
