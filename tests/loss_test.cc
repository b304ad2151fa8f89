#include "nn/loss.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "nn/activations.h"

namespace eventhit::nn {
namespace {

TEST(LossTest, ValueMatchesDefinition) {
  // loss = -(y log p + (1-y) log(1-p)), p = sigmoid(logit).
  const float logit = 0.7f;
  const double p = 1.0 / (1.0 + std::exp(-0.7));
  float dlogit;
  EXPECT_NEAR(BceWithLogits(logit, 1.0f, 1.0f, &dlogit), -std::log(p), 1e-6);
  EXPECT_NEAR(BceWithLogits(logit, 0.0f, 1.0f, &dlogit), -std::log(1.0 - p),
              1e-6);
}

TEST(LossTest, GradientIsSigmoidMinusTarget) {
  float dlogit;
  BceWithLogits(0.0f, 1.0f, 1.0f, &dlogit);
  EXPECT_NEAR(dlogit, 0.5f - 1.0f, 1e-6);
  BceWithLogits(0.0f, 0.0f, 1.0f, &dlogit);
  EXPECT_NEAR(dlogit, 0.5f, 1e-6);
}

TEST(LossTest, WeightScalesValueAndGradient) {
  float d1, d2;
  const double l1 = BceWithLogits(0.3f, 1.0f, 1.0f, &d1);
  const double l2 = BceWithLogits(0.3f, 1.0f, 2.5f, &d2);
  EXPECT_NEAR(l2, 2.5 * l1, 1e-9);
  EXPECT_NEAR(d2, 2.5f * d1, 1e-6);
}

TEST(LossTest, ExtremeLogitsAreFinite) {
  float dlogit;
  const double big = BceWithLogits(80.0f, 0.0f, 1.0f, &dlogit);
  EXPECT_TRUE(std::isfinite(big));
  EXPECT_NEAR(big, 80.0, 1e-3);  // -log(1-sigmoid(x)) ~ x for large x.
  const double small = BceWithLogits(-80.0f, 1.0f, 1.0f, &dlogit);
  EXPECT_TRUE(std::isfinite(small));
  EXPECT_NEAR(small, 80.0, 1e-3);
}

TEST(LossTest, GradientMatchesFiniteDifference) {
  const double eps = 1e-4;
  for (float target : {0.0f, 1.0f}) {
    for (float logit : {-2.0f, -0.3f, 0.0f, 0.9f, 2.5f}) {
      float dlogit, scratch;
      BceWithLogits(logit, target, 1.0f, &dlogit);
      const double up =
          BceWithLogits(logit + static_cast<float>(eps), target, 1.0f, &scratch);
      const double down =
          BceWithLogits(logit - static_cast<float>(eps), target, 1.0f, &scratch);
      EXPECT_NEAR(dlogit, (up - down) / (2 * eps), 1e-3);
    }
  }
}

TEST(LossTest, VectorSkipsZeroWeights) {
  const float logits[] = {0.5f, 0.5f, 0.5f};
  const float targets[] = {1.0f, 1.0f, 0.0f};
  const float weights[] = {1.0f, 0.0f, 1.0f};
  float dlogits[3];
  const double loss =
      BceWithLogitsVector(logits, targets, weights, 3, dlogits);
  float d0, d2;
  const double expected = BceWithLogits(0.5f, 1.0f, 1.0f, &d0) +
                          BceWithLogits(0.5f, 0.0f, 1.0f, &d2);
  EXPECT_NEAR(loss, expected, 1e-9);
  EXPECT_FLOAT_EQ(dlogits[1], 0.0f);  // Masked element has no gradient.
  EXPECT_FLOAT_EQ(dlogits[0], d0);
  EXPECT_FLOAT_EQ(dlogits[2], d2);
}

TEST(LossTest, PerfectPredictionHasNearZeroLoss) {
  float dlogit;
  EXPECT_LT(BceWithLogits(20.0f, 1.0f, 1.0f, &dlogit), 1e-6);
  EXPECT_LT(BceWithLogits(-20.0f, 0.0f, 1.0f, &dlogit), 1e-6);
}

// BceWithLogits as it was before it learned to skip the term a 0/1 target
// multiplies by zero: both -log p and -log(1-p), always.
double TwoTermBce(float logit, float target, float weight) {
  const auto log_sigmoid_neg = [](float x) {
    const double ax = std::fabs(static_cast<double>(x));
    const double base = std::log1p(std::exp(-ax));
    return x >= 0.0f ? base : base + ax;
  };
  return weight * (target * log_sigmoid_neg(logit) +
                   (1.0 - target) * log_sigmoid_neg(-logit));
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(LossTest, ZeroOneTargetsMatchTwoTermFormulaBitwise) {
  for (const float logit :
       {0.0f, -0.0f, 1e-3f, -1e-3f, 20.0f, -20.0f, 100.0f, -100.0f}) {
    for (const float target : {0.0f, 1.0f}) {
      for (const float weight : {0.0f, 1.0f, 0.37f, 2.5f}) {
        float dlogit = 0.0f;
        const double loss = BceWithLogits(logit, target, weight, &dlogit);
        EXPECT_TRUE(SameBits(loss, TwoTermBce(logit, target, weight)))
            << "logit " << logit << " target " << target << " weight "
            << weight << ": " << loss;
      }
    }
  }
}

TEST(LossTest, FractionalTargetKeepsBothTerms) {
  for (const float logit : {-3.0f, -1e-3f, 0.0f, 0.5f, 20.0f}) {
    for (const float target : {0.25f, 0.5f, 0.9f}) {
      float dlogit = 0.0f;
      EXPECT_TRUE(SameBits(BceWithLogits(logit, target, 1.5f, &dlogit),
                           TwoTermBce(logit, target, 1.5f)))
          << "logit " << logit << " target " << target;
    }
  }
}

}  // namespace
}  // namespace eventhit::nn
