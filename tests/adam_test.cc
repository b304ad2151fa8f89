#include "nn/adam.h"

#include <cmath>
#include <cstring>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/parameter.h"

namespace eventhit::nn {
namespace {

TEST(AdamTest, MinimisesQuadratic) {
  // f(w) = 0.5 * (w - 3)^2; gradient = w - 3.
  Parameter w("w", Matrix::Zeros(1, 1));
  AdamOptions options;
  options.learning_rate = 0.1;
  options.clip_norm = 0.0;
  AdamOptimizer optimizer({&w}, options);
  for (int i = 0; i < 500; ++i) {
    w.grad.At(0, 0) = w.value.At(0, 0) - 3.0f;
    optimizer.Step();
  }
  EXPECT_NEAR(w.value.At(0, 0), 3.0f, 1e-2);
}

TEST(AdamTest, StepZeroesGradients) {
  Parameter w("w", Matrix::Zeros(2, 2));
  AdamOptimizer optimizer({&w}, AdamOptions{});
  w.grad.At(0, 0) = 1.0f;
  optimizer.Step();
  EXPECT_EQ(w.grad.SquaredNorm(), 0.0);
}

TEST(AdamTest, ReportsPreClipNorm) {
  Parameter w("w", Matrix::Zeros(1, 2));
  AdamOptions options;
  options.clip_norm = 1.0;
  AdamOptimizer optimizer({&w}, options);
  w.grad.At(0, 0) = 3.0f;
  w.grad.At(0, 1) = 4.0f;
  EXPECT_NEAR(optimizer.Step(), 5.0, 1e-6);
}

TEST(AdamTest, ClipLimitsUpdateMagnitude) {
  // With and without clipping, starting from the same state, the clipped
  // first step must be no larger.
  auto run_once = [](double clip) {
    Parameter w("w", Matrix::Zeros(1, 1));
    AdamOptions options;
    options.learning_rate = 1.0;
    options.clip_norm = clip;
    AdamOptimizer optimizer({&w}, options);
    w.grad.At(0, 0) = 100.0f;
    optimizer.Step();
    return std::fabs(w.value.At(0, 0));
  };
  EXPECT_LE(run_once(1.0), run_once(0.0) + 1e-7);
}

TEST(AdamTest, FirstStepIsLearningRateSized) {
  // Adam's bias correction makes the first step ~= lr * sign(grad).
  Parameter w("w", Matrix::Zeros(1, 1));
  AdamOptions options;
  options.learning_rate = 0.01;
  options.clip_norm = 0.0;
  AdamOptimizer optimizer({&w}, options);
  w.grad.At(0, 0) = 42.0f;
  optimizer.Step();
  EXPECT_NEAR(w.value.At(0, 0), -0.01f, 1e-4);
}

TEST(AdamTest, MultipleParametersConverge) {
  // Minimise sum_i 0.5*(w_i - t_i)^2 over two parameter tensors.
  Parameter a("a", Matrix::Zeros(1, 2));
  Parameter b("b", Matrix::Zeros(2, 1));
  AdamOptions options;
  options.learning_rate = 0.05;
  AdamOptimizer optimizer({&a, &b}, options);
  const float ta[] = {1.0f, -2.0f};
  const float tb[] = {0.5f, 4.0f};
  for (int i = 0; i < 2000; ++i) {
    for (int j = 0; j < 2; ++j) {
      a.grad.data()[j] = a.value.data()[j] - ta[j];
      b.grad.data()[j] = b.value.data()[j] - tb[j];
    }
    optimizer.Step();
  }
  for (int j = 0; j < 2; ++j) {
    EXPECT_NEAR(a.value.data()[j], ta[j], 0.05);
    EXPECT_NEAR(b.value.data()[j], tb[j], 0.05);
  }
}

TEST(AdamTest, StepCountAdvances) {
  Parameter w("w", Matrix::Zeros(1, 1));
  AdamOptimizer optimizer({&w}, AdamOptions{});
  EXPECT_EQ(optimizer.step_count(), 0u);
  optimizer.Step();
  optimizer.Step();
  EXPECT_EQ(optimizer.step_count(), 2u);
}

// One Adam update as a plain scalar loop: AdamOptimizer::Step's
// arithmetic, in its order. This file builds with the default
// -fmath-errno, so std::sqrt keeps the loop scalar.
void ScalarAdamStep(const AdamOptions& options, size_t step,
                    Parameter& p, Matrix& m1, Matrix& m2) {
  const double bias1 =
      1.0 - std::pow(options.beta1, static_cast<double>(step));
  const double bias2 =
      1.0 - std::pow(options.beta2, static_cast<double>(step));
  const auto b1 = static_cast<float>(options.beta1);
  const auto b2 = static_cast<float>(options.beta2);
  for (size_t i = 0; i < p.value.size(); ++i) {
    const float g = p.grad.data()[i];
    float& v1 = m1.data()[i];
    float& v2 = m2.data()[i];
    v1 = b1 * v1 + (1.0f - b1) * g;
    v2 = b2 * v2 + (1.0f - b2) * g * g;
    const double m_hat = static_cast<double>(v1) / bias1;
    const double v_hat = static_cast<double>(v2) / bias2;
    p.value.data()[i] -= static_cast<float>(
        options.learning_rate * m_hat / (std::sqrt(v_hat) + options.epsilon));
  }
  p.grad.SetZero();
}

bool SameBytes(const Matrix& a, const Matrix& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(AdamTest, VectorizedStepMatchesScalarLoop) {
  // Gradients mixing signed zeros, subnormals, tiny and huge normals (the
  // largest overflow g * g to infinity) among ordinary values.
  const float special[] = {0.0f,     -0.0f,    1e-45f,  -1e-45f, 3e-39f,
                           -1.2e-38f, 1e-30f,  -7e4f,   2.5e19f, -3e25f,
                           1e30f,     -1e-3f};
  // At learning rate 3e-3, step 1 and no clipping, this gradient's update
  // rounds to different floats when m_hat is m / (1 - beta1) and when it
  // is m * (1 / (1 - beta1)) (about one gradient in 5e8 does): parameter
  // c, which starts at zero, shows whether the step divides as the scalar
  // loop does.
  constexpr float kReciprocalTie = 0x1.b0de7p-34f;
  for (const double clip : {0.0, 5.0}) {
    SCOPED_TRACE("clip " + std::to_string(clip));
    // Sizes that leave remainders after any vector width.
    Parameter a("a", Matrix::Zeros(7, 13));
    Parameter b("b", Matrix::Zeros(1, 37));
    Parameter c("c", Matrix::Zeros(1, 9));
    Rng init(11);
    for (Parameter* p : {&a, &b}) {
      for (size_t i = 0; i < p->value.size(); ++i) {
        p->value.data()[i] = static_cast<float>(init.Gaussian(0.0, 0.5));
      }
    }
    Parameter ref_a = a;
    Parameter ref_b = b;
    Parameter ref_c = c;
    AdamOptions options;
    options.learning_rate = 3e-3;
    options.clip_norm = clip;
    AdamOptimizer optimizer({&a, &b, &c}, options);
    Matrix m1_a(7, 13), m2_a(7, 13), m1_b(1, 37), m2_b(1, 37);
    Matrix m1_c(1, 9), m2_c(1, 9);

    Rng rng(12);
    for (size_t step = 1; step <= 4; ++step) {
      size_t next = step;
      for (Parameter* p : {&a, &b}) {
        for (size_t i = 0; i < p->grad.size(); ++i) {
          p->grad.data()[i] =
              (i + step) % 3 == 0
                  ? special[next++ % std::size(special)]
                  : static_cast<float>(rng.Gaussian(0.0, 2.0));
        }
      }
      for (size_t i = 0; i < c.grad.size(); ++i) {
        c.grad.data()[i] = kReciprocalTie;
      }
      ref_a.grad = a.grad;
      ref_b.grad = b.grad;
      ref_c.grad = c.grad;
      const double norm = optimizer.Step();

      double ref_norm = 0.0;
      if (clip > 0.0) {
        ref_norm = ClipGradientNorm({&ref_a, &ref_b, &ref_c}, clip);
      } else {
        ref_norm = std::sqrt(ref_a.grad.SquaredNorm() +
                             ref_b.grad.SquaredNorm() +
                             ref_c.grad.SquaredNorm());
      }
      ScalarAdamStep(options, step, ref_a, m1_a, m2_a);
      ScalarAdamStep(options, step, ref_b, m1_b, m2_b);
      ScalarAdamStep(options, step, ref_c, m1_c, m2_c);

      EXPECT_EQ(std::memcmp(&norm, &ref_norm, sizeof(double)), 0)
          << "step " << step;
      EXPECT_TRUE(SameBytes(a.value, ref_a.value)) << "step " << step;
      EXPECT_TRUE(SameBytes(b.value, ref_b.value)) << "step " << step;
      EXPECT_TRUE(SameBytes(c.value, ref_c.value)) << "step " << step;
      EXPECT_EQ(a.grad.SquaredNorm(), 0.0);
    }
    // The updates are real numbers: no lane turned a value into NaN.
    for (const Parameter* p : {&a, &b, &c}) {
      for (size_t i = 0; i < p->value.size(); ++i) {
        EXPECT_FALSE(std::isnan(p->value.data()[i]));
      }
    }
  }
}

TEST(ParameterTest, ClipGradientNormRescales) {
  Parameter w("w", Matrix::Zeros(1, 2));
  w.grad.At(0, 0) = 3.0f;
  w.grad.At(0, 1) = 4.0f;
  const double norm = ClipGradientNorm({&w}, 1.0);
  EXPECT_NEAR(norm, 5.0, 1e-9);
  EXPECT_NEAR(std::sqrt(w.grad.SquaredNorm()), 1.0, 1e-5);
}

TEST(ParameterTest, ClipLeavesSmallGradientsAlone) {
  Parameter w("w", Matrix::Zeros(1, 1));
  w.grad.At(0, 0) = 0.5f;
  ClipGradientNorm({&w}, 1.0);
  EXPECT_FLOAT_EQ(w.grad.At(0, 0), 0.5f);
}

TEST(ParameterTest, ScaleAndZeroGradients) {
  Parameter w("w", Matrix::Zeros(1, 1));
  w.grad.At(0, 0) = 2.0f;
  ScaleGradients({&w}, 0.25f);
  EXPECT_FLOAT_EQ(w.grad.At(0, 0), 0.5f);
  ZeroGradients({&w});
  EXPECT_FLOAT_EQ(w.grad.At(0, 0), 0.0f);
}

}  // namespace
}  // namespace eventhit::nn
