// Parameterized property sweeps over the nn/ substrate: gradient checks
// across layer shapes and sequence lengths, and invariants of the shared
// quantile helper used by every conformal component.
#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"
#include "gradient_check.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/lstm.h"
#include "nn/mlp.h"

namespace eventhit::nn {
namespace {

// ---------- LSTM gradient checks over shapes ----------

using LstmShape = std::tuple<int, int, int>;  // input_dim, hidden_dim, steps

class LstmShapeTest : public ::testing::TestWithParam<LstmShape> {};

TEST_P(LstmShapeTest, ParameterGradientsMatchFiniteDifferences) {
  const auto [input_dim, hidden_dim, steps] = GetParam();
  Rng rng(100 + input_dim * 7 + hidden_dim * 3 + steps);
  Lstm lstm("l", static_cast<size_t>(input_dim),
            static_cast<size_t>(hidden_dim), rng);
  Vec inputs(static_cast<size_t>(steps * input_dim));
  for (auto& v : inputs) v = static_cast<float>(rng.Gaussian(0.0, 0.5));
  Vec weights(static_cast<size_t>(hidden_dim));
  for (auto& w : weights) w = static_cast<float>(rng.Gaussian());

  auto loss_fn = [&]() {
    const Vec h =
        lstm.ForwardCached(inputs.data(), static_cast<size_t>(steps));
    double loss = 0.0;
    for (size_t i = 0; i < h.size(); ++i) {
      loss += static_cast<double>(weights[i]) * h[i];
    }
    return loss;
  };

  ParameterRefs params;
  lstm.CollectParameters(params);
  ZeroGradients(params);
  lstm.ForwardCached(inputs.data(), static_cast<size_t>(steps));
  lstm.Backward(weights.data());
  ExpectParameterGradientsMatch(params, loss_fn);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LstmShapeTest,
    ::testing::Values(LstmShape{1, 1, 1}, LstmShape{1, 4, 8},
                      LstmShape{5, 2, 3}, LstmShape{3, 3, 12},
                      LstmShape{8, 6, 2}));

// ---------- MLP gradient checks over depths ----------

class MlpDepthTest
    : public ::testing::TestWithParam<std::vector<size_t>> {};

TEST_P(MlpDepthTest, GradientsMatchFiniteDifferences) {
  const std::vector<size_t> dims = GetParam();
  Rng rng(17 + dims.size());
  Mlp mlp("m", dims, rng);
  Vec x(dims.front());
  for (auto& v : x) v = static_cast<float>(rng.Gaussian());
  Vec targets(dims.back());
  Vec weights(dims.back(), 1.0f);
  for (auto& t : targets) t = rng.Bernoulli(0.5) ? 1.0f : 0.0f;

  auto loss_fn = [&]() {
    Vec logits;
    mlp.ForwardCached(x.data(), logits);
    Vec scratch(dims.back());
    return BceWithLogitsVector(logits.data(), targets.data(), weights.data(),
                               dims.back(), scratch.data());
  };

  ParameterRefs params;
  mlp.CollectParameters(params);
  ZeroGradients(params);
  Vec logits;
  mlp.ForwardCached(x.data(), logits);
  Vec dlogits(dims.back());
  BceWithLogitsVector(logits.data(), targets.data(), weights.data(),
                      dims.back(), dlogits.data());
  mlp.Backward(x.data(), dlogits.data(), nullptr);
  ExpectParameterGradientsMatch(params, loss_fn);
}

INSTANTIATE_TEST_SUITE_P(
    Depths, MlpDepthTest,
    ::testing::Values(std::vector<size_t>{2, 3},
                      std::vector<size_t>{4, 6, 2},
                      std::vector<size_t>{3, 5, 4, 2},
                      std::vector<size_t>{2, 8, 8, 8, 1}));

// ---------- Dense shape sweep ----------

using DenseShape = std::tuple<int, int>;

class DenseShapeTest : public ::testing::TestWithParam<DenseShape> {};

TEST_P(DenseShapeTest, ForwardMatchesManualAffine) {
  const auto [in_dim, out_dim] = GetParam();
  Rng rng(13);
  Dense layer("fc", static_cast<size_t>(in_dim),
              static_cast<size_t>(out_dim), rng);
  Vec x(static_cast<size_t>(in_dim));
  for (auto& v : x) v = static_cast<float>(rng.Gaussian());
  Vec y;
  layer.Forward(x.data(), y);
  ASSERT_EQ(y.size(), static_cast<size_t>(out_dim));
  for (int r = 0; r < out_dim; ++r) {
    double expected = layer.bias().value.At(static_cast<size_t>(r), 0);
    for (int c = 0; c < in_dim; ++c) {
      expected += static_cast<double>(layer.weight().value.At(
                      static_cast<size_t>(r), static_cast<size_t>(c))) *
                  x[static_cast<size_t>(c)];
    }
    EXPECT_NEAR(y[static_cast<size_t>(r)], expected, 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, DenseShapeTest,
                         ::testing::Values(DenseShape{1, 1}, DenseShape{1, 7},
                                           DenseShape{7, 1},
                                           DenseShape{16, 3},
                                           DenseShape{3, 16}));

}  // namespace
}  // namespace eventhit::nn

namespace eventhit {
namespace {

// ---------- Order-statistic quantile properties ----------

class QuantilePropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(QuantilePropertyTest, QuantileIsValidOrderStatistic) {
  const double level = GetParam();
  Rng rng(static_cast<uint64_t>(level * 1000) + 3);
  for (int trial = 0; trial < 30; ++trial) {
    const auto n = static_cast<size_t>(rng.UniformInt(1, 200));
    std::vector<double> values;
    values.reserve(n);
    for (size_t i = 0; i < n; ++i) values.push_back(rng.Gaussian());
    const double q = OrderStatQuantile(values, level);
    // Property 1: the quantile is an element of the sample.
    EXPECT_NE(std::find(values.begin(), values.end(), q), values.end());
    // Property 2: at least ConformalQuantileRank(n, level) elements are
    // <= q (the finite-sample-corrected rank ceil(level*(n+1)), clamped).
    size_t at_most = 0;
    for (double v : values) at_most += v <= q ? 1 : 0;
    EXPECT_GE(at_most, ConformalQuantileRank(n, level));
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, QuantilePropertyTest,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 0.9,
                                           1.0));

}  // namespace
}  // namespace eventhit
