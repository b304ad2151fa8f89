#include "nn/dense.h"

#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gradient_check.h"
#include "nn/backend.h"
#include "nn/loss.h"
#include "nn/workspace.h"

namespace eventhit::nn {
namespace {

TEST(DenseTest, ForwardAffine) {
  Rng rng(1);
  Dense layer("fc", 2, 2, rng);
  // Overwrite with known weights.
  layer.mutable_weight().value.At(0, 0) = 1.0f;
  layer.mutable_weight().value.At(0, 1) = 2.0f;
  layer.mutable_weight().value.At(1, 0) = -1.0f;
  layer.mutable_weight().value.At(1, 1) = 0.5f;
  layer.mutable_bias().value.At(0, 0) = 0.25f;
  layer.mutable_bias().value.At(1, 0) = -0.25f;
  const float x[] = {2.0f, 3.0f};
  Vec y;
  layer.Forward(x, y);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_FLOAT_EQ(y[0], 1.0f * 2 + 2.0f * 3 + 0.25f);
  EXPECT_FLOAT_EQ(y[1], -1.0f * 2 + 0.5f * 3 - 0.25f);
}

TEST(DenseTest, CollectParametersExposesWeightAndBias) {
  Rng rng(2);
  Dense layer("fc", 3, 4, rng);
  ParameterRefs params;
  layer.CollectParameters(params);
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0]->name, "fc.W");
  EXPECT_EQ(params[1]->name, "fc.b");
  EXPECT_EQ(params[0]->value.rows(), 4u);
  EXPECT_EQ(params[0]->value.cols(), 3u);
  EXPECT_EQ(params[1]->value.rows(), 4u);
}

TEST(DenseTest, GradientsMatchFiniteDifferences) {
  Rng rng(3);
  Dense layer("fc", 4, 3, rng);
  Vec x(4);
  for (auto& v : x) v = static_cast<float>(rng.Gaussian());
  const Vec target = {1.0f, 0.0f, 1.0f};

  ParameterRefs params;
  layer.CollectParameters(params);

  auto loss_fn = [&]() {
    Vec logits;
    layer.Forward(x.data(), logits);
    Vec dlogits(3);
    const Vec weights(3, 1.0f);
    return BceWithLogitsVector(logits.data(), target.data(), weights.data(),
                               3, dlogits.data());
  };

  // Analytic pass.
  ZeroGradients(params);
  Vec logits;
  layer.Forward(x.data(), logits);
  Vec dlogits(3);
  const Vec weights(3, 1.0f);
  BceWithLogitsVector(logits.data(), target.data(), weights.data(), 3,
                      dlogits.data());
  Vec dx(4, 0.0f);
  layer.Backward(x.data(), dlogits.data(), dx.data());

  ExpectParameterGradientsMatch(params, loss_fn);
}

TEST(DenseTest, BackwardSkipsInputGradWhenNull) {
  Rng rng(4);
  Dense layer("fc", 2, 2, rng);
  const float x[] = {1.0f, 1.0f};
  const float dy[] = {1.0f, 1.0f};
  layer.Backward(x, dy, nullptr);  // Must not crash.
  EXPECT_GT(layer.weight().grad.SquaredNorm(), 0.0);
}

TEST(DenseTest, BackwardAccumulatesAcrossCalls) {
  Rng rng(5);
  Dense layer("fc", 2, 1, rng);
  const float x[] = {1.0f, 2.0f};
  const float dy[] = {1.0f};
  layer.Backward(x, dy, nullptr);
  const double first = layer.weight().grad.SquaredNorm();
  layer.Backward(x, dy, nullptr);
  EXPECT_NEAR(layer.weight().grad.SquaredNorm(), 4.0 * first, 1e-9);
}

// Batch-minor [rows x batch] Gaussian block.
Vec RandomBlock(size_t rows, size_t batch, Rng& rng) {
  Vec block(rows * batch);
  for (auto& v : block) v = static_cast<float>(rng.Gaussian());
  return block;
}

Vec Column(const Vec& block, size_t rows, size_t batch, size_t b) {
  Vec column(rows);
  for (size_t i = 0; i < rows; ++i) column[i] = block[i * batch + b];
  return column;
}

TEST(DenseTest, BackwardBatchIsBitIdenticalToPerRecordLoop) {
  struct Shape {
    size_t in, out;
  };
  for (const Shape shape : {Shape{24, 24}, Shape{34, 32}, Shape{32, 501}}) {
    for (const size_t batch : {1u, 2u, 16u, 17u}) {
      SCOPED_TRACE("in=" + std::to_string(shape.in) + " out=" +
                   std::to_string(shape.out) + " batch=" +
                   std::to_string(batch));
      Rng rng(60 + batch);
      Dense reference("fc", shape.in, shape.out, rng);
      Dense batched = reference;
      Rng data_rng(61 + shape.out);
      const Vec x = RandomBlock(shape.in, batch, data_rng);
      Vec dy = RandomBlock(shape.out, batch, data_rng);
      // Exact zeros: every third row of column 0 and all of the last
      // column, so Backward's zero-row skip runs.
      for (size_t i = 0; i < shape.out; i += 3) dy[i * batch] = 0.0f;
      for (size_t i = 0; i < shape.out; ++i) dy[i * batch + batch - 1] = 0.0f;
      // dx accumulates on top of earlier (non-zero) contributions.
      Vec dx_batched = RandomBlock(shape.in, batch, data_rng);
      Vec dx_reference = dx_batched;

      for (size_t b = 0; b < batch; ++b) {
        const Vec xb = Column(x, shape.in, batch, b);
        const Vec dyb = Column(dy, shape.out, batch, b);
        Vec dxb = Column(dx_reference, shape.in, batch, b);
        reference.Backward(xb.data(), dyb.data(), dxb.data());
        for (size_t i = 0; i < shape.in; ++i) {
          dx_reference[i * batch + b] = dxb[i];
        }
      }
      Workspace ws;
      batched.BackwardBatch(x.data(), dy.data(), batch, dx_batched.data(), ws);

      const Matrix& gw_ref = reference.weight().grad;
      const Matrix& gw = batched.weight().grad;
      EXPECT_EQ(std::memcmp(gw_ref.data(), gw.data(),
                            gw.size() * sizeof(float)),
                0);
      EXPECT_EQ(std::memcmp(reference.bias().grad.data(),
                            batched.bias().grad.data(),
                            shape.out * sizeof(float)),
                0);
      EXPECT_EQ(std::memcmp(dx_reference.data(), dx_batched.data(),
                            dx_batched.size() * sizeof(float)),
                0);
    }
  }
}

TEST(DenseTest, BatchedGradientsMatchFiniteDifferences) {
  // GradientsMatchFiniteDifferences through BackwardBatch: three columns,
  // loss = the sum of their BCE losses.
  const size_t in = 4, out = 3, batch = 3;
  Rng rng(6);
  Dense layer("fc", in, out, rng);
  const Vec x = RandomBlock(in, batch, rng);
  const Vec targets = {1.0f, 0.0f, 1.0f, 0.0f, 1.0f, 1.0f, 1.0f, 0.0f, 0.0f};
  const Vec weights(out * batch, 1.0f);

  const Backend& blocked = GetBackend(BackendKind::kBlocked);
  ParameterRefs params;
  layer.CollectParameters(params);
  auto loss_fn = [&]() {
    Vec logits(out * batch);
    layer.ForwardBatch(x.data(), batch, logits.data(), blocked);
    Vec dlogits(out * batch);
    return BceWithLogitsVector(logits.data(), targets.data(), weights.data(),
                               out * batch, dlogits.data());
  };

  ZeroGradients(params);
  Vec logits(out * batch);
  layer.ForwardBatch(x.data(), batch, logits.data(), blocked);
  Vec dlogits(out * batch);
  BceWithLogitsVector(logits.data(), targets.data(), weights.data(),
                      out * batch, dlogits.data());
  Workspace ws;
  layer.BackwardBatch(x.data(), dlogits.data(), batch, nullptr, ws);
  ExpectParameterGradientsMatch(params, loss_fn);
}

}  // namespace
}  // namespace eventhit::nn
