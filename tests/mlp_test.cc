#include "nn/mlp.h"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gradient_check.h"
#include "nn/backend.h"
#include "nn/loss.h"
#include "nn/workspace.h"

namespace eventhit::nn {
namespace {

TEST(MlpTest, SingleLayerIsAffine) {
  Rng rng(1);
  Mlp mlp("m", {3, 2}, rng);
  EXPECT_EQ(mlp.in_dim(), 3u);
  EXPECT_EQ(mlp.out_dim(), 2u);
  EXPECT_EQ(mlp.layers().size(), 1u);
}

TEST(MlpTest, ForwardCachedMatchesEvalForward) {
  // Inference's forward is ForwardBatch; at batch 1 on the blocked table it
  // replays ForwardCached's operations, so the logits match to the bit.
  Rng rng(2);
  Mlp mlp("m", {4, 8, 3}, rng);
  Rng data_rng(3);
  Vec x(4);
  for (auto& v : x) v = static_cast<float>(data_rng.Gaussian());
  Vec cached, eval(mlp.out_dim());
  mlp.ForwardCached(x.data(), cached);
  Workspace ws;
  mlp.ForwardBatch(x.data(), 1, eval.data(), ws,
                   GetBackend(BackendKind::kBlocked));
  EXPECT_EQ(cached, eval);
}

TEST(MlpTest, ParameterCountsAcrossLayers) {
  Rng rng(4);
  Mlp mlp("m", {5, 7, 2}, rng);
  ParameterRefs params;
  mlp.CollectParameters(params);
  // Two layers x (W, b).
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(ParameterCount(params), 5u * 7 + 7 + 7 * 2 + 2);
}

TEST(MlpTest, DeepGradientsMatchFiniteDifferences) {
  Rng rng(5);
  Mlp mlp("m", {3, 6, 4, 2}, rng);
  Rng data_rng(6);
  Vec x(3);
  for (auto& v : x) v = static_cast<float>(data_rng.Gaussian());
  const Vec targets = {1.0f, 0.0f};
  const Vec weights = {1.0f, 2.0f};

  auto loss_fn = [&]() {
    Vec logits;
    mlp.ForwardCached(x.data(), logits);
    Vec scratch(2);
    return BceWithLogitsVector(logits.data(), targets.data(), weights.data(),
                               2, scratch.data());
  };

  ParameterRefs params;
  mlp.CollectParameters(params);
  ZeroGradients(params);
  Vec logits;
  mlp.ForwardCached(x.data(), logits);
  Vec dlogits(2);
  BceWithLogitsVector(logits.data(), targets.data(), weights.data(), 2,
                      dlogits.data());
  Vec dx(3, 0.0f);
  mlp.Backward(x.data(), dlogits.data(), dx.data());

  ExpectParameterGradientsMatch(params, loss_fn);
}

TEST(MlpTest, InputGradientMatchesFiniteDifferences) {
  Rng rng(7);
  Mlp mlp("m", {2, 5, 1}, rng);
  Rng data_rng(8);
  Vec x(2);
  for (auto& v : x) v = static_cast<float>(data_rng.Gaussian());
  const Vec targets = {1.0f};
  const Vec weights = {1.0f};

  auto loss_fn = [&]() {
    Vec logits;
    mlp.ForwardCached(x.data(), logits);
    Vec scratch(1);
    return BceWithLogitsVector(logits.data(), targets.data(), weights.data(),
                               1, scratch.data());
  };

  Vec logits;
  mlp.ForwardCached(x.data(), logits);
  Vec dlogits(1);
  BceWithLogitsVector(logits.data(), targets.data(), weights.data(), 1,
                      dlogits.data());
  Vec dx(2, 0.0f);
  mlp.Backward(x.data(), dlogits.data(), dx.data());

  const double eps = 1e-3;
  for (size_t i = 0; i < x.size(); ++i) {
    const float saved = x[i];
    x[i] = saved + static_cast<float>(eps);
    const double up = loss_fn();
    x[i] = saved - static_cast<float>(eps);
    const double down = loss_fn();
    x[i] = saved;
    EXPECT_NEAR(dx[i], (up - down) / (2 * eps), 2e-2);
  }
}

void ExpectSameBytes(const Mlp& a, const Mlp& b) {
  ConstParameterRefs pa, pb;
  a.CollectParameters(pa);
  b.CollectParameters(pb);
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(std::memcmp(pa[i]->grad.data(), pb[i]->grad.data(),
                          pa[i]->grad.size() * sizeof(float)),
              0)
        << pa[i]->name;
  }
}

TEST(MlpTest, BackwardBatchOfTwoHeadsIsBitIdenticalToPerRecordLoop) {
  // EventHit's event heads: both read u = z ++ x_last and add their input
  // gradients into one running du, head 0 first.
  const std::vector<size_t> dims = {34, 32, 501};
  for (const size_t batch : {1u, 3u, 16u, 17u}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    Rng rng(70 + batch);
    std::vector<Mlp> reference = {Mlp("h0", dims, rng), Mlp("h1", dims, rng)};
    std::vector<Mlp> batched = reference;
    Rng data_rng(71);
    Vec u(dims[0] * batch);
    for (auto& v : u) v = static_cast<float>(data_rng.Gaussian());
    // Head 1's occupancy gradients are zero for even columns, as an absent
    // event's masked L2 terms are.
    std::vector<Vec> dlogits(2, Vec(dims[2] * batch));
    for (size_t head = 0; head < 2; ++head) {
      for (size_t i = 0; i < dlogits[head].size(); ++i) {
        const bool masked = head == 1 && i >= batch && (i % batch) % 2 == 0;
        dlogits[head][i] =
            masked ? 0.0f : static_cast<float>(data_rng.Gaussian(0.0, 0.1));
      }
    }

    Vec du_reference(dims[0] * batch, 0.0f);
    for (size_t b = 0; b < batch; ++b) {
      Vec ub(dims[0]), du(dims[0], 0.0f), logits;
      for (size_t i = 0; i < dims[0]; ++i) ub[i] = u[i * batch + b];
      for (size_t head = 0; head < 2; ++head) {
        Vec dl(dims[2]);
        for (size_t i = 0; i < dims[2]; ++i) {
          dl[i] = dlogits[head][i * batch + b];
        }
        reference[head].ForwardCached(ub.data(), logits);
        reference[head].Backward(ub.data(), dl.data(), du.data());
      }
      for (size_t i = 0; i < dims[0]; ++i) du_reference[i * batch + b] = du[i];
    }

    Workspace ws;
    Vec du_batched(dims[0] * batch, 0.0f);
    Vec logits(dims[2] * batch);
    for (size_t head = 0; head < 2; ++head) {
      Mlp::BatchTape tape;
      batched[head].ForwardBatch(u.data(), batch, logits.data(), ws,
                                 GetBackend(BackendKind::kBlocked), &tape);
      batched[head].BackwardBatch(tape, u.data(), dlogits[head].data(), batch,
                                  du_batched.data(), ws);
    }
    ExpectSameBytes(reference[0], batched[0]);
    ExpectSameBytes(reference[1], batched[1]);
    EXPECT_EQ(std::memcmp(du_reference.data(), du_batched.data(),
                          du_batched.size() * sizeof(float)),
              0);
  }
}

TEST(MlpTest, BatchedGradientsMatchFiniteDifferences) {
  // DeepGradientsMatchFiniteDifferences and
  // InputGradientMatchesFiniteDifferences through the batched path: two
  // columns, loss = the sum of their weighted BCE losses.
  const size_t batch = 2;
  Rng rng(9);
  Mlp mlp("m", {3, 6, 4, 2}, rng);
  Rng data_rng(10);
  Vec x(3 * batch);
  for (auto& v : x) v = static_cast<float>(data_rng.Gaussian());
  const Vec targets = {1.0f, 0.0f, 0.0f, 1.0f};
  const Vec weights = {1.0f, 0.5f, 2.0f, 1.0f};
  const Backend& blocked = GetBackend(BackendKind::kBlocked);

  auto loss_fn = [&]() {
    Workspace ws;
    Vec logits(2 * batch), scratch(2 * batch);
    mlp.ForwardBatch(x.data(), batch, logits.data(), ws, blocked);
    return BceWithLogitsVector(logits.data(), targets.data(), weights.data(),
                               2 * batch, scratch.data());
  };

  ParameterRefs params;
  mlp.CollectParameters(params);
  ZeroGradients(params);
  Workspace ws;
  Mlp::BatchTape tape;
  Vec logits(2 * batch), dlogits(2 * batch);
  mlp.ForwardBatch(x.data(), batch, logits.data(), ws, blocked, &tape);
  BceWithLogitsVector(logits.data(), targets.data(), weights.data(),
                      2 * batch, dlogits.data());
  Vec dx(3 * batch, 0.0f);
  mlp.BackwardBatch(tape, x.data(), dlogits.data(), batch, dx.data(), ws);
  ExpectParameterGradientsMatch(params, loss_fn);

  const double eps = 1e-3;
  for (size_t i = 0; i < x.size(); ++i) {
    const float saved = x[i];
    x[i] = saved + static_cast<float>(eps);
    const double up = loss_fn();
    x[i] = saved - static_cast<float>(eps);
    const double down = loss_fn();
    x[i] = saved;
    EXPECT_NEAR(dx[i], (up - down) / (2 * eps), 2e-2) << "input " << i;
  }
}

}  // namespace
}  // namespace eventhit::nn
