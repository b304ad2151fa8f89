#include "nn/lstm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gradient_check.h"
#include "nn/backend.h"
#include "nn/workspace.h"
#include "stepped_windows.h"

namespace eventhit::nn {
namespace {

Vec RandomSequence(size_t steps, size_t dim, Rng& rng) {
  Vec seq(steps * dim);
  for (auto& v : seq) v = static_cast<float>(rng.Gaussian(0.0, 0.5));
  return seq;
}

TEST(LstmTest, ShapesAndDeterminism) {
  Rng rng(1);
  Lstm lstm("l", 3, 5, rng);
  EXPECT_EQ(lstm.input_dim(), 3u);
  EXPECT_EQ(lstm.hidden_dim(), 5u);
  Rng data_rng(2);
  const Vec seq = RandomSequence(4, 3, data_rng);
  const Vec h1 = lstm.ForwardCached(seq.data(), 4);
  const Vec h2 = lstm.ForwardCached(seq.data(), 4);
  ASSERT_EQ(h1.size(), 5u);
  EXPECT_EQ(h1, h2);
}

TEST(LstmTest, HiddenStateBounded) {
  // h = o * tanh(c) with o in (0,1): |h| < 1 always.
  Rng rng(5);
  Lstm lstm("l", 2, 8, rng);
  Rng data_rng(6);
  const Vec seq = RandomSequence(50, 2, data_rng);
  const Vec h = lstm.ForwardCached(seq.data(), 50);
  for (float v : h) EXPECT_LT(std::fabs(v), 1.0f);
}

TEST(LstmTest, ForgetBiasInitialisedToOne) {
  Rng rng(7);
  Lstm lstm("l", 2, 4, rng);
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_FLOAT_EQ(lstm.bias().value.At(4 + j, 0), 1.0f);  // Forget block.
    EXPECT_FLOAT_EQ(lstm.bias().value.At(j, 0), 0.0f);      // Input block.
  }
}

TEST(LstmTest, ParameterGradientsMatchFiniteDifferences) {
  Rng rng(8);
  Lstm lstm("l", 3, 4, rng);
  Rng data_rng(9);
  const Vec seq = RandomSequence(5, 3, data_rng);
  // Scalar loss: weighted sum of final hidden state.
  Vec loss_weights(4);
  for (auto& w : loss_weights) w = static_cast<float>(data_rng.Gaussian());

  auto loss_fn = [&]() {
    const Vec h = lstm.ForwardCached(seq.data(), 5);
    double loss = 0.0;
    for (size_t i = 0; i < h.size(); ++i) {
      loss += static_cast<double>(loss_weights[i]) * h[i];
    }
    return loss;
  };

  ParameterRefs params;
  lstm.CollectParameters(params);
  ZeroGradients(params);
  lstm.ForwardCached(seq.data(), 5);
  lstm.Backward(loss_weights.data());
  ExpectParameterGradientsMatch(params, loss_fn);
}

TEST(LstmTest, InputGradientsMatchFiniteDifferences) {
  Rng rng(10);
  Lstm lstm("l", 2, 3, rng);
  Rng data_rng(11);
  Vec seq = RandomSequence(4, 2, data_rng);
  Vec loss_weights(3);
  for (auto& w : loss_weights) w = static_cast<float>(data_rng.Gaussian());

  auto loss_fn = [&]() {
    const Vec h = lstm.ForwardCached(seq.data(), 4);
    double loss = 0.0;
    for (size_t i = 0; i < h.size(); ++i) {
      loss += static_cast<double>(loss_weights[i]) * h[i];
    }
    return loss;
  };

  ParameterRefs params;
  lstm.CollectParameters(params);
  ZeroGradients(params);
  lstm.ForwardCached(seq.data(), 4);
  Vec dinputs(seq.size(), 0.0f);
  lstm.Backward(loss_weights.data(), dinputs.data());

  const double eps = 1e-3;
  for (size_t i = 0; i < seq.size(); ++i) {
    const float saved = seq[i];
    seq[i] = saved + static_cast<float>(eps);
    const double up = loss_fn();
    seq[i] = saved - static_cast<float>(eps);
    const double down = loss_fn();
    seq[i] = saved;
    EXPECT_NEAR(dinputs[i], (up - down) / (2 * eps), 2e-2) << "input " << i;
  }
}

// Packs `batch` time-major sequences (each steps x dim) into the
// batch-minor layout ForwardBatch expects.
Vec PackBatchMinor(const std::vector<Vec>& seqs, size_t steps, size_t dim) {
  const size_t batch = seqs.size();
  Vec packed(steps * dim * batch);
  for (size_t b = 0; b < batch; ++b) {
    for (size_t t = 0; t < steps; ++t) {
      for (size_t j = 0; j < dim; ++j) {
        packed[(t * dim + j) * batch + b] = seqs[b][t * dim + j];
      }
    }
  }
  return packed;
}

TEST(LstmTest, ForwardBatchOfOneIsBitIdenticalToForward) {
  Rng rng(20);
  Lstm lstm("l", 3, 6, rng);
  Rng data_rng(21);
  const Vec seq = RandomSequence(5, 3, data_rng);
  const Vec h_scalar = lstm.ForwardCached(seq.data(), 5);

  Workspace ws;
  Vec h_batch(6);
  lstm.ForwardBatch(seq.data(), 5, 1, h_batch.data(), ws,
                    GetBackend(BackendKind::kBlocked));
  // Exact equality, not tolerance: batch=1 must replay the scalar path's
  // float operations in the same order (the gemm.h contract).
  EXPECT_EQ(h_scalar, h_batch);
}

TEST(LstmTest, ForwardBatchMatchesPerSequenceForward) {
  const size_t steps = 7, dim = 4, hidden = 5, batch = 9;
  Rng rng(22);
  Lstm lstm("l", dim, hidden, rng);
  Rng data_rng(23);
  std::vector<Vec> seqs;
  for (size_t b = 0; b < batch; ++b) {
    seqs.push_back(RandomSequence(steps, dim, data_rng));
  }
  const Vec packed = PackBatchMinor(seqs, steps, dim);

  Workspace ws;
  Vec h_batch(hidden * batch);
  lstm.ForwardBatch(packed.data(), steps, batch, h_batch.data(), ws,
                    GetBackend(BackendKind::kBlocked));

  for (size_t b = 0; b < batch; ++b) {
    const Vec h = lstm.ForwardCached(seqs[b].data(), steps);
    for (size_t j = 0; j < hidden; ++j) {
      EXPECT_EQ(h[j], h_batch[j * batch + b]) << "seq " << b << " dim " << j;
    }
  }
}

TEST(LstmTest, ForwardBatchSingleStep) {
  Rng rng(24);
  Lstm lstm("l", 2, 4, rng);
  Rng data_rng(25);
  std::vector<Vec> seqs = {RandomSequence(1, 2, data_rng),
                           RandomSequence(1, 2, data_rng),
                           RandomSequence(1, 2, data_rng)};
  const Vec packed = PackBatchMinor(seqs, 1, 2);
  Workspace ws;
  Vec h_batch(4 * 3);
  lstm.ForwardBatch(packed.data(), 1, 3, h_batch.data(), ws,
                    GetBackend(BackendKind::kBlocked));
  for (size_t b = 0; b < 3; ++b) {
    const Vec h = lstm.ForwardCached(seqs[b].data(), 1);
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(h[j], h_batch[j * 3 + b]) << "seq " << b << " dim " << j;
    }
  }
}

TEST(LstmTest, ForwardBatchDeterministicWithWarmWorkspace) {
  // Re-running on a warm (Reset) Workspace must give identical results —
  // scratch reuse may not leak state between batches.
  const size_t steps = 4, dim = 3, hidden = 6, batch = 5;
  Rng rng(26);
  Lstm lstm("l", dim, hidden, rng);
  Rng data_rng(27);
  std::vector<Vec> seqs;
  for (size_t b = 0; b < batch; ++b) {
    seqs.push_back(RandomSequence(steps, dim, data_rng));
  }
  const Vec packed = PackBatchMinor(seqs, steps, dim);

  const Backend& blocked = GetBackend(BackendKind::kBlocked);
  Workspace ws;
  Vec h1(hidden * batch), h2(hidden * batch);
  lstm.ForwardBatch(packed.data(), steps, batch, h1.data(), ws, blocked);
  ws.Reset();
  lstm.ForwardBatch(packed.data(), steps, batch, h2.data(), ws, blocked);
  EXPECT_EQ(h1, h2);
  const size_t capacity_after_two = ws.capacity();
  ws.Reset();
  lstm.ForwardBatch(packed.data(), steps, batch, h1.data(), ws, blocked);
  // Steady state: capacity has stopped growing (allocation-free reuse).
  EXPECT_EQ(ws.capacity(), capacity_after_two);
}

// Windows stepped one frame at a time (Step, the fleet's per-tick encoder
// step), each step over a shuffled subset of the windows still open — 1,
// 3, 17, 64 or 256 columns — end on ForwardBatch's final h byte for byte
// under scalar, blocked and simd, at EventHit's window lengths (M = 10 for
// THUMOS, 50 for Breakfast) and shape (D = 10, Hd = 24).
TEST(LstmTest, SteppedWindowsMatchForwardBatchAtAnyStepBatch) {
  const size_t dim = 10, hidden = 24, count = 256;
  Rng rng(28);
  const Lstm lstm("l", dim, hidden, rng);
  for (const size_t steps : {size_t{10}, size_t{50}}) {
    Rng data_rng(29 + steps);
    std::vector<Vec> windows;
    Vec record_major;
    for (size_t s = 0; s < count; ++s) {
      windows.push_back(RandomSequence(steps, dim, data_rng));
      record_major.insert(record_major.end(), windows.back().begin(),
                          windows.back().end());
    }
    const Vec packed = PackBatchMinor(windows, steps, dim);
    for (const BackendKind kind : AllBackendKinds()) {
      SCOPED_TRACE(std::string(BackendKindName(kind)) + " M=" +
                   std::to_string(steps));
      const Backend& backend = GetBackend(kind);
      Workspace ws;
      Vec whole(hidden * count);
      lstm.ForwardBatch(packed.data(), steps, count, whole.data(), ws,
                        backend);
      std::vector<size_t> batches;
      const Vec stepped = testutil::StepWindows(
          record_major.data(), count, steps, dim, hidden, 30 + steps,
          [&](const float* x, size_t n, float* h, float* c) {
            ws.Reset();
            lstm.Step(x, n, h, c, ws, backend);
          },
          &batches);
      for (const size_t n : testutil::kStepBatches) {
        EXPECT_NE(std::find(batches.begin(), batches.end(), n),
                  batches.end())
            << "no step of " << n << " columns";
      }
      for (size_t s = 0; s < count; ++s) {
        for (size_t j = 0; j < hidden; ++j) {
          const float want = whole[j * count + s];
          const float got = stepped[s * hidden + j];
          ASSERT_EQ(std::memcmp(&want, &got, sizeof(float)), 0)
              << "window " << s << " dim " << j << ": " << got << " vs "
              << want;
        }
      }
    }
  }
}

// Byte equality, so a -0 where +0 was expected (or any last-bit drift)
// fails: the batched backward's contract is the per-record loop's bits.
void ExpectSameBytes(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what;
}

TEST(LstmTest, BackwardBatchIsBitIdenticalToPerRecordLoop) {
  struct Dims {
    size_t d, hd;
  };
  for (const Dims dims : {Dims{10, 24}, Dims{3, 5}}) {
    for (const size_t steps : {1u, 10u, 50u}) {
      for (const size_t batch : {1u, 2u, 3u, 16u, 17u}) {
        SCOPED_TRACE("d=" + std::to_string(dims.d) + " hd=" +
                     std::to_string(dims.hd) + " steps=" +
                     std::to_string(steps) + " batch=" +
                     std::to_string(batch));
        Rng rng(40 + steps + batch);
        Lstm reference("l", dims.d, dims.hd, rng);
        Lstm batched = reference;
        Rng data_rng(41 + steps * batch);
        std::vector<Vec> seqs;
        Vec dh_final(dims.hd * batch);
        for (size_t b = 0; b < batch; ++b) {
          Vec seq = RandomSequence(steps, dims.d, data_rng);
          // Sequence 0 opens with an all-zero input step; sequence 1 is
          // scaled until its gates saturate to exactly 0 or 1, so whole
          // dpre entries vanish and Backward's zero-row skip runs.
          if (b == 0) std::fill(seq.begin(), seq.begin() + dims.d, 0.0f);
          if (b == 1) {
            for (float& v : seq) v *= 200.0f;
          }
          seqs.push_back(std::move(seq));
          for (size_t j = 0; j < dims.hd; ++j) {
            dh_final[j * batch + b] =
                static_cast<float>(data_rng.Gaussian(0.0, 1.0));
          }
        }
        // The last sequence (of three or more) gets a zero final gradient:
        // every one of its dpre rows is skipped per record.
        if (batch >= 3) {
          for (size_t j = 0; j < dims.hd; ++j) {
            dh_final[j * batch + batch - 1] = 0.0f;
          }
        }

        for (size_t b = 0; b < batch; ++b) {
          Vec dh(dims.hd);
          for (size_t j = 0; j < dims.hd; ++j) dh[j] = dh_final[j * batch + b];
          reference.ForwardCached(seqs[b].data(), steps);
          reference.Backward(dh.data());
        }

        const Vec packed = PackBatchMinor(seqs, steps, dims.d);
        Workspace ws;
        Lstm::BatchTape tape;
        Vec h(dims.hd * batch);
        batched.ForwardBatch(packed.data(), steps, batch, h.data(), ws,
                             GetBackend(BackendKind::kBlocked), &tape);
        batched.BackwardBatch(tape, dh_final.data(), ws);

        for (size_t b = 0; b < batch; ++b) {
          const Vec h_ref = reference.ForwardCached(seqs[b].data(), steps);
          for (size_t j = 0; j < dims.hd; ++j) {
            EXPECT_EQ(h_ref[j], h[j * batch + b]) << "seq " << b;
          }
        }
        ExpectSameBytes(reference.wx().grad, batched.wx().grad, "Wx grad");
        ExpectSameBytes(reference.wh().grad, batched.wh().grad, "Wh grad");
        ExpectSameBytes(reference.bias().grad, batched.bias().grad, "b grad");
        if (batch >= 2) {
          // The saturated sequence really produced exact 0/1 gates.
          size_t saturated = 0;
          for (size_t i = 0; i < steps * 4 * dims.hd * batch; ++i) {
            saturated += tape.gates[i] == 0.0f || tape.gates[i] == 1.0f;
          }
          EXPECT_GT(saturated, 0u);
        }
      }
    }
  }
}

TEST(LstmTest, BatchedParameterGradientsMatchFiniteDifferences) {
  // ParameterGradientsMatchFiniteDifferences through the batched path:
  // three sequences, loss = sum over them of the weighted final state.
  const size_t steps = 5, dim = 3, hidden = 4, batch = 3;
  Rng rng(14);
  Lstm lstm("l", dim, hidden, rng);
  Rng data_rng(15);
  std::vector<Vec> seqs;
  for (size_t b = 0; b < batch; ++b) {
    seqs.push_back(RandomSequence(steps, dim, data_rng));
  }
  Vec loss_weights(hidden * batch);
  for (auto& w : loss_weights) w = static_cast<float>(data_rng.Gaussian());

  auto loss_fn = [&]() {
    double loss = 0.0;
    for (size_t b = 0; b < batch; ++b) {
      const Vec h = lstm.ForwardCached(seqs[b].data(), steps);
      for (size_t j = 0; j < hidden; ++j) {
        loss += static_cast<double>(loss_weights[j * batch + b]) * h[j];
      }
    }
    return loss;
  };

  ParameterRefs params;
  lstm.CollectParameters(params);
  ZeroGradients(params);
  const Vec packed = PackBatchMinor(seqs, steps, dim);
  Workspace ws;
  Lstm::BatchTape tape;
  Vec h(hidden * batch);
  lstm.ForwardBatch(packed.data(), steps, batch, h.data(), ws,
                    GetBackend(BackendKind::kBlocked), &tape);
  lstm.BackwardBatch(tape, loss_weights.data(), ws);
  ExpectParameterGradientsMatch(params, loss_fn);
}

TEST(LstmTest, LongerSequencePropagatesEarlySignal) {
  // The final hidden state must depend on the first input (non-zero input
  // gradient at t=0), i.e. BPTT spans the window.
  Rng rng(12);
  Lstm lstm("l", 2, 6, rng);
  Rng data_rng(13);
  const Vec seq = RandomSequence(20, 2, data_rng);
  lstm.ForwardCached(seq.data(), 20);
  Vec dh(6, 1.0f);
  Vec dinputs(seq.size(), 0.0f);
  lstm.Backward(dh.data(), dinputs.data());
  double first_step_norm = 0.0;
  for (size_t c = 0; c < 2; ++c) {
    first_step_norm += std::fabs(static_cast<double>(dinputs[c]));
  }
  EXPECT_GT(first_step_norm, 1e-6);
}

}  // namespace
}  // namespace eventhit::nn
