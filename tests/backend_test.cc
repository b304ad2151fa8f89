// Contract tests for the runtime-dispatched kernel backends (nn/backend.h,
// docs/BACKENDS.md):
//   * scalar replays blocked's summation order — bit-identical outputs for
//     every GEMM shape the forward pass produces and every activation input
//     (signed zeros, infinities, NaN, subnormals, the clamp bounds), and a
//     batched LSTM pass matches the per-record Lstm::ForwardCached per
//     column;
//   * the dispatched blocked table (AVX2 where available) computes the
//     portable kernels' bits, so blocked is machine-invariant;
//   * simd agrees with blocked within the documented 1e-5 bound and is
//     bit-identical to itself at any batch composition (full panels and
//     the masked tail panel run the same code).
#include "nn/backend.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/activations.h"
#include "nn/activations_inl.h"
#include "nn/gemm.h"
#include "nn/lstm.h"

namespace eventhit::nn {
namespace {

std::vector<float> RandomBuffer(size_t n, Rng& rng) {
  std::vector<float> buf(n);
  for (auto& v : buf) v = static_cast<float>(rng.Gaussian(0.0, 1.0));
  return buf;
}

// Index of the first element whose bit pattern differs (NaN-safe), or -1.
long FirstBitMismatch(const std::vector<float>& a,
                      const std::vector<float>& b) {
  if (a.size() != b.size()) return 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) {
      return static_cast<long>(i);
    }
  }
  return -1;
}

// Batch sizes a flush can have: every size up to 17 (a full 8-column
// panel, a masked tail, or both), the fleet's batch 24 and 64, and 55.
std::vector<size_t> BatchSizes() {
  std::vector<size_t> sizes;
  for (size_t n = 1; n <= 17; ++n) sizes.push_back(n);
  for (size_t n : {24, 55, 64}) sizes.push_back(n);
  return sizes;
}

// Activation inputs where a clamp or a vector lane could go wrong: signed
// zeros, infinities, NaNs, subnormals, the tanh clamp bound and its float
// neighbours, and the same for sigmoid's clamp on x/2.
std::vector<float> SpecialActivationInputs() {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float sub = std::numeric_limits<float>::denorm_min();
  std::vector<float> values = {0.0f,  -0.0f, inf,     -inf,   nan,
                               -nan,  sub,   -sub,    1e-39f, -1e-39f,
                               0.25f, -3.0f, 100.0f, -100.0f};
  for (const float bound : {detail::kTanhClamp, 2.0f * detail::kTanhClamp}) {
    for (const float v : {bound, -bound}) {
      values.push_back(v);
      values.push_back(std::nextafter(v, 0.0f));
      values.push_back(std::nextafter(v, 2.0f * v));
    }
  }
  return values;
}

// Lstm::ForwardBatch of `lstm` under `backend` over batch-minor `inputs`
// ([steps x d x batch]); returns h as [hd x batch].
std::vector<float> RunLstmBatch(const Backend& backend, const Lstm& lstm,
                                const std::vector<float>& inputs,
                                size_t steps, size_t batch) {
  std::vector<float> h(lstm.hidden_dim() * batch);
  Workspace ws;
  lstm.ForwardBatch(inputs.data(), steps, batch, h.data(), ws, backend);
  return h;
}

TEST(BackendDispatchTest, NamesAndEffectiveKinds) {
  EXPECT_STREQ(GetBackend(BackendKind::kScalar).name, "scalar");
  EXPECT_STREQ(GetBackend(BackendKind::kBlocked).name, "blocked");
  EXPECT_STREQ(GetBackend(BackendKind::kSimd).name, "simd");
  EXPECT_EQ(GetBackend(BackendKind::kScalar).effective, BackendKind::kScalar);
  EXPECT_EQ(GetBackend(BackendKind::kBlocked).effective,
            BackendKind::kBlocked);
  const Backend& simd = GetBackend(BackendKind::kSimd);
  EXPECT_EQ(simd.kind, BackendKind::kSimd);
  if (SimdAvailable()) {
    EXPECT_EQ(simd.effective, BackendKind::kSimd);
  } else {
    // No AVX2+FMA: the simd kind must transparently run the blocked table.
    EXPECT_EQ(simd.effective, BackendKind::kBlocked);
    EXPECT_EQ(simd.kernels, GetBackend(BackendKind::kBlocked).kernels);
  }
}

TEST(BackendDispatchTest, EveryKernelSlotIsPopulated) {
  EXPECT_EQ(AllBackendKinds(),
            (std::vector<BackendKind>{BackendKind::kScalar,
                                      BackendKind::kBlocked,
                                      BackendKind::kSimd}));
  for (BackendKind kind : AllBackendKinds()) {
    const Backend& backend = GetBackend(kind);
    EXPECT_EQ(backend.kind, kind);
    EXPECT_STREQ(backend.name, BackendKindName(kind));
    ASSERT_NE(backend.kernels, nullptr) << backend.name;
    EXPECT_NE(backend.kernels->gemm_zero, nullptr) << backend.name;
    EXPECT_NE(backend.kernels->gemm, nullptr) << backend.name;
    EXPECT_NE(backend.kernels->tanh_inplace, nullptr) << backend.name;
    EXPECT_NE(backend.kernels->sigmoid_inplace, nullptr) << backend.name;
  }
}

TEST(BackendDispatchTest, ParseBackendKind) {
  EXPECT_EQ(ParseBackendKind("scalar").value(), BackendKind::kScalar);
  EXPECT_EQ(ParseBackendKind("blocked").value(), BackendKind::kBlocked);
  EXPECT_EQ(ParseBackendKind("simd").value(), BackendKind::kSimd);
  const auto auto_kind = ParseBackendKind("auto");
  ASSERT_TRUE(auto_kind.ok());
  EXPECT_EQ(auto_kind.value(), SimdAvailable() ? BackendKind::kSimd
                                               : BackendKind::kBlocked);
  // The error must enumerate exactly the valid choices (it reaches CLI
  // users); "int8" names no backend.
  for (const char* name : {"avx512", "int8"}) {
    const auto bad = ParseBackendKind(name);
    ASSERT_FALSE(bad.ok()) << name;
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(bad.status().message().find(
                  "(choices: scalar, blocked, simd, auto)"),
              std::string::npos)
        << bad.status().message();
  }
}

// scalar and blocked promise the same float summation order, so their
// outputs must match to the bit on every shape the forward pass produces:
// any flush size (panels and masked tails), k from the degenerate 0 to the
// LSTM's 34, m up to the event head's 1+H = 501 rows.
TEST(BackendParityTest, ScalarMatchesBlockedBitExact) {
  Rng rng(101);
  const BackendKernels& scalar = *GetBackend(BackendKind::kScalar).kernels;
  const BackendKernels& blocked = *GetBackend(BackendKind::kBlocked).kernels;
  for (const size_t m : {1, 3, 4, 7, 96, 501}) {
    for (const size_t k : {0, 1, 10, 24, 34}) {
      const std::vector<float> a = RandomBuffer(m * k, rng);
      for (const size_t n : BatchSizes()) {
        const std::vector<float> b = RandomBuffer(k * n, rng);
        std::vector<float> c_scalar(m * n, 0.5f), c_blocked(m * n, 0.5f);
        scalar.gemm_zero(m, n, k, a.data(), k, b.data(), n, c_scalar.data(),
                         n);
        blocked.gemm_zero(m, n, k, a.data(), k, b.data(), n,
                          c_blocked.data(), n);
        EXPECT_EQ(FirstBitMismatch(c_scalar, c_blocked), -1)
            << "gemm_zero " << m << "x" << n << "x" << k;

        std::fill(c_scalar.begin(), c_scalar.end(), 0.25f);
        std::fill(c_blocked.begin(), c_blocked.end(), 0.25f);
        scalar.gemm(m, n, k, a.data(), k, b.data(), n, c_scalar.data(), n);
        blocked.gemm(m, n, k, a.data(), k, b.data(), n, c_blocked.data(), n);
        EXPECT_EQ(FirstBitMismatch(c_scalar, c_blocked), -1)
            << "gemm " << m << "x" << n << "x" << k;
      }
    }
  }
}

// Every special input at every lane position of every length up to 17:
// the clamp's NaN and signed-zero behaviour, subnormal arithmetic and the
// masked tail must all agree with the element-at-a-time scalar oracle.
TEST(BackendParityTest, ScalarMatchesBlockedActivationsBitExact) {
  const std::vector<float> special = SpecialActivationInputs();
  const BackendKernels& scalar = *GetBackend(BackendKind::kScalar).kernels;
  const BackendKernels& blocked = *GetBackend(BackendKind::kBlocked).kernels;
  for (size_t n = 1; n <= 17; ++n) {
    for (size_t offset = 0; offset < special.size(); ++offset) {
      std::vector<float> x(n);
      for (size_t i = 0; i < n; ++i) {
        x[i] = special[(offset + i) % special.size()];
      }
      for (const bool is_tanh : {true, false}) {
        std::vector<float> y_scalar = x, y_blocked = x;
        (is_tanh ? scalar.tanh_inplace : scalar.sigmoid_inplace)(
            y_scalar.data(), n);
        (is_tanh ? blocked.tanh_inplace : blocked.sigmoid_inplace)(
            y_blocked.data(), n);
        const long bad = FirstBitMismatch(y_scalar, y_blocked);
        EXPECT_EQ(bad, -1) << (is_tanh ? "tanh" : "sigmoid") << " n=" << n
                           << " input "
                           << (bad >= 0 ? x[static_cast<size_t>(bad)] : 0.0f);
      }
    }
  }
}

// A batched LSTM pass, column by column, against the per-record path
// (Lstm::ForwardCached, i.e. StepForward over MatVec): bit-identical under
// scalar and blocked at every batch size; under simd within the score
// bound and batch-invariant to the bit. Three (input, hidden) widths, so
// the gate GEMMs run with several k.
TEST(BackendParityTest, LstmBatchMatchesPerRecordForward) {
  Rng rng(106);
  const size_t steps = 5;
  for (const auto [d, hd] :
       {std::array<size_t, 2>{10, 24}, std::array<size_t, 2>{3, 5},
        std::array<size_t, 2>{34, 9}}) {
    Lstm lstm("l", d, hd, rng);
    Matrix& bias = lstm.mutable_bias().value;
    for (size_t i = 0; i < bias.size(); ++i) {
      bias.data()[i] = static_cast<float>(rng.Gaussian(0.0, 0.5));
    }
    for (const size_t batch : BatchSizes()) {
      std::vector<std::vector<float>> seqs(batch);
      std::vector<float> inputs(steps * d * batch);
      for (size_t b = 0; b < batch; ++b) {
        seqs[b] = RandomBuffer(steps * d, rng);
        for (size_t td = 0; td < steps * d; ++td) {
          inputs[td * batch + b] = seqs[b][td];
        }
      }
      for (const BackendKind kind :
           {BackendKind::kScalar, BackendKind::kBlocked, BackendKind::kSimd}) {
        const Backend& backend = GetBackend(kind);
        const std::vector<float> h =
            RunLstmBatch(backend, lstm, inputs, steps, batch);
        for (size_t b = 0; b < batch; ++b) {
          const Vec want = lstm.ForwardCached(seqs[b].data(), steps);
          std::vector<float> got(hd);
          for (size_t u = 0; u < hd; ++u) got[u] = h[u * batch + b];
          if (backend.effective != BackendKind::kSimd) {
            ASSERT_EQ(FirstBitMismatch(got, want), -1)
                << backend.name << " d=" << d << " hd=" << hd
                << " batch=" << batch << " column " << b;
            continue;
          }
          for (size_t u = 0; u < hd; ++u) {
            EXPECT_NEAR(got[u], want[u], 1e-5f) << u;
          }
          const std::vector<float> solo =
              RunLstmBatch(backend, lstm, seqs[b], steps, /*batch=*/1);
          ASSERT_EQ(FirstBitMismatch(got, solo), -1)
              << "simd batch=" << batch << " column " << b;
        }
      }
    }
  }
}

// The dispatched blocked table against the portable kernels, reached
// directly. On an AVX2 host this pins the AVX2 flavour to the bits a
// non-AVX2 or aarch64 host computes (machine invariance); elsewhere the
// table is the portable one and the comparison is trivially exact.
TEST(BackendParityTest, DispatchedBlockedMatchesPortableKernels) {
  Rng rng(107);
  const BackendKernels& blocked = *GetBackend(BackendKind::kBlocked).kernels;
  for (const size_t m : {1, 5, 96, 501}) {
    for (const size_t k : {0, 1, 10, 34}) {
      const std::vector<float> a = RandomBuffer(m * k, rng);
      for (const size_t n : BatchSizes()) {
        const std::vector<float> b = RandomBuffer(k * n, rng);
        std::vector<float> want(m * n, 0.5f), got(m * n, 0.5f);
        GemmZero(m, n, k, a.data(), k, b.data(), n, want.data(), n);
        blocked.gemm_zero(m, n, k, a.data(), k, b.data(), n, got.data(), n);
        EXPECT_EQ(FirstBitMismatch(got, want), -1)
            << "gemm_zero " << m << "x" << n << "x" << k;
        Gemm(m, n, k, a.data(), k, b.data(), n, want.data(), n);
        blocked.gemm(m, n, k, a.data(), k, b.data(), n, got.data(), n);
        EXPECT_EQ(FirstBitMismatch(got, want), -1)
            << "gemm " << m << "x" << n << "x" << k;
      }
    }
  }

  // Random inputs past the portable loops' chunk size, plus the specials.
  std::vector<float> x = RandomBuffer(1027, rng);
  for (float& v : x) v *= 6.0f;
  const std::vector<float> special = SpecialActivationInputs();
  x.insert(x.end(), special.begin(), special.end());
  for (const size_t n : {size_t{1}, size_t{13}, x.size()}) {
    std::vector<float> want(x.begin(), x.begin() + static_cast<long>(n));
    std::vector<float> got = want;
    TanhInPlace(want.data(), n);
    blocked.tanh_inplace(got.data(), n);
    EXPECT_EQ(FirstBitMismatch(got, want), -1) << "tanh n=" << n;
    want.assign(x.begin(), x.begin() + static_cast<long>(n));
    got = want;
    SigmoidInPlace(want.data(), n);
    blocked.sigmoid_inplace(got.data(), n);
    EXPECT_EQ(FirstBitMismatch(got, want), -1) << "sigmoid n=" << n;
  }
}

TEST(BackendParityTest, SimdGemmWithinBoundOfBlocked) {
  const size_t m = 96, n = 37, k = 24;
  Rng rng(102);
  const std::vector<float> a = RandomBuffer(m * k, rng);
  const std::vector<float> b = RandomBuffer(k * n, rng);
  std::vector<float> c_simd(m * n), c_blocked(m * n);
  GetBackend(BackendKind::kSimd)
      .kernels->gemm_zero(m, n, k, a.data(), k, b.data(), n, c_simd.data(),
                          n);
  GetBackend(BackendKind::kBlocked)
      .kernels->gemm_zero(m, n, k, a.data(), k, b.data(), n,
                          c_blocked.data(), n);
  for (size_t i = 0; i < m * n; ++i) {
    // Gaussian operands with k=24 terms stay well inside the documented
    // 1e-5 *score* bound at kernel level too.
    EXPECT_NEAR(c_simd[i], c_blocked[i], 1e-4f) << i;
  }
}

// The batch-invariance half of the simd contract: a column's (= batch
// element's) result must not depend on the other columns. Scoring the
// full batch and scoring each column alone must agree to the bit — this
// is what keeps the fleet's solo==batched digest check green under simd.
TEST(BackendParityTest, SimdGemmBatchInvariant) {
  const size_t m = 97, k = 23, n = 37;  // Off-tile shape: body + tails.
  Rng rng(103);
  const std::vector<float> a = RandomBuffer(m * k, rng);
  const std::vector<float> b = RandomBuffer(k * n, rng);
  std::vector<float> full(m * n);
  const BackendKernels& kern = *GetBackend(BackendKind::kSimd).kernels;
  kern.gemm_zero(m, n, k, a.data(), k, b.data(), n, full.data(), n);
  for (size_t j = 0; j < n; ++j) {
    std::vector<float> solo(m);
    // One column: same B storage, ldb = n, n = 1.
    kern.gemm_zero(m, 1, k, a.data(), k, b.data() + j, n, solo.data(), 1);
    for (size_t i = 0; i < m; ++i) {
      ASSERT_EQ(solo[i], full[i * n + j]) << "row " << i << " col " << j;
    }
  }
}

TEST(BackendParityTest, SimdActivationsWithinBoundAndLengthInvariant) {
  const size_t n = 1027;  // 8-wide panels plus a masked tail.
  Rng rng(104);
  const std::vector<float> x = RandomBuffer(n, rng);
  const BackendKernels& simd = *GetBackend(BackendKind::kSimd).kernels;
  const BackendKernels& blocked = *GetBackend(BackendKind::kBlocked).kernels;
  for (const bool is_tanh : {true, false}) {
    const UnaryFn simd_fn = is_tanh ? simd.tanh_inplace : simd.sigmoid_inplace;
    const UnaryFn blocked_fn =
        is_tanh ? blocked.tanh_inplace : blocked.sigmoid_inplace;
    std::vector<float> y_simd = x, y_blocked = x;
    simd_fn(y_simd.data(), n);
    blocked_fn(y_blocked.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(y_simd[i], y_blocked[i], 1e-5f) << i;
    }
    // Element-wise invariance: the value at i must not depend on the
    // array length or the element's position (vector body vs tail).
    for (size_t i = 0; i < n; i += 97) {
      float alone = x[i];
      simd_fn(&alone, 1);
      ASSERT_EQ(alone, y_simd[i]) << i;
    }
  }
}

}  // namespace
}  // namespace eventhit::nn
