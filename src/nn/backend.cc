#include "nn/backend.h"

#include "nn/activations.h"
#include "nn/gemm.h"

namespace eventhit::nn {

#if EVENTHIT_NN_HAVE_AVX2
// Implemented in backend_simd.cc, which is compiled with -mavx2 -mfma.
// Declared here (not in a header) so nothing outside the dispatch tables
// can call them without going through the SimdAvailable() cpuid gate.
// kFma = true is the simd flavour (every multiply-add step fused);
// kFma = false is the blocked flavour (separate multiply and add, the
// portable kernels' exact operations).
namespace detail {
template <bool kFma>
void GemmZeroAvx2(size_t m, size_t n, size_t k, const float* a, size_t lda,
                  const float* b, size_t ldb, float* c, size_t ldc);
template <bool kFma>
void GemmAvx2(size_t m, size_t n, size_t k, const float* a, size_t lda,
              const float* b, size_t ldb, float* c, size_t ldc);
template <bool kFma>
void TanhInPlaceAvx2(float* x, size_t n);
template <bool kFma>
void SigmoidInPlaceAvx2(float* x, size_t n);
}  // namespace detail
#endif  // EVENTHIT_NN_HAVE_AVX2

namespace {

// --- scalar reference kernels ---------------------------------------------
//
// Same summation order as the blocked kernels (gemm.cc): for GemmZero the
// first k-term is a plain multiply, every later term a separate multiply
// then add, ascending k. The activations apply TanhScalar / SigmoidScalar
// one element at a time. With identical float operations in identical
// order the scalar and blocked backends are bit-identical — scalar is the
// oracle the tiled/vectorized paths are tested against, not a tolerance
// partner.

void ScalarGemmZero(size_t m, size_t n, size_t k, const float* a, size_t lda,
                    const float* b, size_t ldb, float* c, size_t ldc) {
  for (size_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    for (size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      if (k > 0) {
        acc = arow[0] * b[j];
        for (size_t kk = 1; kk < k; ++kk) acc += arow[kk] * b[kk * ldb + j];
      }
      crow[j] = acc;
    }
  }
}

void ScalarGemm(size_t m, size_t n, size_t k, const float* a, size_t lda,
                const float* b, size_t ldb, float* c, size_t ldc) {
  for (size_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    for (size_t j = 0; j < n; ++j) {
      float acc = crow[j];
      for (size_t kk = 0; kk < k; ++kk) acc += arow[kk] * b[kk * ldb + j];
      crow[j] = acc;
    }
  }
}

void ScalarTanhInPlace(float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] = TanhScalar(x[i]);
}

void ScalarSigmoidInPlace(float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] = SigmoidScalar(x[i]);
}

// --- dispatch tables -------------------------------------------------------

constexpr BackendKernels kScalarKernels = {
    ScalarGemmZero, ScalarGemm, ScalarTanhInPlace, ScalarSigmoidInPlace};

// The portable blocked kernels: what non-AVX2 and aarch64 hosts run, and
// the reference the AVX2 flavour is tested against.
constexpr BackendKernels kPortableBlockedKernels = {
    GemmZero, Gemm, TanhInPlace, SigmoidInPlace};

#if EVENTHIT_NN_HAVE_AVX2
// blocked on AVX2 hosts: the same IEEE operations in the same order as the
// portable table, eight columns at a time — identical bits, so the default
// backend is machine-invariant.
constexpr BackendKernels kAvx2BlockedKernels = {
    detail::GemmZeroAvx2<false>, detail::GemmAvx2<false>,
    detail::TanhInPlaceAvx2<false>, detail::SigmoidInPlaceAvx2<false>};

constexpr BackendKernels kSimdKernels = {
    detail::GemmZeroAvx2<true>, detail::GemmAvx2<true>,
    detail::TanhInPlaceAvx2<true>, detail::SigmoidInPlaceAvx2<true>};
#endif

const BackendKernels* BlockedKernels() {
#if EVENTHIT_NN_HAVE_AVX2
  if (SimdAvailable()) return &kAvx2BlockedKernels;
#endif
  return &kPortableBlockedKernels;
}

}  // namespace

bool SimdAvailable() {
#if EVENTHIT_NN_HAVE_AVX2 && (defined(__x86_64__) || defined(__i386__))
  // __builtin_cpu_supports returns the feature's mask *bit*, not 0/1 —
  // always compare against zero.
  static const bool available = __builtin_cpu_supports("avx2") != 0 &&
                                __builtin_cpu_supports("fma") != 0;
  return available;
#else
  return false;
#endif
}

const Backend& GetBackend(BackendKind kind) {
  static const Backend scalar{BackendKind::kScalar, BackendKind::kScalar,
                              "scalar", &kScalarKernels};
  static const Backend blocked{BackendKind::kBlocked, BackendKind::kBlocked,
                               "blocked", BlockedKernels()};
  // simd falls back to the blocked table when the CPU (or build) lacks
  // AVX2+FMA; `effective` records which kernels actually run.
  static const Backend simd = [] {
    Backend b;
    b.kind = BackendKind::kSimd;
    b.name = "simd";
#if EVENTHIT_NN_HAVE_AVX2
    if (SimdAvailable()) {
      b.effective = BackendKind::kSimd;
      b.kernels = &kSimdKernels;
      return b;
    }
#endif
    b.effective = BackendKind::kBlocked;
    b.kernels = BlockedKernels();
    return b;
  }();
  switch (kind) {
    case BackendKind::kScalar:
      return scalar;
    case BackendKind::kBlocked:
      return blocked;
    case BackendKind::kSimd:
      return simd;
  }
  return blocked;  // unreachable; keeps -Wreturn-type quiet
}

const char* BackendKindName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kScalar:
      return "scalar";
    case BackendKind::kBlocked:
      return "blocked";
    case BackendKind::kSimd:
      return "simd";
  }
  return "unknown";
}

Result<BackendKind> ParseBackendKind(const std::string& name) {
  if (name == "scalar") return BackendKind::kScalar;
  if (name == "blocked") return BackendKind::kBlocked;
  if (name == "simd") return BackendKind::kSimd;
  if (name == "auto") {
    return SimdAvailable() ? BackendKind::kSimd : BackendKind::kBlocked;
  }
  return InvalidArgumentError(
      "unknown nn backend '" + name +
      "' (choices: scalar, blocked, simd, auto)");
}

std::vector<BackendKind> AllBackendKinds() {
  return {BackendKind::kScalar, BackendKind::kBlocked, BackendKind::kSimd};
}

}  // namespace eventhit::nn
