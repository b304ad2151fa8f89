// Runtime-dispatched inference kernel backends (DESIGN.md §5h,
// docs/BACKENDS.md).
//
// The batched inference path (gemm.h, lstm.h, dense.h, mlp.h) is written
// against a small kernel table — GEMM products and element-wise
// activations — so the same forward-pass code can run on several
// implementations selected once at startup:
//
//   * scalar  — naive reference loops, no tiling. Same ascending-k float
//     summation order as `blocked`, so results are bit-identical to it;
//     exists as the oracle the faster backends are tested against.
//   * blocked — the default, and the backend every committed baseline and
//     conformal calibration was produced with. Where SimdAvailable() holds
//     it runs explicit AVX2 kernels (backend_simd.cc) that keep every
//     multiply and add separate, in scalar's order; elsewhere the portable
//     register-tiled kernels (gemm.cc, activations.cc), auto-vectorized by
//     the baseline build (SSE2 on x86-64, NEON on aarch64). Both flavours
//     compute the same bits, so blocked scores are machine-invariant.
//   * simd    — explicit AVX2+FMA kernels, chosen only when cpuid reports
//     both features at startup (SimdAvailable()). Each output element is
//     still the ascending-k sum of its products, but every term lands via
//     a fused multiply-add (one rounding per term instead of two), so simd
//     results are NOT bit-identical to scalar/blocked — they agree within
//     the documented 1e-5 score bound. Within the simd backend, results
//     are bit-identical at any batch size: full 8-column panels and the
//     masked tail panel run the same code, so a column's result does not
//     depend on its position in the batch (the fleet's solo==batched
//     digest contract survives backend selection). The kernels are the
//     blocked AVX2 templates with their multiply-add steps fused. On
//     non-x86 or pre-AVX2 hardware the simd kind transparently falls back
//     to the blocked kernels (NEON is the aarch64 baseline, so `blocked`
//     is already the vectorized path there).
//
// Threading model: a Backend is immutable global state — GetBackend()
// returns references to static tables, safe to share across threads.
#ifndef EVENTHIT_NN_BACKEND_H_
#define EVENTHIT_NN_BACKEND_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"

namespace eventhit::nn {

enum class BackendKind { kScalar, kBlocked, kSimd };

/// C = A * B (overwrite) / C += A * B with the shape conventions of
/// nn/gemm.h: A m x k (lda), B k x n (ldb), C m x n (ldc), ascending-k
/// accumulation per output element.
using GemmFn = void (*)(size_t m, size_t n, size_t k, const float* a,
                        size_t lda, const float* b, size_t ldb, float* c,
                        size_t ldc);

/// Element-wise activation over n contiguous floats.
using UnaryFn = void (*)(float* x, size_t n);

/// The kernel table a forward pass dispatches through.
struct BackendKernels {
  GemmFn gemm_zero = nullptr;       // C = A*B
  GemmFn gemm = nullptr;            // C += A*B
  UnaryFn tanh_inplace = nullptr;   // x = tanh(x)
  UnaryFn sigmoid_inplace = nullptr;
};

/// One selected backend: the kind requested, the kind actually executing
/// (simd falls back to blocked when the CPU lacks AVX2+FMA), and the
/// kernel table.
struct Backend {
  BackendKind kind = BackendKind::kBlocked;
  BackendKind effective = BackendKind::kBlocked;
  const char* name = "blocked";
  const BackendKernels* kernels = nullptr;
};

/// True when explicit SIMD kernels (AVX2+FMA) are compiled in AND the CPU
/// reports the features at runtime. When false, BackendKind::kSimd
/// dispatches the blocked kernels.
bool SimdAvailable();

/// The immutable backend singleton for `kind`.
const Backend& GetBackend(BackendKind kind);

/// Canonical lower-case name ("scalar", "blocked", "simd").
const char* BackendKindName(BackendKind kind);

/// Parses a backend name. "auto" resolves to simd when SimdAvailable(),
/// else blocked. Unknown names produce InvalidArgumentError listing the
/// choices.
Result<BackendKind> ParseBackendKind(const std::string& name);

/// Every kind, in fixed order (scalar, blocked, simd) — for benches and
/// parity sweeps.
std::vector<BackendKind> AllBackendKinds();

}  // namespace eventhit::nn

#endif  // EVENTHIT_NN_BACKEND_H_
