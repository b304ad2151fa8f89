#include "nn/loss.h"

#include <cmath>
#include <cstring>

#include "nn/activations.h"
#include "nn/backend.h"

namespace eventhit::nn {
namespace {

// Stable -log(sigmoid(x)) = log(1 + exp(-x)) = max(0,-x) + log1p(exp(-|x|)).
inline double LogSigmoidNeg(float x) {
  const double ax = std::fabs(static_cast<double>(x));
  const double base = std::log1p(std::exp(-ax));
  return x >= 0.0f ? base : base + ax;
}

// The loss of one logit given p = sigmoid(logit), and its gradient.
inline double Bce(float logit, float p, float target, float weight,
                  float* dlogit) {
  // loss = -(y * log p + (1-y) * log(1-p)), p = sigmoid(logit)
  //      = y * (-log p) + (1-y) * (-log(1-p))
  // with -log p = LogSigmoidNeg(logit), -log(1-p) = LogSigmoidNeg(-logit).
  // A 0/1 target keeps one term: the other is finite and non-negative, so
  // the two-term sum multiplies it by exactly 0 to +0 and adds that to the
  // kept term unchanged — skipping it gives the same bits for one exp and
  // one log1p instead of two each.
  const double terms =
      target == 1.0f   ? LogSigmoidNeg(logit)
      : target == 0.0f ? LogSigmoidNeg(-logit)
                       : target * LogSigmoidNeg(logit) +
                             (1.0 - target) * LogSigmoidNeg(-logit);
  *dlogit = weight * (p - target);
  return weight * terms;
}

}  // namespace

double BceWithLogits(float logit, float target, float weight, float* dlogit) {
  return Bce(logit, SigmoidScalar(logit), target, weight, dlogit);
}

double BceWithLogitsVector(const float* logits, const float* targets,
                           const float* weights, size_t n, float* dlogits) {
  // Every sigmoid in one pass of the blocked kernel, which computes
  // SigmoidScalar's bits (docs/BACKENDS.md), staged in dlogits.
  std::memcpy(dlogits, logits, n * sizeof(float));
  GetBackend(BackendKind::kBlocked).kernels->sigmoid_inplace(dlogits, n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (weights[i] == 0.0f) {
      dlogits[i] = 0.0f;
      continue;
    }
    total += Bce(logits[i], dlogits[i], targets[i], weights[i], &dlogits[i]);
  }
  return total;
}

}  // namespace eventhit::nn
