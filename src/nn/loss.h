// Binary cross-entropy on logits: numerically stable value and gradient.
// EventHit's two losses (existence L1 and per-frame occupancy L2) are both
// weighted BCE sums over sigmoid outputs, so they share these kernels.
#ifndef EVENTHIT_NN_LOSS_H_
#define EVENTHIT_NN_LOSS_H_

#include <cstddef>

namespace eventhit::nn {

/// BCE-with-logits for a single scalar: returns the loss value
///   -[ y*log(sigmoid(x)) + (1-y)*log(1-sigmoid(x)) ] * weight
/// and writes d(loss)/d(logit) = (sigmoid(x) - y) * weight to *dlogit.
double BceWithLogits(float logit, float target, float weight, float* dlogit);

/// Element-wise weighted BCE over n logits. `weights[i]` may be zero to mask
/// an element entirely (no loss, no gradient). Returns the summed loss and
/// writes per-element gradients to dlogits, which must not overlap
/// `logits`. Each element's loss and gradient are BceWithLogits' bits; the
/// sigmoids come from one pass of the blocked kernel.
double BceWithLogitsVector(const float* logits, const float* targets,
                           const float* weights, size_t n, float* dlogits);

}  // namespace eventhit::nn

#endif  // EVENTHIT_NN_LOSS_H_
