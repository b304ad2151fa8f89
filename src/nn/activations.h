// Element-wise activation kernels with derivatives expressed in terms of the
// forward *outputs*, which is what backprop caches.
#ifndef EVENTHIT_NN_ACTIVATIONS_H_
#define EVENTHIT_NN_ACTIVATIONS_H_

#include <cstddef>

namespace eventhit::nn {

/// y[i] = tanh(x[i]) in place.
void TanhInPlace(float* x, size_t n);

/// y[i] = sigmoid(x[i]) in place (numerically stable).
void SigmoidInPlace(float* x, size_t n);

/// dx[i] = dy[i] * (1 - y[i]^2) where y is the tanh output.
void TanhBackward(const float* y, const float* dy, float* dx, size_t n);

/// Scalar helpers used by the LSTM cell.
float SigmoidScalar(float x);
float TanhScalar(float x);

}  // namespace eventhit::nn

#endif  // EVENTHIT_NN_ACTIVATIONS_H_
