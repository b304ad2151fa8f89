#include "nn/dropout.h"

#include "common/check.h"

namespace eventhit::nn {

Dropout::Dropout(double rate) : rate_(rate) {
  EVENTHIT_CHECK_GE(rate, 0.0);
  EVENTHIT_CHECK_LT(rate, 1.0);
}

void Dropout::ForwardTrain(const float* x, size_t n, Rng& rng, Vec& y) {
  y.resize(n);
  mask_.resize(n);
  ForwardTrainBatch(x, n, 1, rng, y.data(), mask_.data());
}

void Dropout::ForwardTrainBatch(const float* x, size_t n, size_t batch,
                                Rng& rng, float* y, float* mask) const {
  // Rate 0 draws nothing and keeps every unit at scale 1, so y == x.
  const auto scale = static_cast<float>(1.0 / (1.0 - rate_));
  for (size_t b = 0; b < batch; ++b) {
    for (size_t i = 0; i < n; ++i) {
      const size_t idx = i * batch + b;
      mask[idx] = rate_ > 0.0 && rng.Bernoulli(rate_) ? 0.0f : scale;
      y[idx] = x[idx] * mask[idx];
    }
  }
}

void Dropout::Backward(const float* dy, float* dx) const {
  for (size_t i = 0; i < mask_.size(); ++i) dx[i] = dy[i] * mask_[i];
}

}  // namespace eventhit::nn
