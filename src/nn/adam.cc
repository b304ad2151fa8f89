#include "nn/adam.h"

#include <cmath>

#include "common/check.h"

namespace eventhit::nn {

AdamOptimizer::AdamOptimizer(ParameterRefs params, AdamOptions options)
    : params_(std::move(params)), options_(options) {
  moment1_.reserve(params_.size());
  moment2_.reserve(params_.size());
  for (const Parameter* p : params_) {
    moment1_.emplace_back(p->value.rows(), p->value.cols());
    moment2_.emplace_back(p->value.rows(), p->value.cols());
  }
}

double AdamOptimizer::Step() {
  double norm = 0.0;
  if (options_.clip_norm > 0.0) {
    norm = ClipGradientNorm(params_, options_.clip_norm);
  } else {
    double total = 0.0;
    for (const Parameter* p : params_) total += p->grad.SquaredNorm();
    norm = std::sqrt(total);
  }

  ++step_count_;
  const double bias1 = 1.0 - std::pow(options_.beta1, static_cast<double>(step_count_));
  const double bias2 = 1.0 - std::pow(options_.beta2, static_cast<double>(step_count_));
  const auto b1 = static_cast<float>(options_.beta1);
  const auto b2 = static_cast<float>(options_.beta2);

  // This file builds with -fno-math-errno (src/nn/CMakeLists.txt), so the
  // element loop vectorizes. Every lane performs the same IEEE operations in
  // the same order as the scalar loop, and divide and square root are
  // correctly rounded, so the update has the scalar loop's bits.
  for (size_t k = 0; k < params_.size(); ++k) {
    Parameter* p = params_[k];
    float* value = p->value.data();
    float* grad = p->grad.data();
    float* m1 = moment1_[k].data();
    float* m2 = moment2_[k].data();
    const size_t n = p->value.size();
    for (size_t i = 0; i < n; ++i) {
      m1[i] = b1 * m1[i] + (1.0f - b1) * grad[i];
      m2[i] = b2 * m2[i] + (1.0f - b2) * grad[i] * grad[i];
      const double m_hat = static_cast<double>(m1[i]) / bias1;
      const double v_hat = static_cast<double>(m2[i]) / bias2;
      value[i] -= static_cast<float>(options_.learning_rate * m_hat /
                                     (std::sqrt(v_hat) + options_.epsilon));
    }
    p->grad.SetZero();
  }
  return norm;
}

}  // namespace eventhit::nn
