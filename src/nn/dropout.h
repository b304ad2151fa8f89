// Inverted dropout: activations are zeroed with probability `rate` during
// training and scaled by 1/(1-rate) so inference needs no rescaling.
#ifndef EVENTHIT_NN_DROPOUT_H_
#define EVENTHIT_NN_DROPOUT_H_

#include "common/rng.h"
#include "nn/matrix.h"

namespace eventhit::nn {

/// Stateless apart from the mask of the most recent ForwardTrain call.
class Dropout {
 public:
  /// `rate` in [0, 1): the probability of dropping a unit.
  explicit Dropout(double rate);

  double rate() const { return rate_; }

  /// Training-mode forward: samples a fresh mask from `rng`, writes the
  /// masked activations to `y` (resized to n).
  void ForwardTrain(const float* x, size_t n, Rng& rng, Vec& y);

  /// Training-mode forward over `batch` columns stored batch-minor
  /// ([n x batch]): writes the masked activations to `y` and the scaled
  /// keep mask to `mask`, both [n x batch]. Column 0's n draws come first,
  /// then column 1's, so `rng` advances exactly as under `batch`
  /// ForwardTrain calls in column order.
  void ForwardTrainBatch(const float* x, size_t n, size_t batch, Rng& rng,
                         float* y, float* mask) const;

  /// Backward using the mask of the last ForwardTrain: dx[i] = dy[i]*mask[i].
  void Backward(const float* dy, float* dx) const;

 private:
  double rate_;
  Vec mask_;  // Scaled keep mask from the last ForwardTrain.
};

}  // namespace eventhit::nn

#endif  // EVENTHIT_NN_DROPOUT_H_
