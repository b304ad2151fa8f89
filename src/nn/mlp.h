// Multi-layer perceptron: Dense -> tanh -> ... -> Dense (final layer is
// linear; callers apply sigmoid/softmax or feed logits to a loss).
// Inference and training run ForwardBatch through a backend's kernel
// table; ForwardCached/Backward, one record at a time, are the per-record
// reference the tests check the batched pass against.
#ifndef EVENTHIT_NN_MLP_H_
#define EVENTHIT_NN_MLP_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/backend.h"
#include "nn/dense.h"
#include "nn/matrix.h"
#include "nn/parameter.h"
#include "nn/workspace.h"

namespace eventhit::nn {

/// A stack of Dense layers with tanh between them. `dims` lists
/// [input, hidden..., output]; a two-element dims is a single affine layer.
class Mlp {
 public:
  Mlp() = default;
  Mlp(std::string name, const std::vector<size_t>& dims, Rng& rng);

  size_t in_dim() const { return layers_.front().in_dim(); }
  size_t out_dim() const { return layers_.back().out_dim(); }

  /// Forward pass producing logits; caches intermediate activations for
  /// Backward.
  void ForwardCached(const float* x, Vec& logits);

  /// The hidden activations of a training-mode ForwardBatch, kept for
  /// BackwardBatch: hidden[i] is layer i's tanh output, [out x batch] in
  /// the forward's Workspace. Reusing one tape across batches keeps the
  /// pass allocation-free.
  struct BatchTape {
    std::vector<const float*> hidden;
  };

  /// Forward over `batch` columns stored batch-minor: `x` is
  /// [in_dim() x batch], `logits` [out_dim() x batch], fully overwritten.
  /// GEMMs and the inter-layer tanh run through `backend`'s kernel table
  /// (nn/backend.h); hidden activations come from `ws` (valid until its
  /// next Reset), so a warm Workspace makes the pass allocation-free. Under
  /// scalar and blocked each column matches ForwardCached bit for bit. A
  /// non-null `tape` records the hidden activations for BackwardBatch.
  void ForwardBatch(const float* x, size_t batch, float* logits, Workspace& ws,
                    const Backend& backend, BatchTape* tape = nullptr) const;

  /// Backward from dlogits; accumulates parameter gradients. `dx` (size
  /// in_dim()) receives += input gradients when non-null. Must follow
  /// ForwardCached with the same `x`. The per-record reference for
  /// BackwardBatch.
  void Backward(const float* x, const float* dlogits, float* dx);

  /// Batched Backward over `batch` columns stored batch-minor, after a
  /// ForwardBatch with the same `x` that filled `tape`: `dlogits` is
  /// [out_dim() x batch] and `dx` (nullable) [in_dim() x batch] receives
  /// += input gradients. Layer by layer through Dense::BackwardBatch, so the
  /// gradients match `batch` Backward calls in column order bit for bit.
  void BackwardBatch(const BatchTape& tape, const float* x,
                     const float* dlogits, size_t batch, float* dx,
                     Workspace& ws);

  void CollectParameters(ParameterRefs& out);
  void CollectParameters(ConstParameterRefs& out) const;

  const std::vector<Dense>& layers() const { return layers_; }
  std::vector<Dense>& mutable_layers() { return layers_; }

 private:
  std::vector<Dense> layers_;
  // activations_[i] = tanh output of layer i (for i < last). Cached by
  // ForwardCached for use in Backward.
  std::vector<Vec> activations_;
};

}  // namespace eventhit::nn

#endif  // EVENTHIT_NN_MLP_H_
