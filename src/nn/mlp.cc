#include "nn/mlp.h"

#include <algorithm>

#include "common/check.h"
#include "nn/activations.h"

namespace eventhit::nn {

Mlp::Mlp(std::string name, const std::vector<size_t>& dims, Rng& rng) {
  EVENTHIT_CHECK_GE(dims.size(), 2u);
  layers_.reserve(dims.size() - 1);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(name + ".fc" + std::to_string(i), dims[i],
                         dims[i + 1], rng);
  }
  activations_.resize(layers_.size());
}

void Mlp::ForwardCached(const float* x, Vec& logits) {
  const float* current = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const bool last = i + 1 == layers_.size();
    Vec& out = last ? logits : activations_[i];
    layers_[i].Forward(current, out);
    if (!last) {
      TanhInPlace(out.data(), out.size());
      current = out.data();
    }
  }
}

void Mlp::ForwardBatch(const float* x, size_t batch, float* logits,
                       Workspace& ws, const Backend& backend,
                       BatchTape* tape) const {
  if (tape != nullptr) tape->hidden.resize(layers_.size() - 1);
  const float* current = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const bool last = i + 1 == layers_.size();
    const size_t out = layers_[i].out_dim();
    float* buffer = last ? logits : ws.Alloc(out * batch);
    layers_[i].ForwardBatch(current, batch, buffer, backend);
    if (!last) {
      backend.kernels->tanh_inplace(buffer, out * batch);
      current = buffer;
      if (tape != nullptr) tape->hidden[i] = buffer;
    }
  }
}

void Mlp::Backward(const float* x, const float* dlogits, float* dx) {
  // Walk backwards; the gradient w.r.t. each hidden activation is computed
  // into a scratch buffer, then passed through the tanh derivative.
  Vec dcurrent(dlogits, dlogits + layers_.back().out_dim());
  for (size_t i = layers_.size(); i-- > 0;) {
    const bool first = i == 0;
    const float* input = first ? x : activations_[i - 1].data();
    if (first) {
      layers_[i].Backward(input, dcurrent.data(), dx);
    } else {
      Vec dinput(layers_[i].in_dim(), 0.0f);
      layers_[i].Backward(input, dcurrent.data(), dinput.data());
      // Through the tanh applied to activations_[i-1].
      Vec dpre(dinput.size());
      TanhBackward(activations_[i - 1].data(), dinput.data(), dpre.data(),
                   dpre.size());
      dcurrent = std::move(dpre);
    }
  }
}

void Mlp::BackwardBatch(const BatchTape& tape, const float* x,
                        const float* dlogits, size_t batch, float* dx,
                        Workspace& ws) {
  EVENTHIT_CHECK_EQ(tape.hidden.size(), layers_.size() - 1);
  const float* dcurrent = dlogits;
  for (size_t i = layers_.size(); i-- > 1;) {
    // Into a zero-filled input gradient, then through the tanh of layer
    // i - 1 in place — Backward's dinput and dpre.
    const size_t n = layers_[i].in_dim() * batch;
    float* dinput = ws.Alloc(n);
    std::fill(dinput, dinput + n, 0.0f);
    layers_[i].BackwardBatch(tape.hidden[i - 1], dcurrent, batch, dinput, ws);
    TanhBackward(tape.hidden[i - 1], dinput, dinput, n);
    dcurrent = dinput;
  }
  layers_[0].BackwardBatch(x, dcurrent, batch, dx, ws);
}

void Mlp::CollectParameters(ParameterRefs& out) {
  for (Dense& layer : layers_) layer.CollectParameters(out);
}

void Mlp::CollectParameters(ConstParameterRefs& out) const {
  for (const Dense& layer : layers_) layer.CollectParameters(out);
}

}  // namespace eventhit::nn
