// Single-layer LSTM over a fixed-length input sequence, with full
// backpropagation-through-time. EventHit consumes only the final hidden
// state, so the backward entry points take the gradient of that state.
// Every forward that serves inference or training is ForwardBatch through
// a backend's kernel table; ForwardCached/Backward, one sequence at a time
// over MatVec, are the per-record reference the tests check it against.
#ifndef EVENTHIT_NN_LSTM_H_
#define EVENTHIT_NN_LSTM_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/backend.h"
#include "nn/matrix.h"
#include "nn/parameter.h"
#include "nn/workspace.h"

namespace eventhit::nn {

/// LSTM with input dim D and hidden dim Hd. Gate layout in the packed
/// pre-activation vector is [input, forget, cell, output], each Hd wide.
class Lstm {
 public:
  Lstm() = default;

  /// Glorot-initialised weights; the forget-gate bias starts at +1.0, the
  /// standard trick that prevents early vanishing of long-range signal.
  Lstm(std::string name, size_t input_dim, size_t hidden_dim, Rng& rng);

  size_t input_dim() const { return wx_.value.cols(); }
  size_t hidden_dim() const { return wx_.value.rows() / 4; }

  /// Runs the sequence (steps x input_dim, row-major in `inputs`) from zero
  /// initial state over MatVec products, caching activations for Backward.
  /// Returns the final hidden state h_M. The per-record reference that the
  /// bitwise and finite-difference tests check ForwardBatch against.
  Vec ForwardCached(const float* inputs, size_t steps);

  /// Every timestep's activations of a training-mode ForwardBatch, kept
  /// for BackwardBatch. The buffers are batch-minor and live in the
  /// Workspace passed to ForwardBatch (valid until its next Reset); step
  /// t's block starts t blocks in.
  struct BatchTape {
    const float* inputs = nullptr;  // As passed to ForwardBatch.
    size_t steps = 0;
    size_t batch = 0;
    float* gates = nullptr;   // [4*Hd x batch] per step: activated i, f, g, o.
    float* cell = nullptr;    // [Hd x batch] per step: c_t.
    float* tanh_c = nullptr;  // [Hd x batch] per step: tanh(c_t).
    float* hidden = nullptr;  // [Hd x batch] per step: h_t.
  };

  /// One timestep over `batch` independent sequences: advances their
  /// states h and c ([hidden_dim() x batch] each, batch-minor, updated in
  /// place) by the inputs x ([input_dim() x batch]). Runs two GEMMs (Wx·x
  /// and Wh·h) and the activations through `backend`'s kernel table
  /// (nn/backend.h), with scratch from `ws` (not reset). A column's bits
  /// depend on that column alone (matrix.h), so a sequence stepped frame by
  /// frame from the zero state — in batches of any size and composition —
  /// ends on ForwardBatch's h bit for bit under every backend.
  void Step(const float* x, size_t batch, float* h, float* c, Workspace& ws,
            const Backend& backend) const;

  /// Forward over `batch` independent sequences stored batch-minor and
  /// time-major: element (t, feature j, sequence b) lives at
  /// inputs[(t * input_dim() + j) * batch + b]. Writes the final hidden
  /// states into `h_out` as [hidden_dim() x batch]. Inference is Step from
  /// the zero state at every timestep; scratch comes from `ws` (valid
  /// until its next Reset), so a warm Workspace makes the pass
  /// allocation-free. Under scalar and blocked each sequence replays
  /// ForwardCached's summation order (matrix.h), so h_out matches it bit
  /// for bit at any batch size; simd agrees within the documented
  /// tolerance and is itself batch-size invariant. With a non-null `tape`
  /// (training) every step writes its own tape buffers instead of
  /// updating one state in place, so the arithmetic — and h_out — is
  /// unchanged.
  void ForwardBatch(const float* inputs, size_t steps, size_t batch,
                    float* h_out, Workspace& ws, const Backend& backend,
                    BatchTape* tape = nullptr) const;

  /// BPTT from the gradient of the final hidden state. Must follow a
  /// ForwardCached call; accumulates parameter gradients. If `dinputs` is
  /// non-null it must hold steps*input_dim floats and receives +=
  /// gradients w.r.t. the inputs. The per-record reference for
  /// BackwardBatch.
  void Backward(const float* dh_final, float* dinputs = nullptr);

  /// Batched BPTT over a tape written by ForwardBatch, from the final
  /// hidden state's gradient `dh_final` ([hidden_dim() x batch],
  /// batch-minor). Accumulates the Wx, Wh and b gradients (no input
  /// gradients) through the blocked kernel table, with scratch from `ws`.
  /// Each gradient element receives exactly the adds that ForwardCached +
  /// Backward over the tape's sequences, one after another, would make, in
  /// the same order, so the gradients match that loop bit for bit
  /// (DESIGN.md §5c).
  void BackwardBatch(const BatchTape& tape, const float* dh_final,
                     Workspace& ws);

  void CollectParameters(ParameterRefs& out);
  void CollectParameters(ConstParameterRefs& out) const;

  const Parameter& wx() const { return wx_; }
  const Parameter& wh() const { return wh_; }
  const Parameter& bias() const { return bias_; }
  Parameter& mutable_wx() { return wx_; }
  Parameter& mutable_wh() { return wh_; }
  Parameter& mutable_bias() { return bias_; }

 private:
  // One timestep's cached activations for BPTT.
  struct StepCache {
    Vec gates;   // 4*Hd: post-activation i, f, g, o
    Vec cell;    // Hd: c_t
    Vec tanh_c;  // Hd: tanh(c_t)
    Vec hidden;  // Hd: h_t
  };

  void StepForward(const float* x, const float* h_prev, const float* c_prev,
                   StepCache& cache) const;

  // The gate arithmetic of Step and ForwardBatch, batch-minor: from x,
  // h_prev and c_prev, writes the activated gates into `gates` and c_t,
  // tanh(c_t) and h_t into c_cur, tanh_c and h_cur; `rec` is scratch. The
  // outputs may alias the inputs (Step updates h and c in place, with
  // tanh(c_t) in h's buffer).
  void StepInto(const float* x, const float* h_prev, const float* c_prev,
                size_t batch, float* gates, float* rec, float* c_cur,
                float* tanh_c, float* h_cur,
                const BackendKernels& kern) const;

  Parameter wx_;    // 4*Hd x D
  Parameter wh_;    // 4*Hd x Hd
  Parameter bias_;  // 4*Hd x 1

  // Cache of the most recent ForwardCached call.
  std::vector<StepCache> cache_;
  const float* cached_inputs_ = nullptr;
  size_t cached_steps_ = 0;
};

}  // namespace eventhit::nn

#endif  // EVENTHIT_NN_LSTM_H_
