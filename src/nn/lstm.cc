#include "nn/lstm.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>

#include "common/check.h"
#include "nn/activations.h"

namespace eventhit::nn {
namespace {

#if defined(__GNUC__) || defined(__clang__)
#define EVENTHIT_RESTRICT __restrict__
#else
#define EVENTHIT_RESTRICT
#endif

// One BPTT step's per-element expressions over n = Hd * batch elements
// (batch 1 in Backward): dpre gets the four gate blocks, each n wide in
// [i, f, g, o] order, and dc steps back to c_{t-1}. The non-aliasing
// pointers let the compiler vectorize; each element sees the same IEEE
// operations either way.
void StepBackward(size_t n, const float* EVENTHIT_RESTRICT gate_i,
                  const float* EVENTHIT_RESTRICT gate_f,
                  const float* EVENTHIT_RESTRICT gate_g,
                  const float* EVENTHIT_RESTRICT gate_o,
                  const float* EVENTHIT_RESTRICT tanh_c,
                  const float* EVENTHIT_RESTRICT c_prev,
                  const float* EVENTHIT_RESTRICT dh,
                  float* EVENTHIT_RESTRICT dc, float* EVENTHIT_RESTRICT dpre) {
  for (size_t idx = 0; idx < n; ++idx) {
    const float tc = tanh_c[idx];
    const float d_o = dh[idx] * tc;
    const float dc_total = dc[idx] + dh[idx] * gate_o[idx] * (1.0f - tc * tc);
    const float d_i = dc_total * gate_g[idx];
    const float d_f = dc_total * c_prev[idx];
    const float d_g = dc_total * gate_i[idx];
    dpre[idx] = d_i * gate_i[idx] * (1.0f - gate_i[idx]);
    dpre[n + idx] = d_f * gate_f[idx] * (1.0f - gate_f[idx]);
    dpre[2 * n + idx] = d_g * (1.0f - gate_g[idx] * gate_g[idx]);
    dpre[3 * n + idx] = d_o * gate_o[idx] * (1.0f - gate_o[idx]);
    dc[idx] = dc_total * gate_f[idx];
  }
}

}  // namespace

Lstm::Lstm(std::string name, size_t input_dim, size_t hidden_dim, Rng& rng)
    : wx_(name + ".Wx", Matrix::GlorotUniform(4 * hidden_dim, input_dim, rng)),
      wh_(name + ".Wh", Matrix::GlorotUniform(4 * hidden_dim, hidden_dim, rng)),
      bias_(name + ".b", Matrix::Zeros(4 * hidden_dim, 1)) {
  EVENTHIT_CHECK_GT(input_dim, 0u);
  EVENTHIT_CHECK_GT(hidden_dim, 0u);
  // Forget-gate bias = 1 so early training does not forget aggressively.
  for (size_t j = hidden_dim; j < 2 * hidden_dim; ++j) {
    bias_.value.At(j, 0) = 1.0f;
  }
}

void Lstm::StepForward(const float* x, const float* h_prev,
                       const float* c_prev, StepCache& cache) const {
  const size_t hd = hidden_dim();
  // resize, not assign: MatVec overwrites every element, so zero-filling a
  // warm buffer each step was pure churn.
  cache.gates.resize(4 * hd);
  float* pre = cache.gates.data();
  MatVec(wx_.value, x, pre);
  MatVecAccum(wh_.value, h_prev, pre);
  const float* b = bias_.value.data();
  for (size_t j = 0; j < 4 * hd; ++j) pre[j] += b[j];

  float* gate_i = pre;
  float* gate_f = pre + hd;
  float* gate_g = pre + 2 * hd;
  float* gate_o = pre + 3 * hd;
  SigmoidInPlace(gate_i, hd);
  SigmoidInPlace(gate_f, hd);
  TanhInPlace(gate_g, hd);
  SigmoidInPlace(gate_o, hd);

  cache.cell.resize(hd);
  cache.tanh_c.resize(hd);
  cache.hidden.resize(hd);
  for (size_t j = 0; j < hd; ++j) {
    cache.cell[j] = gate_f[j] * c_prev[j] + gate_i[j] * gate_g[j];
    cache.tanh_c[j] = TanhScalar(cache.cell[j]);
    cache.hidden[j] = gate_o[j] * cache.tanh_c[j];
  }
}

Vec Lstm::ForwardCached(const float* inputs, size_t steps) {
  EVENTHIT_CHECK_GT(steps, 0u);
  const size_t hd = hidden_dim();
  const size_t d = input_dim();
  cache_.resize(steps);
  cached_inputs_ = inputs;
  cached_steps_ = steps;

  const Vec zeros(hd, 0.0f);
  for (size_t t = 0; t < steps; ++t) {
    const float* h_prev = t == 0 ? zeros.data() : cache_[t - 1].hidden.data();
    const float* c_prev = t == 0 ? zeros.data() : cache_[t - 1].cell.data();
    StepForward(inputs + t * d, h_prev, c_prev, cache_[t]);
  }
  return cache_.back().hidden;
}

void Lstm::StepInto(const float* x, const float* h_prev, const float* c_prev,
                    size_t batch, float* gates, float* rec, float* c_cur,
                    float* tanh_c, float* h_cur,
                    const BackendKernels& kern) const {
  const size_t hd = hidden_dim();
  const size_t d = input_dim();
  const size_t gate_rows = 4 * hd;
  const size_t state = hd * batch;
  // `rec` holds the recurrent term separately so the combination below can
  // replay the scalar path's operation order: (Wx·x) + (Wh·h) summed per
  // element, then + bias (see StepForward and the matrix.h contract).
  kern.gemm_zero(gate_rows, batch, d, wx_.value.data(), d, x, batch, gates,
                 batch);
  kern.gemm_zero(gate_rows, batch, hd, wh_.value.data(), hd, h_prev, batch,
                 rec, batch);
  const float* bias = bias_.value.data();
  for (size_t j = 0; j < gate_rows; ++j) {
    float* grow = gates + j * batch;
    const float* rrow = rec + j * batch;
    const float bj = bias[j];
    for (size_t b = 0; b < batch; ++b) grow[b] = (grow[b] + rrow[b]) + bj;
  }

  // Gate layout [i, f, g, o]: i and f are adjacent, so one sigmoid pass
  // covers both contiguous row blocks.
  kern.sigmoid_inplace(gates, 2 * state);
  kern.tanh_inplace(gates + 2 * state, state);
  kern.sigmoid_inplace(gates + 3 * state, state);

  const float* gate_i = gates;
  const float* gate_f = gates + state;
  const float* gate_g = gates + 2 * state;
  const float* gate_o = gates + 3 * state;
  // h_prev has been read: from here on the outputs may alias the inputs.
  for (size_t idx = 0; idx < state; ++idx) {
    c_cur[idx] = gate_f[idx] * c_prev[idx] + gate_i[idx] * gate_g[idx];
    tanh_c[idx] = c_cur[idx];
  }
  // tanh(c) via the vectorized kernel, then the output gate — same
  // per-element operations as StepForward, so still bit-identical.
  kern.tanh_inplace(tanh_c, state);
  for (size_t idx = 0; idx < state; ++idx) {
    h_cur[idx] = tanh_c[idx] * gate_o[idx];
  }
}

void Lstm::Step(const float* x, size_t batch, float* h, float* c,
                Workspace& ws, const Backend& backend) const {
  EVENTHIT_CHECK_GT(batch, 0u);
  const size_t gate_rows = 4 * hidden_dim();
  float* gates = ws.Alloc(gate_rows * batch);
  float* rec = ws.Alloc(gate_rows * batch);
  StepInto(x, h, c, batch, gates, rec, c, h, h, *backend.kernels);
}

void Lstm::ForwardBatch(const float* inputs, size_t steps, size_t batch,
                        float* h_out, Workspace& ws, const Backend& backend,
                        BatchTape* tape) const {
  EVENTHIT_CHECK_GT(steps, 0u);
  EVENTHIT_CHECK_GT(batch, 0u);
  const size_t d = input_dim();
  const size_t state = hidden_dim() * batch;
  const size_t x_stride = d * batch;
  const size_t gate_rows = 4 * hidden_dim();
  const BackendKernels& kern = *backend.kernels;
  float* rec = ws.Alloc(gate_rows * batch);
  if (tape == nullptr) {
    // Inference is Step from the zero state, h kept in h_out, its scratch
    // allocated once for all steps.
    float* gates = ws.Alloc(gate_rows * batch);
    float* c = ws.Alloc(state);
    std::memset(h_out, 0, state * sizeof(float));
    std::memset(c, 0, state * sizeof(float));
    for (size_t t = 0; t < steps; ++t) {
      StepInto(inputs + t * x_stride, h_out, c, batch, gates, rec, c, h_out,
               h_out, kern);
    }
    return;
  }

  // Training gives every step its own tape buffers (batch-minor, step t's
  // block t blocks in) and starts from a zero buffer; the arithmetic is
  // Step's.
  float* zeros = ws.Alloc(state);
  std::memset(zeros, 0, state * sizeof(float));
  *tape = BatchTape{inputs,
                    steps,
                    batch,
                    ws.Alloc(steps * gate_rows * batch),
                    ws.Alloc(steps * state),
                    ws.Alloc(steps * state),
                    ws.Alloc(steps * state)};
  const float* h_prev = zeros;
  const float* c_prev = zeros;
  for (size_t t = 0; t < steps; ++t) {
    float* h_cur = tape->hidden + t * state;
    float* c_cur = tape->cell + t * state;
    StepInto(inputs + t * x_stride, h_prev, c_prev, batch,
             tape->gates + t * gate_rows * batch, rec, c_cur,
             tape->tanh_c + t * state, h_cur, kern);
    h_prev = h_cur;
    c_prev = c_cur;
  }
  std::memcpy(h_out, h_prev, state * sizeof(float));
}

void Lstm::Backward(const float* dh_final, float* dinputs) {
  EVENTHIT_CHECK(cached_inputs_ != nullptr);
  const size_t hd = hidden_dim();
  const size_t d = input_dim();
  const size_t steps = cached_steps_;

  Vec dh(dh_final, dh_final + hd);
  Vec dc(hd, 0.0f);
  Vec dpre(4 * hd);
  Vec dh_prev(hd);
  const Vec zeros(hd, 0.0f);

  for (size_t t = steps; t-- > 0;) {
    const StepCache& cache = cache_[t];
    const float* gate_i = cache.gates.data();
    const float* gate_f = cache.gates.data() + hd;
    const float* gate_g = cache.gates.data() + 2 * hd;
    const float* gate_o = cache.gates.data() + 3 * hd;
    const float* c_prev = t == 0 ? zeros.data() : cache_[t - 1].cell.data();
    const float* h_prev = t == 0 ? zeros.data() : cache_[t - 1].hidden.data();

    StepBackward(hd, gate_i, gate_f, gate_g, gate_o, cache.tanh_c.data(),
                 c_prev, dh.data(), dc.data(), dpre.data());

    OuterAccum(wx_.grad, dpre.data(), cached_inputs_ + t * d);
    OuterAccum(wh_.grad, dpre.data(), h_prev);
    float* db = bias_.grad.data();
    for (size_t j = 0; j < 4 * hd; ++j) db[j] += dpre[j];

    if (dinputs != nullptr) {
      MatTVecAccum(wx_.value, dpre.data(), dinputs + t * d);
    }
    std::fill(dh_prev.begin(), dh_prev.end(), 0.0f);
    MatTVecAccum(wh_.value, dpre.data(), dh_prev.data());
    dh = dh_prev;
  }
}

void Lstm::BackwardBatch(const BatchTape& tape, const float* dh_final,
                         Workspace& ws) {
  EVENTHIT_CHECK(tape.inputs != nullptr);
  const size_t hd = hidden_dim();
  const size_t d = input_dim();
  const size_t gate_rows = 4 * hd;
  const size_t steps = tape.steps;
  const size_t batch = tape.batch;
  const size_t state = hd * batch;
  const size_t cols = steps * batch;
  const BackendKernels& kern = *GetBackend(BackendKind::kBlocked).kernels;

  // Row k = b * steps + (steps - 1 - t) of `dpre_rows` holds sequence b's
  // dpre at step t: sequences ascending, each in Backward's descending-t
  // order. Every sum over k below therefore adds its terms in the
  // per-record loop's order. (Accumulating t-major across the batch, the
  // obvious batched order, would not.)
  float* dpre_rows = ws.Alloc(cols * gate_rows);
  float* dpre = ws.Alloc(gate_rows * batch);
  float* dh = ws.Alloc(state);
  float* dc = ws.Alloc(state);
  float* zeros = ws.Alloc(state);
  float* wh_t = ws.Alloc(hd * gate_rows);
  std::memcpy(dh, dh_final, state * sizeof(float));
  std::memset(dc, 0, state * sizeof(float));
  std::memset(zeros, 0, state * sizeof(float));
  Transpose(wh_.value.data(), gate_rows, hd, wh_t);

  for (size_t t = steps; t-- > 0;) {
    const float* gate_i = tape.gates + t * gate_rows * batch;
    const float* gate_f = gate_i + state;
    const float* gate_g = gate_i + 2 * state;
    const float* gate_o = gate_i + 3 * state;
    const float* tanh_c = tape.tanh_c + t * state;
    const float* c_prev = t == 0 ? zeros : tape.cell + (t - 1) * state;
    StepBackward(state, gate_i, gate_f, gate_g, gate_o, tanh_c, c_prev, dh,
                 dc, dpre);
    // Column b of dpre becomes row b * steps + s of dpre_rows.
    const size_t s = steps - 1 - t;
    TransposeStrided(dpre, static_cast<std::ptrdiff_t>(batch), gate_rows,
                     batch, dpre_rows + s * gate_rows, steps * gate_rows);
    // dh_{t-1} = Wh^T dpre from +0, as Backward's zero-filled dh_prev: the
    // accumulating GEMM, not GemmZero, whose first term could leave a -0.
    if (t > 0) {
      std::memset(dh, 0, state * sizeof(float));
      kern.gemm(hd, batch, gate_rows, wh_t, gate_rows, dpre, batch, dh,
                batch);
    }
  }

  // Backward's OuterAccum operands with one column per dpre_rows row: x_t,
  // and h_{t-1} (zero at t = 0, as Backward sees it). Row j of each is
  // feature j's [steps x batch] slice transposed, its steps read from the
  // last one down (a negative source stride), so column b * steps + s
  // holds step t = steps - 1 - s.
  float* xs = ws.Alloc(d * cols);
  float* hs = ws.Alloc(hd * cols);
  const auto x_stride = -static_cast<std::ptrdiff_t>(d * batch);
  for (size_t j = 0; j < d; ++j) {
    TransposeStrided(tape.inputs + ((steps - 1) * d + j) * batch, x_stride,
                     steps, batch, xs + j * cols, steps);
  }
  for (size_t j = 0; j < hd; ++j) {
    float* row = hs + j * cols;
    if (steps > 1) {
      TransposeStrided(tape.hidden + (steps - 2) * state + j * batch,
                       -static_cast<std::ptrdiff_t>(state), steps - 1, batch,
                       row, steps);
    }
    for (size_t b = 0; b < batch; ++b) row[b * steps + steps - 1] = 0.0f;
  }
  // dW^T += operand · dpre_rows, k over the rows in order. The GEMM adds
  // onto its output, so the gradient is transposed out and back — exact
  // copies — rather than zero-filled and summed separately.
  float* grad_t = ws.Alloc(std::max(d, hd) * gate_rows);
  const auto accumulate = [&](Parameter& w, const float* operand,
                              size_t in) {
    Transpose(w.grad.data(), gate_rows, in, grad_t);
    kern.gemm(in, gate_rows, cols, operand, cols, dpre_rows, gate_rows,
              grad_t, gate_rows);
    Transpose(grad_t, in, gate_rows, w.grad.data());
  };
  accumulate(wx_, xs, d);
  accumulate(wh_, hs, hd);
  float* db = bias_.grad.data();
  for (size_t k = 0; k < cols; ++k) {
    const float* row = dpre_rows + k * gate_rows;
    for (size_t r = 0; r < gate_rows; ++r) db[r] += row[r];
  }
}

void Lstm::CollectParameters(ParameterRefs& out) {
  out.push_back(&wx_);
  out.push_back(&wh_);
  out.push_back(&bias_);
}

void Lstm::CollectParameters(ConstParameterRefs& out) const {
  out.push_back(&wx_);
  out.push_back(&wh_);
  out.push_back(&bias_);
}

}  // namespace eventhit::nn
