#include "nn/dense.h"

#include "common/check.h"

namespace eventhit::nn {

Dense::Dense(std::string name, size_t in_dim, size_t out_dim, Rng& rng)
    : weight_(name + ".W", Matrix::GlorotUniform(out_dim, in_dim, rng)),
      bias_(name + ".b", Matrix::Zeros(out_dim, 1)) {
  EVENTHIT_CHECK_GT(in_dim, 0u);
  EVENTHIT_CHECK_GT(out_dim, 0u);
}

void Dense::Forward(const float* x, Vec& y) const {
  y.resize(out_dim());
  MatVec(weight_.value, x, y.data());
  const float* b = bias_.value.data();
  for (size_t i = 0; i < y.size(); ++i) y[i] += b[i];
}

void Dense::ForwardBatch(const float* x, size_t batch, float* y,
                         const Backend& backend) const {
  EVENTHIT_CHECK_GT(batch, 0u);
  const size_t out = out_dim();
  backend.kernels->gemm_zero(out, batch, in_dim(), weight_.value.data(),
                             in_dim(), x, batch, y, batch);
  const float* b = bias_.value.data();
  for (size_t i = 0; i < out; ++i) {
    float* row = y + i * batch;
    for (size_t j = 0; j < batch; ++j) row[j] += b[i];
  }
}

void Dense::Backward(const float* x, const float* dy, float* dx) {
  OuterAccum(weight_.grad, dy, x);
  float* db = bias_.grad.data();
  for (size_t i = 0; i < out_dim(); ++i) db[i] += dy[i];
  if (dx != nullptr) {
    MatTVecAccum(weight_.value, dy, dx);
  }
}

void Dense::BackwardBatch(const float* x, const float* dy, size_t batch,
                          float* dx, Workspace& ws) {
  EVENTHIT_CHECK_GT(batch, 0u);
  const size_t in = in_dim();
  const size_t out = out_dim();
  const BackendKernels& kern = *GetBackend(BackendKind::kBlocked).kernels;
  // Backward skips a zero dy row; the GEMMs add its ±0 products instead,
  // which leaves a sum that started at +0 unchanged (DESIGN.md §5e).
  float* x_rows = ws.Alloc(batch * in);
  Transpose(x, in, batch, x_rows);
  kern.gemm(out, in, batch, dy, batch, x_rows, in, weight_.grad.data(), in);
  float* db = bias_.grad.data();
  for (size_t i = 0; i < out; ++i) {
    const float* row = dy + i * batch;
    for (size_t b = 0; b < batch; ++b) db[i] += row[b];
  }
  if (dx != nullptr) {
    float* w_t = ws.Alloc(in * out);
    Transpose(weight_.value.data(), out, in, w_t);
    kern.gemm(in, batch, out, w_t, out, dy, batch, dx, batch);
  }
}

void Dense::CollectParameters(ParameterRefs& out) {
  out.push_back(&weight_);
  out.push_back(&bias_);
}

void Dense::CollectParameters(ConstParameterRefs& out) const {
  out.push_back(&weight_);
  out.push_back(&bias_);
}

}  // namespace eventhit::nn
