#include "core/eventhit_model.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/check.h"
#include "nn/activations.h"
#include "nn/loss.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "obs/schema.h"
#include "obs/trace.h"

namespace eventhit::core {
namespace {

double WeightFor(const std::vector<double>& weights, size_t k) {
  if (weights.empty()) return 1.0;
  EVENTHIT_CHECK_LT(k, weights.size());
  return weights[k];
}

// Fills the L1/L2 targets and weights of event k for one record: logit 0
// is the existence score b_k, logits 1..H the per-frame occupancy theta.
void FillLossTargets(const data::EventLabel& label, size_t k,
                     const EventHitConfig& config, nn::Vec& targets,
                     nn::Vec& weights) {
  const auto horizon = static_cast<size_t>(config.horizon);
  // L1: existence BCE on b_k (logit index 0).
  targets[0] = label.present ? 1.0f : 0.0f;
  weights[0] = static_cast<float>(WeightFor(config.beta, k));

  // L2: per-frame BCE on theta (logit indices 1..H), positive records
  // only, with the paper's inside/outside normalisation.
  if (label.present) {
    EVENTHIT_CHECK_GE(label.start, 1);
    EVENTHIT_CHECK_LE(label.start, label.end);
    EVENTHIT_CHECK_LE(label.end, config.horizon);
    const double gamma = WeightFor(config.gamma, k);
    const auto inside = static_cast<double>(label.end - label.start + 1);
    const double outside = static_cast<double>(horizon) - inside;
    const auto w_in = static_cast<float>(gamma / inside);
    const auto w_out =
        outside > 0.0 ? static_cast<float>(gamma / outside) : 0.0f;
    for (size_t v = 1; v <= horizon; ++v) {
      const bool occupied = static_cast<int>(v) >= label.start &&
                            static_cast<int>(v) <= label.end;
      targets[v] = occupied ? 1.0f : 0.0f;
      weights[v] = occupied ? w_in : w_out;
    }
  } else {
    // Absent events contribute no L2 terms (1[E_k in L_n] gate).
    std::fill(targets.begin() + 1, targets.end(), 0.0f);
    std::fill(weights.begin() + 1, weights.end(), 0.0f);
  }
}

}  // namespace

EventHitModel::EventHitModel(const EventHitConfig& config)
    : config_(config), dropout_(config.dropout), rng_(config.seed) {
  EVENTHIT_CHECK_GT(config_.feature_dim, 0u);
  EVENTHIT_CHECK_GT(config_.num_events, 0u);
  EVENTHIT_CHECK_GT(config_.collection_window, 0);
  EVENTHIT_CHECK_GT(config_.horizon, 0);

  Rng init_rng(rng_.Fork(1));
  lstm_ = nn::Lstm("lstm", config_.feature_dim, config_.lstm_hidden, init_rng);
  shared_fc_ =
      nn::Dense("shared", config_.lstm_hidden, config_.shared_dim, init_rng);
  const size_t u_dim = config_.shared_dim + config_.feature_dim;
  const size_t out_dim = 1 + static_cast<size_t>(config_.horizon);
  event_nets_.reserve(config_.num_events);
  for (size_t k = 0; k < config_.num_events; ++k) {
    event_nets_.emplace_back("event" + std::to_string(k),
                             std::vector<size_t>{u_dim, config_.event_hidden,
                                                 out_dim},
                             init_rng);
  }
}

nn::ParameterRefs EventHitModel::Parameters() {
  nn::ParameterRefs params;
  lstm_.CollectParameters(params);
  shared_fc_.CollectParameters(params);
  for (nn::Mlp& net : event_nets_) net.CollectParameters(params);
  return params;
}

nn::ConstParameterRefs EventHitModel::Parameters() const {
  nn::ConstParameterRefs params;
  lstm_.CollectParameters(params);
  shared_fc_.CollectParameters(params);
  for (const nn::Mlp& net : event_nets_) net.CollectParameters(params);
  return params;
}

size_t EventHitModel::ParameterCount() const {
  return nn::ParameterCount(Parameters());
}

EventScores EventHitModel::Predict(const data::Record& record) const {
  // The arena is thread-local: Predict is const and called concurrently
  // from calibration workers.
  thread_local nn::Workspace ws;
  EventScores out;
  PredictBatched(&record, 1, &out, ws);
  return out;
}

void EventHitModel::PredictBatched(const data::Record* records, size_t count,
                                   EventScores* out,
                                   nn::Workspace& ws) const {
  EVENTHIT_CHECK_GT(count, 0u);
  const auto steps = static_cast<size_t>(config_.collection_window);
  const size_t d = config_.feature_dim;
  for (size_t b = 0; b < count; ++b) {
    EVENTHIT_CHECK_EQ(records[b].covariates.size(), steps * d);
  }
  ws.Reset();
  // Kernel dispatch (nn/backend.h): every blocked flavour computes the
  // scalar table's bits, so the default scores are machine-invariant.
  const nn::Backend& backend = nn::GetBackend(backend_kind_);

  // Gather covariates batch-minor: element (t, feature j, record b) at
  // x[(t*d + j)*count + b], so every downstream op streams unit-stride
  // over the batch.
  float* x = ws.Alloc(steps * d * count);
  for (size_t b = 0; b < count; ++b) {
    const float* cov = records[b].covariates.data();
    for (size_t td = 0; td < steps * d; ++td) x[td * count + b] = cov[td];
  }

  float* h = ws.Alloc(lstm_.hidden_dim() * count);
  lstm_.ForwardBatch(x, steps, count, h, ws, backend);
  // The last timestep's block is x_last, already batch-minor.
  PredictHeads(h, x + (steps - 1) * d * count, count, out, ws);
}

void EventHitModel::EncodeStep(const float* x, size_t count, float* h,
                               float* c, nn::Workspace& ws) const {
  lstm_.Step(x, count, h, c, ws, nn::GetBackend(backend_kind_));
}

void EventHitModel::PredictHeads(const float* h, const float* x_last,
                                 size_t count, EventScores* out,
                                 nn::Workspace& ws) const {
  EVENTHIT_CHECK_GT(count, 0u);
  const nn::Backend& backend = nn::GetBackend(backend_kind_);
  const size_t d = config_.feature_dim;
  const size_t z_rows = shared_fc_.out_dim();
  float* z = ws.Alloc(z_rows * count);
  shared_fc_.ForwardBatch(h, count, z, backend);
  backend.kernels->tanh_inplace(z, z_rows * count);

  // u = z ++ x_last per record (Fig. 3), still batch-minor.
  const size_t u_rows = z_rows + d;
  float* u = ws.Alloc(u_rows * count);
  std::memcpy(u, z, z_rows * count * sizeof(float));
  std::memcpy(u + z_rows * count, x_last, d * count * sizeof(float));

  const auto horizon = static_cast<size_t>(config_.horizon);
  const size_t out_dim = 1 + horizon;
  float* logits = ws.Alloc(out_dim * count);
  for (size_t b = 0; b < count; ++b) {
    out[b].existence.resize(config_.num_events);
    out[b].occupancy.resize(config_.num_events);
  }
  for (size_t k = 0; k < config_.num_events; ++k) {
    event_nets_[k].ForwardBatch(u, count, logits, ws, backend);
    // One vectorized sigmoid pass over the whole [out_dim x count] block
    // (same per-element function as the scalar path), then a plain scatter.
    backend.kernels->sigmoid_inplace(logits, out_dim * count);
    for (size_t b = 0; b < count; ++b) {
      out[b].existence[k] = logits[b];
      auto& theta = out[b].occupancy[k];
      theta.resize(horizon);
      for (size_t v = 0; v < horizon; ++v) {
        theta[v] = logits[(1 + v) * count + b];
      }
    }
  }
}

struct EventHitModel::TrainScratch {
  nn::Workspace ws;
  std::vector<nn::Mlp::BatchTape> head_tapes;
  // One record's logits, targets, weights and logit gradients.
  nn::Vec logits, targets, weights, dlogits;
  // Per-record L1 and L2 of the current minibatch, summed over events.
  std::vector<double> existence, occupancy;
};

void EventHitModel::TrainMinibatch(const std::vector<data::Record>& records,
                                   const size_t* rows, size_t count, Rng& rng,
                                   TrainScratch& scratch,
                                   TrainEpochStats& stats) {
  const auto steps = static_cast<size_t>(config_.collection_window);
  const size_t d = config_.feature_dim;
  for (size_t b = 0; b < count; ++b) {
    const data::Record& record = records[rows[b]];
    EVENTHIT_CHECK_EQ(record.labels.size(), config_.num_events);
    EVENTHIT_CHECK_EQ(record.covariates.size(), steps * d);
  }
  nn::Workspace& ws = scratch.ws;
  ws.Reset();
  // Always the blocked table: its bits are the per-record path's on every
  // host, which is what keeps the trained weights machine-invariant.
  const nn::Backend& blocked = nn::GetBackend(nn::BackendKind::kBlocked);

  // --- Forward (training mode), batch-minor as in PredictBatched ---
  float* x = ws.Alloc(steps * d * count);
  for (size_t b = 0; b < count; ++b) {
    const float* cov = records[rows[b]].covariates.data();
    for (size_t td = 0; td < steps * d; ++td) x[td * count + b] = cov[td];
  }
  const size_t hd = lstm_.hidden_dim();
  float* h = ws.Alloc(hd * count);
  nn::Lstm::BatchTape lstm_tape;
  lstm_.ForwardBatch(x, steps, count, h, ws, blocked, &lstm_tape);
  const size_t z_rows = shared_fc_.out_dim();
  float* z = ws.Alloc(z_rows * count);
  shared_fc_.ForwardBatch(h, count, z, blocked);
  blocked.kernels->tanh_inplace(z, z_rows * count);

  // u = dropout(z) ++ x_last. Dropout, train_rng's only consumer, draws
  // record by record, so the rng sequence is the per-record loop's.
  const size_t u_rows = z_rows + d;
  float* u = ws.Alloc(u_rows * count);
  float* mask = ws.Alloc(z_rows * count);
  dropout_.ForwardTrainBatch(z, z_rows, count, rng, u, mask);
  const size_t last_offset = (steps - 1) * d;
  for (size_t j = 0; j < d; ++j) {
    float* row = u + (z_rows + j) * count;
    for (size_t b = 0; b < count; ++b) {
      row[b] = records[rows[b]].covariates[last_offset + j];
    }
  }

  // --- Event heads: per-record losses, batched backward into du ---
  // du accumulates head by head in event order, as the per-record loop's
  // running du does.
  const auto horizon = static_cast<size_t>(config_.horizon);
  const size_t out_dim = 1 + horizon;
  float* logits = ws.Alloc(out_dim * count);
  float* dlogits = ws.Alloc(out_dim * count);
  float* du = ws.Alloc(u_rows * count);
  std::fill(du, du + u_rows * count, 0.0f);
  scratch.existence.assign(count, 0.0);
  scratch.occupancy.assign(count, 0.0);
  for (size_t k = 0; k < config_.num_events; ++k) {
    nn::Mlp& net = event_nets_[k];
    nn::Mlp::BatchTape& tape = scratch.head_tapes[k];
    net.ForwardBatch(u, count, logits, ws, blocked, &tape);
    for (size_t b = 0; b < count; ++b) {
      for (size_t v = 0; v < out_dim; ++v) {
        scratch.logits[v] = logits[v * count + b];
      }
      FillLossTargets(records[rows[b]].labels[k], k, config_, scratch.targets,
                      scratch.weights);
      scratch.existence[b] +=
          nn::BceWithLogits(scratch.logits[0], scratch.targets[0],
                            scratch.weights[0], &scratch.dlogits[0]);
      scratch.occupancy[b] += nn::BceWithLogitsVector(
          scratch.logits.data() + 1, scratch.targets.data() + 1,
          scratch.weights.data() + 1, horizon, scratch.dlogits.data() + 1);
      for (size_t v = 0; v < out_dim; ++v) {
        dlogits[v * count + b] = scratch.dlogits[v];
      }
    }
    net.BackwardBatch(tape, u, dlogits, count, du, ws);
  }

  // --- Backward through the shared trunk ---
  // du splits into the z part (through dropout and tanh) and x_last (input
  // data; no gradient needed).
  float* dz = ws.Alloc(z_rows * count);
  for (size_t i = 0; i < z_rows * count; ++i) dz[i] = du[i] * mask[i];
  nn::TanhBackward(z, dz, dz, z_rows * count);
  float* dh = ws.Alloc(hd * count);
  std::fill(dh, dh + hd * count, 0.0f);
  shared_fc_.BackwardBatch(h, dz, count, dh, ws);
  lstm_.BackwardBatch(lstm_tape, dh, ws);

  for (size_t b = 0; b < count; ++b) {
    stats.existence_loss += scratch.existence[b];
    stats.occupancy_loss += scratch.occupancy[b];
  }
}

std::vector<TrainEpochStats> EventHitModel::Train(
    const std::vector<data::Record>& records) {
  EVENTHIT_CHECK(!records.empty());
  nn::AdamOptions adam_options;
  adam_options.learning_rate = config_.learning_rate;
  adam_options.clip_norm = config_.grad_clip_norm;
  nn::AdamOptimizer optimizer(Parameters(), adam_options);

  Rng train_rng(rng_.Fork(2));
  std::vector<size_t> order(records.size());
  std::iota(order.begin(), order.end(), 0);

  TrainScratch scratch;
  scratch.head_tapes.resize(config_.num_events);
  const size_t out_dim = 1 + static_cast<size_t>(config_.horizon);
  for (nn::Vec* v : {&scratch.logits, &scratch.targets, &scratch.weights,
                     &scratch.dlogits}) {
    v->resize(out_dim);
  }

  std::vector<TrainEpochStats> history;
  const auto batch = static_cast<size_t>(std::max(config_.batch_size, 1));
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    train_rng.Shuffle(order);
    TrainEpochStats stats;
    size_t steps = 0;
    for (size_t begin = 0; begin < order.size(); begin += batch) {
      const size_t end = std::min(begin + batch, order.size());
      TrainMinibatch(records, order.data() + begin, end - begin, train_rng,
                     scratch, stats);
      nn::ScaleGradients(Parameters(), 1.0f / static_cast<float>(end - begin));
      stats.grad_norm += optimizer.Step();
      ++steps;
    }
    const auto n = static_cast<double>(records.size());
    stats.existence_loss /= n;
    stats.occupancy_loss /= n;
    stats.total_loss = stats.existence_loss + stats.occupancy_loss;
    stats.grad_norm /= static_cast<double>(std::max<size_t>(steps, 1));
    history.push_back(stats);
  }
  return history;
}

Status EventHitModel::Save(const std::string& path) const {
  return nn::SaveParameters(Parameters(), path);
}

Status EventHitModel::Load(const std::string& path) {
  return nn::LoadParameters(Parameters(), path);
}

std::vector<EventScores> PredictBatch(const EventHitModel& model,
                                      const std::vector<data::Record>& records,
                                      const ExecutionContext& ctx,
                                      size_t batch_size) {
  EVENTHIT_CHECK_GT(batch_size, 0u);
  std::vector<EventScores> scores(records.size());
  if (records.empty()) return scores;
  // Registration is mutex-guarded setup; the hot loop reuses the pointer.
  static obs::Histogram* batch_hist =
      obs::MetricsRegistry::Global().GetHistogram(
          obs::names::kPredictBatchSize, obs::BatchSizeBounds());
  const size_t num_batches = (records.size() + batch_size - 1) / batch_size;
  // Each batch writes its own slot range, so chunking over batches keeps
  // results in input order and byte-identical to the serial loop.
  auto run_batches = [&](size_t first_batch, size_t end_batch,
                         nn::Workspace& ws) {
    for (size_t bi = first_batch; bi < end_batch; ++bi) {
      const size_t begin = bi * batch_size;
      const size_t count = std::min(batch_size, records.size() - begin);
      obs::TraceSpan span(obs::names::kSpanNnGemm);
      model.PredictBatched(records.data() + begin, count,
                           scores.data() + begin, ws);
      batch_hist->Observe(static_cast<double>(count));
    }
  };
  if (ctx.pool() != nullptr) {
    ctx.pool()->ParallelForChunked(
        num_batches, [&](int, size_t chunk_begin, size_t chunk_end) {
          // One arena per worker chunk: warm after its first batch, never
          // shared across threads (Workspace ownership, DESIGN.md §5e).
          nn::Workspace ws;
          run_batches(chunk_begin, chunk_end, ws);
        });
  } else {
    nn::Workspace ws;
    run_batches(0, num_batches, ws);
  }
  return scores;
}

sched::LocalCostModel LocalCostModelFor(const EventHitConfig& config) {
  sched::LocalCostModel cost;
  cost.forward_mflops_per_boundary = sched::EstimateForwardMflops(
      config.collection_window, static_cast<int>(config.feature_dim),
      static_cast<int>(config.lstm_hidden), static_cast<int>(config.shared_dim),
      static_cast<int>(config.event_hidden),
      static_cast<int>(config.num_events), config.horizon);
  return cost;
}

}  // namespace eventhit::core
