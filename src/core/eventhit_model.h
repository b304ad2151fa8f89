// The EventHit deep model (§III, Figure 3): a shared LSTM encoder over the
// collection window, a shared fully-connected + dropout layer producing the
// latent vector z, and one sigmoid-activated sub-network per event type
// emitting [b_k, theta_{k,1}, ..., theta_{k,H}].
//
// Training minimises L_Total = L1 + L2:
//   L1 — weighted BCE between b_k and 1[E_k in L_n];
//   L2 — for positive records, per-frame BCE between theta_{k,v} and frame
//        occupancy, weighted 1/|interval| inside the occurrence interval and
//        1/(H - |interval|) outside (the paper's normalisation), censored
//        occurrences clipped at the horizon end.
//
// Inference has one forward pass, PredictBatched, through the selected
// backend's kernel table; Predict is that pass at batch 1. The pass splits
// into the encoder (EncodeStep, one frame of many windows) and the heads
// (PredictHeads), so a stream can encode its window as the frames arrive.
#ifndef EVENTHIT_CORE_EVENTHIT_MODEL_H_
#define EVENTHIT_CORE_EVENTHIT_MODEL_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/eventhit_config.h"
#include "core/prediction.h"
#include "data/record.h"
#include "nn/adam.h"
#include "nn/backend.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/lstm.h"
#include "nn/mlp.h"
#include "nn/workspace.h"
#include "sched/cost_model.h"

namespace eventhit::core {

/// Per-epoch training diagnostics.
struct TrainEpochStats {
  double existence_loss = 0.0;  // L1, averaged over records.
  double occupancy_loss = 0.0;  // L2, averaged over records.
  double total_loss = 0.0;
  double grad_norm = 0.0;  // Mean pre-clip gradient norm across steps.
};

/// The trained/trainable EventHit network.
class EventHitModel {
 public:
  /// Initialises weights from config.seed. `config.feature_dim` and
  /// `config.num_events` must be set.
  explicit EventHitModel(const EventHitConfig& config);

  const EventHitConfig& config() const { return config_; }

  /// Trains end-to-end on `records` (their covariates must be
  /// M x feature_dim). Returns per-epoch statistics. Each minibatch runs as
  /// one batched forward and backward pass on the blocked kernel table,
  /// whatever the inference backend; the trained weights are bit-identical
  /// to a per-record loop over ForwardCached/Backward (DESIGN.md §5c).
  std::vector<TrainEpochStats> Train(const std::vector<data::Record>& records);

  /// Inference: raw scores for one record, by PredictBatched at batch 1 on
  /// a thread-local Workspace, so it scores exactly as any batch does under
  /// every backend. Warm, it allocates only the returned EventScores
  /// (tests/predict_alloc_test.cc).
  EventScores Predict(const data::Record& record) const;

  /// Selects the kernel backend used by Predict/PredictBatched
  /// (nn/backend.h; docs/BACKENDS.md). The choice survives Train and Load.
  /// Scores change across backends (within documented bounds), so conformal
  /// calibrators must be built from scores produced under the same backend
  /// they will guard — eval::TrainEventHit sets the backend before
  /// calibration for exactly this reason.
  void SetInferenceBackend(nn::BackendKind kind) { backend_kind_ = kind; }

  nn::BackendKind inference_backend() const { return backend_kind_; }

  /// Batched inference: scores `count` records in one pass through the
  /// GEMM path (nn/gemm.h) — covariates are gathered into a batch-minor
  /// buffer, the LSTM encoder runs two GEMMs per timestep for the whole
  /// batch, and PredictHeads scores the encodings. Scratch comes from `ws`
  /// (Reset per call); with a warm Workspace and `out` entries reused from
  /// an earlier call the pass makes no heap allocation
  /// (tests/predict_alloc_test.cc). Per record the results are the same
  /// bits at any batch size (summation-order contract, nn/matrix.h), and
  /// under scalar and blocked they are the per-record ForwardCached
  /// layers' bits.
  void PredictBatched(const data::Record* records, size_t count,
                      EventScores* out, nn::Workspace& ws) const;

  /// The encoder one frame at a time, for callers that encode collection
  /// windows as their frames arrive (fleet::StreamPipeline): advances
  /// `count` windows by one frame each. x ([feature_dim x count]) holds
  /// the frames; h and c ([lstm_hidden x count], batch-minor) the windows'
  /// LSTM states, updated in place. A window starts from h = c = 0 at its
  /// first frame; after its M-th its h is PredictBatched's encoding of that
  /// window bit for bit under every backend, whatever batches it was
  /// stepped in (nn::Lstm::Step). Scratch from `ws` (not reset).
  void EncodeStep(const float* x, size_t count, float* h, float* c,
                  nn::Workspace& ws) const;

  /// The rest of the forward pass, which PredictBatched ends with: scores
  /// `count` encoded windows from their final LSTM state h
  /// ([lstm_hidden x count]) and last frame x_last ([feature_dim x
  /// count]), both batch-minor, through the shared layer and the event
  /// heads into out[0..count). Scratch from `ws` (not reset).
  void PredictHeads(const float* h, const float* x_last, size_t count,
                    EventScores* out, nn::Workspace& ws) const;

  /// Number of trainable scalars.
  size_t ParameterCount() const;

  /// Persists / restores all weights.
  Status Save(const std::string& path) const;
  Status Load(const std::string& path);

 private:
  // Scratch of one Train call (arena, head tapes, loss buffers), reused
  // across its minibatches and freed when it returns.
  struct TrainScratch;

  // One minibatch, records[rows[0..count)]: batched forward, per-record
  // losses, batched backward. Accumulates the parameter gradients and adds
  // each record's L1 and L2 to `stats` in record order.
  void TrainMinibatch(const std::vector<data::Record>& records,
                      const size_t* rows, size_t count, Rng& rng,
                      TrainScratch& scratch, TrainEpochStats& stats);

  nn::ParameterRefs Parameters();
  nn::ConstParameterRefs Parameters() const;

  EventHitConfig config_;
  nn::Lstm lstm_;
  nn::Dense shared_fc_;
  nn::Dropout dropout_;
  std::vector<nn::Mlp> event_nets_;
  mutable Rng rng_;  // Dropout masks and shuffling during Train.
  nn::BackendKind backend_kind_ = nn::BackendKind::kBlocked;
};

/// Default batch size for PredictBatch (the `--predict-batch` CLI flag and
/// RunnerConfig::predict_batch override it). Large enough that the GEMM
/// path amortises weight streaming across the batch, small enough that the
/// per-thread scratch stays L2-resident for the paper's model shapes.
inline constexpr size_t kDefaultPredictBatch = 32;

/// Runs inference over every record through the batched GEMM path: records
/// are chunked into batches of `batch_size` and scored with
/// EventHitModel::PredictBatched, parallelized across chunks when `ctx` is
/// pooled (one Workspace per worker chunk). Results land in input order and
/// are bit-identical to the per-record serial loop at any batch size and
/// thread count (summation-order contract, nn/matrix.h). Instrumented with
/// the `predict.batch_size` histogram and one `nn.gemm` span per batch.
std::vector<EventScores> PredictBatch(const EventHitModel& model,
                                      const std::vector<data::Record>& records,
                                      const ExecutionContext& ctx = ExecutionContext(),
                                      size_t batch_size = kDefaultPredictBatch);

/// Local-compute rates of a marshaller that scores with a model of this
/// shape: the default per-frame extraction cost plus one forward pass
/// (sched::EstimateForwardMflops) per scored boundary. Fleet streams and
/// eval::WalkPolicy price their sched.flops.* accounting with it.
sched::LocalCostModel LocalCostModelFor(const EventHitConfig& config);

}  // namespace eventhit::core

#endif  // EVENTHIT_CORE_EVENTHIT_MODEL_H_
