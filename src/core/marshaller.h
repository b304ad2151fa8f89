// Streaming deployment wrapper: consumes a video stream frame by frame,
// maintains the collection window, runs an EventHit strategy at every
// horizon boundary, and relays the predicted occurrence intervals to the
// cloud service — the online loop of Figure 1, as a reusable component.
#ifndef EVENTHIT_CORE_MARSHALLER_H_
#define EVENTHIT_CORE_MARSHALLER_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/vector_fifo.h"
#include "core/prediction.h"
#include "nn/matrix.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "sched/collect_policy.h"
#include "sched/cost_model.h"

namespace eventhit::core {

/// One relay order produced by the marshaller: absolute stream frames to
/// send to the CI for one event type.
struct RelayOrder {
  size_t event = 0;             // Index within the strategy's event list.
  sim::Interval frames;         // Absolute stream frame interval.
  int64_t anchor = 0;           // Prediction boundary that issued the order.
};

/// Statistics of a marshalling session.
struct MarshallerStats {
  int64_t frames_seen = 0;
  int64_t horizons_predicted = 0;
  int64_t frames_relayed = 0;   // Union over events per horizon.
  int64_t relay_orders = 0;
  // Collection scheduling (sched/collect_policy.h). With no policy every
  // boundary is scored and every frame is charged to frames_scored;
  // horizons_predicted always counts scored + reused completions.
  int64_t horizons_reused = 0;  // Boundaries that replayed the last decision.
  int64_t frames_scored = 0;    // Frames charged feature-extraction cost.
  int64_t frames_skipped = 0;   // Frames whose extraction the policy saved.
  // The MFLOPs fields are the stream's exact running totals, rounded.
  int64_t local_mflops = 0;     // Estimated local compute actually spent.
  int64_t saved_mflops = 0;     // Estimated local compute avoided.
};

/// The marshaller's telemetry handles on one registry, resolved once per
/// registry (obs::MetricsRegistry::HandleSet) and shared by every
/// marshaller that reports there.
struct MarshallerMetrics {
  explicit MarshallerMetrics(obs::MetricsRegistry& registry);
  /// The registry's set; nullptr selects obs::MetricsRegistry::Global().
  static const MarshallerMetrics& Of(obs::MetricsRegistry* registry);

  obs::Counter* frames_total;
  obs::Counter* frames_relayed;
  obs::Counter* frames_filtered;
  obs::Counter* horizons;
  obs::Counter* relay_orders;
  obs::Counter* events_present;
  obs::Counter* events_absent;
  obs::Histogram* order_frames;
  obs::Counter* sched_horizons_scored;
  obs::Counter* sched_horizons_reused;
  obs::Counter* sched_frames_scored;
  obs::Counter* sched_frames_skipped;
  obs::Counter* sched_flops_local;
  obs::Counter* sched_flops_saved;
  obs::Gauge* sched_stride;
};

/// The `{event_type=label}` series of one event type on one registry.
struct MarshallerEventMetrics {
  MarshallerEventMetrics(obs::MetricsRegistry& registry,
                         const std::string& label);

  obs::Counter* present;
  obs::Counter* absent;
  obs::Counter* orders;
  obs::Histogram* order_frames;
};

/// Frame-by-frame driver around a MarshalStrategy.
///
/// Usage:
///   Marshaller marshaller(&strategy, M, H, D);
///   for each frame f: marshaller.PushFrame(features_of(f));
/// Relay orders are delivered through the callback passed to PushFrame's
/// owner via `set_relay_callback`, at every horizon boundary once the
/// collection window has filled.
class Marshaller {
 public:
  using RelayCallback = std::function<void(const RelayOrder&)>;
  /// Fired at the end of every completed prediction boundary — scored
  /// (fresh decision from the strategy) and reused (a policy skip that
  /// replayed the last decision) alike, in stream order. `anchor` is the
  /// boundary's absolute frame.
  using DecisionCallback = std::function<void(
      int64_t anchor, const MarshalDecision& decision, bool reused)>;

  /// `strategy` must outlive the marshaller. `collection_window` = M,
  /// `horizon` = H, `feature_dim` = D of the per-frame feature vectors.
  /// Telemetry goes to `metrics` (docs/TELEMETRY.md, marshaller.* names);
  /// nullptr selects obs::MetricsRegistry::Global(). Counters uphold the
  /// frame-accounting invariant
  ///   marshaller.frames.relayed + marshaller.frames.filtered
  ///     == marshaller.frames.total
  /// at every prediction boundary (see obs/schema.h).
  /// When `event_labels` is non-empty (one display name per event index;
  /// short entries fall back to "event<k>") the per-event counters and
  /// the order-size histogram additionally register `{event_type=...}`
  /// labeled series, so prediction mix and relay volume can be sliced per
  /// event type. The unlabeled totals are always kept.
  Marshaller(const MarshalStrategy* strategy, int collection_window,
             int horizon, size_t feature_dim, size_t num_events,
             obs::MetricsRegistry* metrics = nullptr,
             std::vector<std::string> event_labels = {});

  /// Registers the sink for relay orders (e.g. a CloudService adapter).
  void set_relay_callback(RelayCallback callback);

  /// Registers the per-completion observer (fleet digests/audit).
  void set_decision_callback(DecisionCallback callback);

  /// Installs a collection policy (sched/collect_policy.h). The
  /// marshaller takes ownership; nullptr (the default) scores every
  /// boundary — the legacy full-rate path, byte-identical to pre-policy
  /// behaviour. With a policy installed, every pending deferred
  /// prediction must complete before the next boundary arrives (the
  /// policy's schedule depends on the completed scores), which any
  /// batcher whose flush deadline is shorter than one horizon satisfies.
  /// A policy needs M <= H: the feature skip and the idle rule look at the
  /// next boundary only, which is exact when no two windows overlap.
  void set_collect_policy(std::unique_ptr<sched::CollectPolicy> policy);

  /// Cost rates behind the sched.flops.* accounting (defaults model
  /// feature extraction only).
  void set_cost_model(const sched::LocalCostModel& cost);

  /// Attaches the decision-provenance ledger (obs/provenance.h). Non-
  /// owning; nullptr (the default) disables stamping — every call site is
  /// one inlined pointer check, so the disabled hot path is untouched.
  /// The marshaller opens each boundary's record at push time and stamps
  /// the sched + decision fields at completion; the fleet/relay/auditor
  /// layers stamp theirs through the same ledger.
  void set_provenance(obs::StreamProvenance* provenance) {
    provenance_ = provenance;
  }
  obs::StreamProvenance* provenance() const { return provenance_; }

  /// The stream pushes `frames` frames in all (default: unbounded). A
  /// boundary at or past that never fires, so NextFrameNeedsFeatures() is
  /// false on the frames only its window would hold.
  void set_stream_frames(int64_t frames) { stream_frames_ = frames; }

  /// Feeds the features of the next stream frame (feature_dim floats).
  /// Returns true when this frame triggered an inference-backed
  /// prediction (a policy-skipped boundary replays the last decision
  /// internally and returns false).
  bool PushFrame(const float* features);

  /// Two-phase (deferred-decision) form of PushFrame for callers that batch
  /// inference across streams (src/fleet/). Returns true when this frame is
  /// a scored prediction boundary, in which case `*pending` is filled with
  /// the anchored covariate window (labels zeroed — unknown at inference;
  /// frame set to the local anchor frame) and the prediction is queued as
  /// pending. The caller scores the record — e.g. through a cross-stream
  /// PredictBatch — and finishes the horizon with CompletePrediction.
  /// Several predictions may be pending at once (a batcher holding requests
  /// past one horizon); they must be completed in FIFO order.
  /// A boundary the collection policy skips completes inline by replaying
  /// the last decision (re-anchored at this boundary) and returns false.
  /// `features` may be nullptr only when NextFrameNeedsFeatures() is
  /// false: the frame advances the stream clock without touching the
  /// window ring.
  bool PushFrameDeferred(const float* features, data::Record* pending);

  /// PushFrameDeferred for a caller that encodes each collection window
  /// itself as its frames arrive (fleet::StreamPipeline): the same
  /// boundaries, schedule, pending queue and completions, with no feature
  /// ring and no window copy. The caller extracts a frame exactly when
  /// NextFrameNeedsFeatures() holds before its push. Returns true at a
  /// scored boundary, which then waits for CompletePrediction.
  bool AdvanceFrame();

  /// Applies a strategy decision to the oldest pending prediction from
  /// PushFrameDeferred or AdvanceFrame: relay orders, stats, metrics — the exact code path
  /// PushFrame runs inline, so a deferred decision is byte-identical to
  /// the inline one given the same scores. Requires a pending prediction.
  void CompletePrediction(const MarshalDecision& decision);

  /// Whether the *next* pushed frame's features can end up inside a scored
  /// collection window — callers skip feature extraction (and pass
  /// nullptr) when false. Without a policy it is exactly the frames within
  /// M of the next boundary (local frame f with f mod H < M when M <= H).
  /// Under a fixed schedule (sched::CollectPolicy::FixedStride: full and
  /// duty) it is exact at all times: the frames within M of the next
  /// boundary when that boundary is scored, none otherwise. Under a policy
  /// whose schedule feeds on scores (adaptive) it is conservative while a
  /// scored prediction is pending and exact otherwise. Either way the
  /// extracted set covers the consumed set and decisions are independent
  /// of completion timing. False on every frame whose next boundary lies
  /// at or past set_stream_frames().
  /// Skipping moves no accounting: MarshallerStats and the sched.* counters
  /// follow the boundary schedule, not the frames passed, so without a
  /// policy every frame is still charged extraction.
  bool NextFrameNeedsFeatures() const;

  /// Upcoming frames that are neither a boundary nor inside any window a
  /// boundary could read: every frame before next_prediction_frame() − M + 1,
  /// or every frame left up to set_stream_frames() when the next boundary
  /// lies at or past it. Under a fixed schedule an unscored boundary reads
  /// no window, so every frame before the boundary frame itself (where the
  /// reused completion fires) is idle. A function of the boundary schedule
  /// alone, so no completion, adaptive verdict or recalibration can
  /// shrink it.
  int64_t IdleFramesAhead() const;

  /// Advances the stream clock over `n` <= IdleFramesAhead() frames exactly
  /// as `n` pushes without features would (they touch only the frame
  /// count), in O(1).
  void SkipIdleFrames(int64_t n);

  /// Prediction boundaries pushed but not yet completed.
  size_t pending_predictions() const { return pending_anchors_.size(); }

  /// Decision made at the most recent prediction point (empty before the
  /// first prediction).
  const MarshalDecision& last_decision() const { return last_decision_; }

  const MarshallerStats& stats() const { return stats_; }

  /// The absolute frame index of the next prediction point.
  int64_t next_prediction_frame() const { return next_boundary_; }

 private:
  void CompletePredictionInternal(const MarshalDecision& decision,
                                  bool reused);
  // Whether boundary `horizon_index` runs inference, as of now. Under a
  // fixed schedule the index alone decides, so the verdict holds before
  // any pending prediction completes.
  bool ScoresBoundary(int64_t horizon_index) const;

  const MarshalStrategy* strategy_;
  int collection_window_;
  int horizon_;
  size_t feature_dim_;
  size_t num_events_;
  RelayCallback relay_callback_;
  DecisionCallback decision_callback_;
  std::unique_ptr<sched::CollectPolicy> policy_;
  // policy_->FixedStride(), 1 without a policy: 0 when scores steer the
  // schedule.
  int64_t fixed_stride_ = 1;
  // Cached policy_->name() ("full" without a policy): the provenance
  // stamp runs per boundary and must not allocate.
  std::string policy_name_ = "full";
  sched::LocalCostModel cost_;
  obs::StreamProvenance* provenance_ = nullptr;

  // Ring buffer of the last M frames' features (row-major M x D, logical
  // order reconstructed at prediction time); empty until the first frame
  // PushFrameDeferred writes.
  std::vector<float> ring_;
  int64_t frame_count_ = 0;
  // The first boundary at or after frame_count_. Predictions fire once
  // the window has filled and every H frames afterwards: M-1, M-1+H, ...
  int64_t next_boundary_;
  int64_t stream_frames_ = std::numeric_limits<int64_t>::max();

  // Boundaries pushed / completed so far (the policy's horizon index).
  int64_t boundaries_seen_ = 0;
  int64_t boundaries_completed_ = 0;

  // Anchor frames of deferred predictions awaiting CompletePrediction.
  VectorFifo<int64_t> pending_anchors_;
  // One boundary's relayed intervals (per-boundary scratch).
  std::vector<sim::Interval> relayed_;

  MarshalDecision last_decision_;
  MarshallerStats stats_;
  // Unrounded sched.flops.* totals behind stats_.local/saved_mflops.
  double local_mflops_total_ = 0.0;
  double saved_mflops_total_ = 0.0;

  // Telemetry handles (valid for the registry's lifetime).
  const MarshallerMetrics* metrics_;
  // Per-event labeled series (empty when no event labels were given).
  std::vector<const MarshallerEventMetrics*> by_event_;
};

}  // namespace eventhit::core

#endif  // EVENTHIT_CORE_MARSHALLER_H_
