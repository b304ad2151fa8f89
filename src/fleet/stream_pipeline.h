// One stream's online loop (the paper's Fig. 1: collection window →
// EventHit → C-CLASSIFY/C-REGRESS → relay to the CI) with its auditor,
// recalibration loop, provenance ledger and digests, assembled in one
// place. StreamFleet::Run schedules many pipelines through its batcher;
// RunStreamSolo, `explain` and `evaluate --fault-profile` drive one inline.
// Whoever drives it, a stream's results depend only on its FleetConfig,
// StreamSettings, model and video (DESIGN.md §5g): completions replay the
// inline decision path in FIFO order, and the relay clock advances on each
// boundary's own anchor frame, never on a flush tick.
#ifndef EVENTHIT_FLEET_STREAM_PIPELINE_H_
#define EVENTHIT_FLEET_STREAM_PIPELINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adapt/recal_loop.h"
#include "cloud/cloud_service.h"
#include "cloud/relay.h"
#include "common/fnv.h"
#include "core/marshaller.h"
#include "core/strategies.h"
#include "data/record_extractor.h"
#include "eval/runner.h"
#include "fleet/stream_fleet.h"
#include "obs/audit.h"
#include "sim/fault_injector.h"
#include "sim/synthetic_video.h"

namespace eventhit::fleet {

/// Where a pipeline's components report. nullptr metrics/log select the
/// process-wide registry/logger; nullptr trace disables relay outage and
/// audit breach spans; `event_labels` (one per event) adds labeled
/// marshaller and audit series; `spend_microusd` is a shared spend
/// accountant in integer micro-USD.
struct PipelineSinks {
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceBuffer* trace = nullptr;
  obs::Logger* log = nullptr;
  std::vector<std::string> event_labels;
  std::atomic<int64_t>* spend_microusd = nullptr;
};

/// Where a boundary was scored (obs::kProvFlush* reason, residency in
/// ticks): recorded by the provenance ledger, folded into no digest.
struct BatchPlacement {
  int64_t batch_id = 0;
  int8_t flush_reason = obs::kProvFlushSolo;
  int64_t residency_ticks = 0;
};

class StreamPipeline {
 public:
  /// Local stream frame f is frame `first_frame + f` of `video`. `config`,
  /// `task`, `trained` and `video` must outlive the pipeline.
  StreamPipeline(const FleetConfig& config, StreamSettings settings,
                 const data::Task& task, const eval::TrainedEventHit& trained,
                 const sim::SyntheticVideo& video, int64_t first_frame,
                 const PipelineSinks& sinks);

  StreamPipeline(const StreamPipeline&) = delete;
  StreamPipeline& operator=(const StreamPipeline&) = delete;

  /// Pushes the stream's next frame. Returns true when it is a scored
  /// boundary: `*pending` then holds the window to score, and the boundary
  /// waits for Complete. Policy-skipped boundaries complete inside.
  /// Inline: the fleet calls it per stream per tick, and out of line it
  /// cost flush-free ticks 10-20%.
  bool PushFrame(data::Record* pending) {
    // Skip extraction on frames the policy proves no scored window reads.
    const float* features =
        marshaller_.NextFrameNeedsFeatures()
            ? video_.FrameFeatures(first_frame_ + next_frame_)
            : nullptr;
    const bool scored = marshaller_.PushFrameDeferred(features, pending);
    ++next_frame_;
    return scored;
  }

  /// Completes the oldest pending boundary (anchored at `anchor`) from its
  /// scores, deciding with this stream's own strategy.
  void Complete(int64_t anchor, const core::EventScores& scores,
                const BatchPlacement& placement);

  /// Settles the relay and the auditor once every pushed boundary has
  /// completed, and returns the stream's result.
  FleetStreamResult Finish();

  const StreamSettings& settings() const { return settings_; }
  int64_t next_frame() const { return next_frame_; }
  const cloud::CloudRelay& relay() const { return relay_; }

 private:
  void OnDelivery(const cloud::RelayDelivery& delivery);
  void OnCompletion(int64_t anchor, const core::MarshalDecision& decision);

  // The push phase reads these first members every frame.
  const StreamSettings settings_;
  int64_t next_frame_ = 0;
  const sim::SyntheticVideo& video_;
  const int64_t first_frame_;
  const FleetConfig& config_;
  const data::Task& task_;
  const eval::TrainedEventHit& trained_;
  const data::ExtractorConfig extractor_;
  std::atomic<int64_t>* const spend_microusd_;

  std::unique_ptr<obs::StreamProvenance> provenance_;  // nullptr: off.
  cloud::CloudService service_;
  std::unique_ptr<sim::FaultInjector> faults_;
  cloud::CloudRelay relay_;
  // Private: recalibration retunes only this stream's thresholds.
  core::EventHitStrategy strategy_;
  core::Marshaller marshaller_;
  obs::GuarantyAuditor auditor_;
  std::unique_ptr<adapt::RecalLoop> recal_;

  // Scores of the boundary inside Complete; nullptr for reused ones.
  const core::EventScores* completing_scores_ = nullptr;
  std::vector<obs::AuditOutcome> outcomes_;  // Per-boundary scratch.
  int64_t billed_microusd_ = 0;  // Spend already reported.
  int64_t last_miss_decision_ = -1;
  int64_t last_miscover_decision_ = -1;
  uint64_t decision_digest_ = kFnvOffset;
  uint64_t delivery_digest_ = kFnvOffset;
  StreamTranscript transcript_;
};

/// Drives `pipeline` to the end of its stream, scoring each boundary with
/// `model` at batch size 1 as it is pushed (bit-identical to any batching),
/// and finishes it.
FleetStreamResult RunInline(StreamPipeline& pipeline,
                            const core::EventHitModel& model);

}  // namespace eventhit::fleet

#endif  // EVENTHIT_FLEET_STREAM_PIPELINE_H_
