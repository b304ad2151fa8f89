#include "fleet/stream_pipeline.h"

#include <cmath>
#include <utility>

#include "common/check.h"
#include "core/audit_feed.h"
#include "nn/backend.h"
#include "nn/workspace.h"
#include "sched/collect_policy.h"

namespace eventhit::fleet {
namespace {

core::EventHitStrategyOptions StrategyOptions(const FleetConfig& config) {
  core::EventHitStrategyOptions options;
  options.use_cclassify = true;
  options.use_cregress = true;
  options.confidence = config.confidence;
  options.coverage = config.coverage;
  return options;
}

std::unique_ptr<sim::FaultInjector> MakeFaults(const FleetConfig& config,
                                               uint64_t fault_seed) {
  if (config.fault_profile.empty() || config.fault_profile == "none") {
    return nullptr;
  }
  auto profile = sim::MakeFaultProfile(config.fault_profile, fault_seed);
  EVENTHIT_CHECK_OK(profile.status());
  return std::make_unique<sim::FaultInjector>(profile.value());
}

cloud::RelayConfig MakeRelayConfig(const FleetConfig& config, int horizon) {
  cloud::RelayConfig relay_config;
  relay_config.degraded_mode = config.degraded_mode;
  relay_config.replay_horizon_frames = horizon;
  return relay_config;
}

obs::AuditConfig MakeAuditConfig(const FleetConfig& config,
                                 const StreamSettings& settings,
                                 const PipelineSinks& sinks) {
  obs::AuditConfig audit_config;
  audit_config.confidence = config.confidence;
  audit_config.coverage = config.coverage;
  audit_config.sim_tid = settings.stream_index;
  audit_config.event_labels = sinks.event_labels;
  return audit_config;
}

}  // namespace

StreamPipeline::StreamPipeline(const FleetConfig& config,
                               StreamSettings settings,
                               const data::Task& task,
                               const eval::TrainedEventHit& trained,
                               const sim::SyntheticVideo& video,
                               int64_t first_frame,
                               const PipelineSinks& sinks)
    : settings_(std::move(settings)),
      video_(video),
      first_frame_(first_frame),
      config_(config),
      task_(task),
      trained_(trained),
      extractor_{settings_.spec.collection_window, settings_.spec.horizon},
      spend_microusd_(sinks.spend_microusd),
      provenance_(config.provenance
                      ? std::make_unique<obs::StreamProvenance>(
                            settings_.stream_index,
                            settings_.spec.collection_window,
                            settings_.spec.horizon, config.provenance_ring)
                      : nullptr),
      service_(&video, cloud::CloudConfig{}, settings_.cloud_seed,
               sinks.metrics),
      faults_(MakeFaults(config, settings_.fault_seed)),
      relay_(&service_, MakeRelayConfig(config, settings_.spec.horizon),
             settings_.relay_seed, faults_.get(), sinks.metrics, sinks.trace,
             sinks.log),
      strategy_(trained.model.get(), trained.cclassify.get(),
                trained.cregress.get(), StrategyOptions(config)),
      marshaller_(&strategy_, settings_.spec.collection_window,
                  settings_.spec.horizon, video.feature_dim(),
                  task.event_indices.size(), sinks.metrics,
                  sinks.event_labels),
      auditor_(MakeAuditConfig(config, settings_, sinks), sinks.metrics,
               sinks.trace, sinks.log),
      recal_(config.recal ? std::make_unique<adapt::RecalLoop>(
                                trained.model.get(), &strategy_,
                                &auditor_, config.recal_config,
                                sinks.metrics)
                          : nullptr) {
  relay_.set_delivery_callback(
      [this](const cloud::RelayDelivery& delivery) { OnDelivery(delivery); });
  marshaller_.set_provenance(provenance_.get());
  // No frame past the last boundary is read, so a windowed video need not
  // store the partial window after it (fleet::StreamVideoSelection).
  marshaller_.set_stream_frames(settings_.push_frames);
  // Orders carry their own anchor (reused completions fire inside
  // PushFrame). The cloud reads the dataset's event index, not the
  // task-local order.event.
  marshaller_.set_relay_callback([this](const core::RelayOrder& order) {
    const cloud::RelayResult result = relay_.Submit(
        task_.event_indices[order.event],
        {order.frames.start + first_frame_, order.frames.end + first_frame_},
        order.anchor);
    if (provenance_ != nullptr) {
      provenance_->StampRelay(order.anchor, result.attempts,
                              static_cast<int8_t>(result.outcome),
                              static_cast<int8_t>(relay_.breaker_state()));
    }
  });
  // Scored and policy-reused boundaries share this path, in stream order.
  marshaller_.set_decision_callback(
      [this](int64_t anchor, const core::MarshalDecision& decision,
             bool /*reused*/) { OnCompletion(anchor, decision); });
  if (config.runner.collect_policy.kind != sched::CollectPolicyKind::kFull) {
    // The policy's schedule feeds on completed scores, so batching delay
    // must stay under one horizon (Marshaller::set_collect_policy).
    EVENTHIT_CHECK_LT(config.max_batch_delay_ticks,
                      static_cast<int64_t>(settings_.spec.horizon));
    marshaller_.set_collect_policy(
        sched::MakeCollectPolicy(config.runner.collect_policy));
    marshaller_.set_cost_model(
        core::LocalCostModelFor(trained.model->config()));
  }
}

void StreamPipeline::Complete(int64_t anchor, const core::EventScores& scores,
                              const BatchPlacement& placement) {
  // Stamped at scoring time: a later recal swap must not show here.
  if (provenance_ != nullptr) {
    provenance_->StampBatch(anchor, placement.batch_id,
                            placement.flush_reason,
                            placement.residency_ticks);
    provenance_->StampInference(
        anchor, nn::BackendKindName(trained_.model->inference_backend()),
        strategy_.calibrator_generation());
  }
  completing_scores_ = &scores;
  marshaller_.CompletePrediction(strategy_.DecideFromScores(scores));
  completing_scores_ = nullptr;
}

void StreamPipeline::OnDelivery(const cloud::RelayDelivery& delivery) {
  uint64_t h = delivery_digest_;
  h = FnvU64(h, static_cast<uint64_t>(delivery.request_id));
  h = FnvU64(h, delivery.event);
  h = FnvU64(h, static_cast<uint64_t>(delivery.frames.start));
  h = FnvU64(h, static_cast<uint64_t>(delivery.frames.end));
  h = FnvU64(h, delivery.replayed ? 1 : 0);
  for (const bool hit : delivery.detections) h = FnvU64(h, hit ? 1 : 0);
  delivery_digest_ = h;
  if (config_.record_transcripts) {
    transcript_.deliveries.push_back(
        {delivery.request_id, delivery.event, delivery.frames,
         delivery.replayed,
         std::vector<uint8_t>(delivery.detections.begin(),
                              delivery.detections.end())});
  }
}

void StreamPipeline::OnCompletion(int64_t anchor,
                                  const core::MarshalDecision& decision) {
  relay_.AdvanceTo(anchor);

  uint64_t h = FnvU64(decision_digest_, static_cast<uint64_t>(anchor));
  for (size_t k = 0; k < decision.exists.size(); ++k) {
    h = FnvU64(h, decision.exists[k] ? 1 : 0);
    h = FnvU64(h, static_cast<uint64_t>(decision.intervals[k].start));
    h = FnvU64(h, static_cast<uint64_t>(decision.intervals[k].end));
  }
  decision_digest_ = h;
  if (config_.record_transcripts) {
    transcript_.decisions.push_back(
        {anchor,
         std::vector<uint8_t>(decision.exists.begin(), decision.exists.end()),
         decision.intervals});
  }

  // Audit every boundary whose horizon lies inside the video (all of a
  // fleet stream's: it pushes frames - H frames).
  const int64_t video_anchor = first_frame_ + anchor;
  if (video_anchor + extractor_.horizon < video_.num_frames()) {
    const data::Record truth =
        data::BuildRecord(video_, task_, extractor_, video_anchor);
    const int64_t decision_id =
        provenance_ != nullptr ? provenance_->DecisionIdOfAnchor(anchor) : -1;
    outcomes_.clear();
    core::AppendAuditOutcomes(truth.labels, decision, anchor, decision_id,
                              &outcomes_);
    for (const obs::AuditOutcome& outcome : outcomes_) {
      auditor_.Observe(outcome);
      if (provenance_ == nullptr) continue;
      const bool missed = outcome.truth_present && !outcome.predicted_present;
      const int miscovered =
          outcome.truth_present && outcome.predicted_present
              ? !outcome.start_covered + !outcome.end_covered
              : 0;
      provenance_->StampVerdict(anchor, outcome.truth_present, missed,
                                miscovered);
      if (missed) last_miss_decision_ = decision_id;
      if (miscovered > 0) last_miscover_decision_ = decision_id;
    }
    // After the auditor, so a breach latched by this very boundary can
    // trigger on it. Reused completions carry no fresh scores.
    if (recal_ != nullptr && completing_scores_ != nullptr) {
      recal_->Observe(anchor, truth, *completing_scores_);
    }
  }

  // Integer micro-USD deltas commute: the shared total at a tick boundary
  // does not depend on completion interleaving.
  if (spend_microusd_ != nullptr) {
    const int64_t total_microusd = static_cast<int64_t>(
        std::llround(service_.invoice().total_cost_usd * 1e6));
    spend_microusd_->fetch_add(total_microusd - billed_microusd_,
                               std::memory_order_relaxed);
    billed_microusd_ = total_microusd;
  }
}

FleetStreamResult StreamPipeline::Finish() {
  EVENTHIT_CHECK_EQ(marshaller_.pending_predictions(), 0u);
  relay_.Flush(settings_.push_frames);
  auditor_.Finalize(settings_.push_frames);

  FleetStreamResult result;
  result.stream_index = settings_.stream_index;
  result.decision_digest = decision_digest_;
  result.delivery_digest = delivery_digest_;
  result.marshaller = marshaller_.stats();
  result.relay = relay_.stats();
  result.invoice = service_.invoice();
  result.audit_positives = auditor_.total_positives();
  result.audit_misses = auditor_.total_misses();
  result.audit_endpoints = auditor_.total_endpoints();
  result.audit_miscovered = auditor_.total_miscovered();
  result.audit_breaches = auditor_.breach_count();
  result.last_miss_decision = last_miss_decision_;
  result.last_miscover_decision = last_miscover_decision_;
  result.last_breach_decision = auditor_.last_breach_decision_id();
  if (recal_ != nullptr) {
    const adapt::RecalStats& rs = recal_->stats();
    result.recal_triggers_breach = rs.triggers_breach;
    result.recal_triggers_drift = rs.triggers_drift;
    result.recal_refusals_cooldown = rs.refusals_cooldown;
    result.recal_refusals_min_samples = rs.refusals_min_samples;
    result.recal_swaps = rs.swaps;
    result.recal_last_swap_frame = rs.last_swap_time;
  }
  if (provenance_ != nullptr) {
    result.provenance_digest = provenance_->Digest();
    result.provenance_boundaries = provenance_->boundaries();
    result.provenance_recorded = provenance_->recorded();
    result.provenance_overflowed = provenance_->overflowed();
    result.provenance_rollup = provenance_->rollup();
    if (config_.collect_provenance_records) {
      result.provenance_records = provenance_->ExportResident();
    }
  }
  result.state_digest = StateDigest(result);
  result.transcript = std::move(transcript_);
  return result;
}

FleetStreamResult RunInline(StreamPipeline& pipeline,
                            const core::EventHitModel& model) {
  nn::Workspace ws;
  data::Record record;
  core::EventScores scores;  // refilled in place at every boundary
  // Inline scoring: zero residency under the solo flush reason.
  BatchPlacement placement;
  while (pipeline.next_frame() < pipeline.settings().push_frames) {
    if (!pipeline.PushFrame(&record)) continue;
    model.PredictBatched(&record, 1, &scores, ws);
    pipeline.Complete(record.frame, scores, placement);
    ++placement.batch_id;
  }
  return pipeline.Finish();
}

}  // namespace eventhit::fleet
