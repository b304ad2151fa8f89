#include "core/marshaller.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "obs/schema.h"

namespace eventhit::core {

Marshaller::Marshaller(const MarshalStrategy* strategy, int collection_window,
                       int horizon, size_t feature_dim, size_t num_events,
                       obs::MetricsRegistry* metrics,
                       std::vector<std::string> event_labels)
    : strategy_(strategy),
      collection_window_(collection_window),
      horizon_(horizon),
      feature_dim_(feature_dim),
      num_events_(num_events),
      next_boundary_(collection_window - 1) {
  EVENTHIT_CHECK(strategy_ != nullptr);
  EVENTHIT_CHECK_GT(collection_window_, 0);
  EVENTHIT_CHECK_GT(horizon_, 0);
  EVENTHIT_CHECK_GT(feature_dim_, 0u);
  EVENTHIT_CHECK_GT(num_events_, 0u);
  ring_.assign(static_cast<size_t>(collection_window_) * feature_dim_, 0.0f);
  obs::MetricsRegistry& registry =
      metrics != nullptr ? *metrics : obs::MetricsRegistry::Global();
  frames_total_metric_ =
      registry.GetCounter(obs::names::kMarshallerFramesTotal);
  frames_relayed_metric_ =
      registry.GetCounter(obs::names::kMarshallerFramesRelayed);
  frames_filtered_metric_ =
      registry.GetCounter(obs::names::kMarshallerFramesFiltered);
  horizons_metric_ =
      registry.GetCounter(obs::names::kMarshallerHorizonsPredicted);
  relay_orders_metric_ =
      registry.GetCounter(obs::names::kMarshallerRelayOrders);
  events_present_metric_ =
      registry.GetCounter(obs::names::kMarshallerEventsPredictedPresent);
  events_absent_metric_ =
      registry.GetCounter(obs::names::kMarshallerEventsPredictedAbsent);
  order_frames_metric_ = registry.GetHistogram(
      obs::names::kMarshallerRelayOrderFrames, obs::FrameCountBounds());
  sched_horizons_scored_metric_ =
      registry.GetCounter(obs::names::kSchedHorizonsScored);
  sched_horizons_reused_metric_ =
      registry.GetCounter(obs::names::kSchedHorizonsReused);
  sched_frames_scored_metric_ =
      registry.GetCounter(obs::names::kSchedFramesScored);
  sched_frames_skipped_metric_ =
      registry.GetCounter(obs::names::kSchedFramesSkipped);
  sched_flops_local_metric_ =
      registry.GetCounter(obs::names::kSchedFlopsLocalMflops);
  sched_flops_saved_metric_ =
      registry.GetCounter(obs::names::kSchedFlopsSavedMflops);
  sched_stride_gauge_ = registry.GetGauge(obs::names::kSchedPolicyStride);
  if (!event_labels.empty()) {
    for (size_t k = 0; k < num_events_; ++k) {
      const std::string label = k < event_labels.size()
                                    ? event_labels[k]
                                    : "event" + std::to_string(k);
      const obs::Labels by_event = {{"event_type", label}};
      present_by_event_.push_back(registry.GetCounter(
          obs::names::kMarshallerEventsPredictedPresent, by_event));
      absent_by_event_.push_back(registry.GetCounter(
          obs::names::kMarshallerEventsPredictedAbsent, by_event));
      orders_by_event_.push_back(
          registry.GetCounter(obs::names::kMarshallerRelayOrders, by_event));
      order_frames_by_event_.push_back(
          registry.GetHistogram(obs::names::kMarshallerRelayOrderFrames,
                                obs::FrameCountBounds(), by_event));
    }
  }
}

void Marshaller::set_relay_callback(RelayCallback callback) {
  relay_callback_ = std::move(callback);
}

void Marshaller::set_decision_callback(DecisionCallback callback) {
  decision_callback_ = std::move(callback);
}

void Marshaller::set_collect_policy(
    std::unique_ptr<sched::CollectPolicy> policy) {
  // Policies must be installed before the first frame: the schedule's
  // horizon indexing starts at the stream's first boundary.
  EVENTHIT_CHECK_EQ(frame_count_, 0);
  policy_ = std::move(policy);
  policy_name_ = policy_ != nullptr ? policy_->name() : "full";
}

void Marshaller::set_cost_model(const sched::LocalCostModel& cost) {
  cost_ = cost;
}

bool Marshaller::NextFrameNeedsFeatures() const {
  // Frames at distance >= M from the next boundary never enter any window
  // (windows are M frames ending at a boundary): their ring slot is
  // overwritten before the boundary reads it.
  if (frame_count_ <= next_boundary_ - collection_window_) return false;
  // A boundary the stream never reaches reads no window.
  if (next_boundary_ >= stream_frames_) return false;
  if (policy_ == nullptr) return true;
  // The first boundary is always scored, and while a scored prediction's
  // observation is still in flight the policy's verdict on the next
  // boundary is unsettled — stay conservative.
  if (last_decision_.exists.empty() || !pending_anchors_.empty()) return true;
  return policy_->ShouldScore(boundaries_seen_);
}

bool Marshaller::PushFrameDeferred(const float* features,
                                   data::Record* pending) {
  // Features may be omitted only when NextFrameNeedsFeatures() is false —
  // a null push must never land inside a window a scored boundary reads.
  EVENTHIT_CHECK(features != nullptr || !NextFrameNeedsFeatures());
  if (features != nullptr) {
    const size_t slot =
        static_cast<size_t>(frame_count_ %
                            static_cast<int64_t>(collection_window_));
    std::memcpy(ring_.data() + slot * feature_dim_, features,
                feature_dim_ * sizeof(float));
  }
  const int64_t current_frame = frame_count_;
  ++frame_count_;
  ++stats_.frames_seen;

  if (current_frame != next_boundary_) return false;
  next_boundary_ += horizon_;

  const int64_t horizon_index = boundaries_seen_++;
  bool scored = true;
  if (policy_ != nullptr) {
    // The policy's schedule is a function of completed scored boundaries,
    // so batching delay must never span a whole horizon — otherwise the
    // verdict here would depend on flush timing and break the per-stream
    // determinism contract.
    EVENTHIT_CHECK(pending_anchors_.empty());
    scored = last_decision_.exists.empty() ||
             policy_->ShouldScore(horizon_index);
  }
  if (provenance_ != nullptr) {
    provenance_->OpenBoundary(current_frame, !scored, policy_name_);
  }
  if (!scored) {
    // Policy skip: replay the last decision, re-anchored at this
    // boundary, through the exact completion path a scored decision
    // takes — relay orders, accounting and callbacks stay in stream
    // order without a feature pass or model forward.
    pending_anchors_.push_back(current_frame);
    CompletePredictionInternal(last_decision_, /*reused=*/true);
    return false;
  }

  // Reconstruct the window in logical (oldest-first) order.
  std::vector<float> covariates(
      static_cast<size_t>(collection_window_) * feature_dim_);
  for (int m = 0; m < collection_window_; ++m) {
    const int64_t frame = current_frame - collection_window_ + 1 + m;
    const size_t src = static_cast<size_t>(
        frame % static_cast<int64_t>(collection_window_));
    std::memcpy(covariates.data() + static_cast<size_t>(m) * feature_dim_,
                ring_.data() + src * feature_dim_,
                feature_dim_ * sizeof(float));
  }

  pending->frame = current_frame;
  pending->covariates = std::move(covariates);
  pending->labels.assign(num_events_, data::EventLabel{});  // Unknown.
  pending_anchors_.push_back(current_frame);
  return true;
}

void Marshaller::CompletePrediction(const MarshalDecision& decision) {
  CompletePredictionInternal(decision, /*reused=*/false);
}

void Marshaller::CompletePredictionInternal(const MarshalDecision& decision,
                                            bool reused) {
  EVENTHIT_CHECK(!pending_anchors_.empty());
  const int64_t current_frame = pending_anchors_.front();
  pending_anchors_.pop_front();
  const int64_t horizon_index = boundaries_completed_++;
  if (&decision != &last_decision_) last_decision_ = decision;
  ++stats_.horizons_predicted;
  horizons_metric_->Add(1);

  // Relay orders in absolute frames; count billed frames as the union.
  std::vector<sim::Interval> relayed;
  int64_t events_present = 0;
  for (size_t k = 0; k < last_decision_.exists.size(); ++k) {
    if (!last_decision_.exists[k]) {
      if (k < absent_by_event_.size()) absent_by_event_[k]->Add(1);
      continue;
    }
    ++events_present;
    if (k < present_by_event_.size()) present_by_event_[k]->Add(1);
    const sim::Interval& offsets = last_decision_.intervals[k];
    // A present prediction with an empty interval relays nothing: no
    // order is issued (the cloud service rejects empty requests) and the
    // whole horizon stays in the filtered bucket, so the accounting
    // invariant holds on the zero-relay edge too.
    if (offsets.empty()) continue;
    RelayOrder order;
    order.event = k;
    order.frames = sim::Interval{current_frame + offsets.start,
                                 current_frame + offsets.end};
    order.anchor = current_frame;
    relayed.push_back(order.frames);
    ++stats_.relay_orders;
    relay_orders_metric_->Add(1);
    order_frames_metric_->Observe(static_cast<double>(order.frames.length()));
    if (k < orders_by_event_.size()) {
      orders_by_event_[k]->Add(1);
      order_frames_by_event_[k]->Observe(
          static_cast<double>(order.frames.length()));
    }
    if (relay_callback_) relay_callback_(order);
  }
  events_present_metric_->Add(events_present);
  events_absent_metric_->Add(
      static_cast<int64_t>(last_decision_.exists.size()) - events_present);
  int64_t billed = 0;
  if (!relayed.empty()) {
    std::sort(relayed.begin(), relayed.end(),
              [](const sim::Interval& a, const sim::Interval& b) {
                return a.start < b.start;
              });
    int64_t cursor = relayed.front().start - 1;
    for (const sim::Interval& interval : relayed) {
      const int64_t from = std::max(interval.start, cursor + 1);
      if (interval.end >= from) {
        billed += interval.end - from + 1;
        cursor = interval.end;
      } else {
        cursor = std::max(cursor, interval.end);
      }
    }
    stats_.frames_relayed += billed;
  }
  // Frame accounting: the horizon's frames split into the billed union and
  // the filtered remainder. Widened intervals can spill past the horizon
  // boundary, so "total" is max(H, billed) rather than H — the invariant
  // relayed + filtered == total holds unconditionally.
  const int64_t filtered = std::max<int64_t>(0, horizon_ - billed);
  frames_relayed_metric_->Add(billed);
  frames_filtered_metric_->Add(filtered);
  frames_total_metric_->Add(billed + filtered);

  // Local-compute accounting for the segment this boundary covers: the
  // first boundary covers the M window-fill frames, every later one the
  // H frames since its predecessor. Attribution follows the policy's
  // deterministic schedule, never actual ring writes, so the counts are
  // identical at any batching/flush timing.
  const int64_t segment =
      horizon_index == 0 ? static_cast<int64_t>(collection_window_)
                         : static_cast<int64_t>(horizon_);
  int64_t frames_scored;
  if (reused) {
    frames_scored = 0;
  } else if (policy_ != nullptr) {
    frames_scored = std::min<int64_t>(collection_window_, segment);
  } else {
    frames_scored = segment;  // Full rate: every frame is extracted.
  }
  const int64_t frames_skipped = segment - frames_scored;
  stats_.frames_scored += frames_scored;
  stats_.frames_skipped += frames_skipped;
  // Exact running totals, rounded once: a forward pass costs a fraction of
  // an MFLOP, which per-boundary rounding would drop every time. The
  // counters add the change in the rounded total, so they track the stats.
  local_mflops_total_ +=
      static_cast<double>(frames_scored) * cost_.feature_mflops_per_frame +
      (reused ? 0.0 : cost_.forward_mflops_per_boundary);
  saved_mflops_total_ +=
      static_cast<double>(frames_skipped) * cost_.feature_mflops_per_frame +
      (reused ? cost_.forward_mflops_per_boundary : 0.0);
  const int64_t local_mflops = std::llround(local_mflops_total_);
  const int64_t saved_mflops = std::llround(saved_mflops_total_);
  sched_flops_local_metric_->Add(local_mflops - stats_.local_mflops);
  sched_flops_saved_metric_->Add(saved_mflops - stats_.saved_mflops);
  stats_.local_mflops = local_mflops;
  stats_.saved_mflops = saved_mflops;
  sched_frames_scored_metric_->Add(frames_scored);
  sched_frames_skipped_metric_->Add(frames_skipped);
  if (reused) {
    ++stats_.horizons_reused;
    sched_horizons_reused_metric_->Add(1);
  } else {
    sched_horizons_scored_metric_->Add(1);
    if (policy_ != nullptr) {
      sched::ScoreObservation observation;
      observation.horizon_index = horizon_index;
      observation.max_existence = last_decision_.max_existence;
      for (const bool open : last_decision_.exists) {
        if (open) observation.any_open = true;
      }
      policy_->Observe(observation);
    }
  }
  sched_stride_gauge_->Set(static_cast<double>(
      policy_ != nullptr ? policy_->CurrentStride() : 1));

  if (provenance_ != nullptr) {
    // Fold point of the provenance digest: completion order is stream
    // order (pending predictions drain FIFO), so the fold sequence is
    // identical for a solo replay and any fleet batching of this stream.
    uint32_t exists_mask = 0;
    const size_t mask_events = std::min<size_t>(last_decision_.exists.size(),
                                                32);
    for (size_t k = 0; k < mask_events; ++k) {
      if (last_decision_.exists[k]) exists_mask |= 1u << k;
    }
    provenance_->StampDecision(current_frame, reused, policy_name_,
                               exists_mask, static_cast<int>(events_present),
                               static_cast<int>(relayed.size()), billed,
                               last_decision_.max_existence);
  }

  if (decision_callback_) {
    decision_callback_(current_frame, last_decision_, reused);
  }
}

bool Marshaller::PushFrame(const float* features) {
  data::Record record;
  if (!PushFrameDeferred(features, &record)) return false;
  CompletePrediction(strategy_->Decide(record));
  return true;
}

}  // namespace eventhit::core
