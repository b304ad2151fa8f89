#include "cloud/relay.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "obs/schema.h"

namespace eventhit::cloud {

namespace {

int64_t Micros(double seconds) {
  return static_cast<int64_t>(std::llround(seconds * 1e6));
}

}  // namespace

RelayMetrics::RelayMetrics(obs::MetricsRegistry& registry)
    : orders_submitted(registry.GetCounter(obs::names::kRelayOrdersSubmitted)),
      orders_delivered(registry.GetCounter(obs::names::kRelayOrdersDelivered)),
      orders_dropped(registry.GetCounter(obs::names::kRelayOrdersDropped)),
      orders_replayed(registry.GetCounter(obs::names::kRelayOrdersReplayed)),
      frames_submitted(registry.GetCounter(obs::names::kRelayFramesSubmitted)),
      frames_delivered(registry.GetCounter(obs::names::kRelayFramesDelivered)),
      frames_dropped(registry.GetCounter(obs::names::kRelayFramesDropped)),
      frames_buffered(registry.GetCounter(obs::names::kRelayFramesBuffered)),
      attempts(registry.GetCounter(obs::names::kRelayAttemptsTotal)),
      retries(registry.GetCounter(obs::names::kRelayAttemptsRetries)),
      fault_errors(registry.GetCounter(obs::names::kRelayFaultErrors)),
      fault_spikes(registry.GetCounter(obs::names::kRelayFaultLatencySpikes)),
      breaker_transitions(registry.GetCounter(obs::names::kBreakerTransitions)),
      breaker_opens(registry.GetCounter(obs::names::kBreakerOpens)),
      breaker_state(registry.GetGauge(obs::names::kBreakerState)),
      queue_depth(registry.GetGauge(obs::names::kRelayQueueDepth)),
      request_attempts(registry.GetHistogram(
          obs::names::kRelayRequestAttempts, obs::AttemptCountBounds())),
      backoff_seconds(registry.GetHistogram(
          obs::names::kRelayBackoffSeconds, obs::LatencySecondsBounds())) {}

const RelayMetrics& RelayMetrics::Of(obs::MetricsRegistry* registry) {
  return (registry != nullptr ? *registry : obs::MetricsRegistry::Global())
      .HandleSet<RelayMetrics>();
}

CloudRelay::CloudRelay(CloudService* service, const RelayConfig& config,
                       uint64_t seed, const sim::FaultInjector* faults,
                       obs::MetricsRegistry* metrics,
                       obs::TraceBuffer* trace, obs::Logger* log)
    : service_(service),
      config_(config),
      retry_(config.retry, seed),
      breaker_(config.breaker),
      faults_(faults),
      pass_through_(faults == nullptr || !faults->profile().active()),
      trace_(trace),
      log_(log != nullptr ? log : &obs::Logger::Global()),
      metrics_(&RelayMetrics::Of(metrics)) {
  EVENTHIT_CHECK(service_ != nullptr);
  EVENTHIT_CHECK_GT(config_.request_deadline_seconds, 0.0);
  EVENTHIT_CHECK_GE(config_.attempt_timeout_seconds, 0.0);
  EVENTHIT_CHECK_GT(config_.stream_fps, 0.0);
  EVENTHIT_CHECK_GE(config_.replay_horizon_frames, 0);
  if (config_.degraded_mode == DegradedMode::kBufferAndReplay) {
    EVENTHIT_CHECK_GT(config_.replay_horizon_frames, 0);
    EVENTHIT_CHECK_GT(config_.max_queue_depth, 0u);
    // The queue never holds more, so buffering never allocates.
    queue_.reserve(config_.max_queue_depth);
  }
}

void CloudRelay::set_delivery_callback(DeliveryCallback callback) {
  delivery_callback_ = std::move(callback);
}

void CloudRelay::set_breaker_transition_callback(
    BreakerTransitionCallback callback) {
  transition_callback_ = std::move(callback);
}

double CloudRelay::FrameSeconds(int64_t frame) const {
  return static_cast<double>(frame) / config_.stream_fps;
}

void CloudRelay::SyncBreaker(double now_seconds) {
  const BreakerState state = breaker_.state();
  if (state == observed_state_) return;
  const BreakerState from = observed_state_;
  observed_state_ = state;
  metrics_->breaker_transitions->Add(1);
  metrics_->breaker_state->Set(static_cast<double>(static_cast<int>(state)));
  if (state == BreakerState::kOpen) {
    metrics_->breaker_opens->Add(1);
    if (!outage_open_) {
      outage_open_ = true;
      outage_start_seconds_ = now_seconds;
    }
  } else if (state == BreakerState::kClosed && outage_open_) {
    // The outage spans from the first trip to the close that ends it
    // (half-open probe windows inside count as outage time).
    outage_open_ = false;
    if (trace_ != nullptr) {
      obs::RecordSimulatedSpan(
          trace_, obs::names::kSpanRelayOutage, "simulated",
          Micros(outage_start_seconds_),
          std::max<int64_t>(1, Micros(now_seconds - outage_start_seconds_)));
    }
  }
  const obs::LogLevel level = state == BreakerState::kOpen
                                  ? obs::LogLevel::kWarn
                                  : obs::LogLevel::kInfo;
  if (log_->Enabled(level)) {
    log_->Log(
        level, "relay", "breaker_transition",
        static_cast<int64_t>(std::llround(now_seconds * config_.stream_fps)),
        {obs::LogStr("from", BreakerStateName(from)),
         obs::LogStr("to", BreakerStateName(state))});
  }
  if (transition_callback_) transition_callback_(from, state, now_seconds);
}

void CloudRelay::Deliver(const PendingOrder& order, bool replay,
                         RelayResult* result) {
  // Only a delivered request touches the service — failed attempts are
  // dropped RPCs, so they are never invoiced (cost_model_test pins the
  // at-most-once billing contract).
  const std::span<const uint8_t> detections =
      service_->DetectView(order.event, order.frames);
  ++stats_.orders_delivered;
  stats_.frames_delivered += order.frames.length();
  metrics_->orders_delivered->Add(1);
  metrics_->frames_delivered->Add(order.frames.length());
  if (replay) {
    ++stats_.orders_replayed;
    metrics_->orders_replayed->Add(1);
  }
  if (delivery_callback_) {
    RelayDelivery delivery;
    delivery.request_id = order.request_id;
    delivery.event = order.event;
    delivery.frames = order.frames;
    delivery.replayed = replay;
    delivery.detections = detections;
    delivery_callback_(delivery);
  }
  if (result != nullptr) result->outcome = RelayOutcome::kDelivered;
}

void CloudRelay::DropFrames(const PendingOrder& order) {
  ++stats_.orders_dropped;
  stats_.frames_dropped += order.frames.length();
  metrics_->orders_dropped->Add(1);
  metrics_->frames_dropped->Add(order.frames.length());
  if (log_->Enabled(obs::LogLevel::kWarn)) {
    log_->Log(obs::LogLevel::kWarn, "relay", "order_dropped",
              order.submit_frame,
              {obs::LogInt("request_id", order.request_id),
               obs::LogInt("event_index", static_cast<int64_t>(order.event)),
               obs::LogInt("frames", order.frames.length())});
  }
}

RelayOutcome CloudRelay::Degrade(const PendingOrder& order,
                                 RelayOutcome failure) {
  if (config_.degraded_mode == DegradedMode::kBufferAndReplay) {
    if (queue_.size() < config_.max_queue_depth) {
      queue_.push_back(order);
      stats_.frames_pending += order.frames.length();
      metrics_->frames_buffered->Add(order.frames.length());
      metrics_->queue_depth->Set(static_cast<double>(queue_.size()));
      return RelayOutcome::kBuffered;
    }
    DropFrames(order);
    return RelayOutcome::kDroppedQueueFull;
  }
  DropFrames(order);
  return failure;
}

bool CloudRelay::ProcessOrder(const PendingOrder& order, int64_t now_frame,
                              bool replay, RelayResult* result) {
  const double now_s = FrameSeconds(now_frame);
  const double base_latency = static_cast<double>(order.frames.length()) /
                              service_->config().frames_per_second;
  // The order is in flight for the duration of the retry loop, so the
  // frame-accounting identity (relay.h) balances exactly at any breaker
  // transition that fires mid-request.
  stats_.frames_in_flight += order.frames.length();
  double elapsed = 0.0;
  int attempts_here = 0;
  RelayOutcome failure = RelayOutcome::kDroppedBreakerOpen;
  for (int attempt = 0; attempt < retry_.max_attempts(); ++attempt) {
    if (!breaker_.AllowRequest(now_s + elapsed)) {
      SyncBreaker(now_s + elapsed);
      failure = RelayOutcome::kDroppedBreakerOpen;
      break;
    }
    SyncBreaker(now_s + elapsed);  // AllowRequest may have half-opened.
    ++attempts_here;
    ++stats_.attempts;
    metrics_->attempts->Add(1);
    if (attempt > 0) {
      ++stats_.retries;
      metrics_->retries->Add(1);
    }
    sim::FaultDecision fault;
    if (faults_ != nullptr) {
      fault = faults_->Evaluate(attempt_counter_++, now_frame);
    }
    if (fault.fail && !fault.blackout) {
      ++stats_.injected_errors;
      metrics_->fault_errors->Add(1);
    }
    if (fault.extra_latency_seconds > 0.0) {
      ++stats_.injected_latency_spikes;
      metrics_->fault_spikes->Add(1);
    }
    const double latency = base_latency + fault.extra_latency_seconds;
    // Per-attempt budget: the cancellation timeout (if configured) and
    // whatever is left of the request deadline.
    double budget = config_.request_deadline_seconds - elapsed;
    if (config_.attempt_timeout_seconds > 0.0) {
      budget = std::min(budget, config_.attempt_timeout_seconds);
    }
    bool ok = !fault.fail;
    double attempt_cost = latency;
    if (ok && latency > budget) {
      ok = false;  // Cancelled at the timeout; the response never lands.
      attempt_cost = budget;
    } else if (!ok) {
      attempt_cost = std::min(latency, budget);
    }
    if (ok) {
      breaker_.RecordSuccess(now_s + elapsed + attempt_cost);
      SyncBreaker(now_s + elapsed + attempt_cost);
      stats_.frames_in_flight -= order.frames.length();
      metrics_->request_attempts->Observe(static_cast<double>(attempts_here));
      if (result != nullptr) result->attempts = attempts_here;
      Deliver(order, replay, result);
      return true;
    }
    ++stats_.failed_attempts;
    breaker_.RecordFailure(now_s + elapsed + attempt_cost);
    SyncBreaker(now_s + elapsed + attempt_cost);
    elapsed += attempt_cost;
    failure = RelayOutcome::kDroppedDeadline;
    if (attempt + 1 >= retry_.max_attempts()) break;
    const double backoff = retry_.BackoffSeconds(order.request_id,
                                                 attempt + 1);
    metrics_->backoff_seconds->Observe(backoff);
    if (elapsed + backoff + base_latency > config_.request_deadline_seconds) {
      break;  // No budget left for another full attempt.
    }
    elapsed += backoff;
  }
  stats_.frames_in_flight -= order.frames.length();
  metrics_->request_attempts->Observe(static_cast<double>(attempts_here));
  if (result != nullptr) {
    result->attempts = attempts_here;
    result->outcome = failure;
  }
  return false;
}

RelayResult CloudRelay::Submit(size_t event_index,
                               const sim::Interval& frames,
                               int64_t now_frame) {
  EVENTHIT_CHECK(!frames.empty());
  PendingOrder order;
  order.request_id = next_request_id_++;
  order.event = event_index;
  order.frames = frames;
  order.submit_frame = now_frame;
  order.expiry_frame = now_frame + config_.replay_horizon_frames;
  ++stats_.orders_submitted;
  stats_.frames_submitted += frames.length();
  metrics_->orders_submitted->Add(1);
  metrics_->frames_submitted->Add(frames.length());

  RelayResult result;
  if (pass_through_) {
    // Zero-overhead pass-through: the exact Detect call sequence of the
    // pre-relay pipeline, no breaker, no retry bookkeeping beyond stats.
    ++stats_.attempts;
    metrics_->attempts->Add(1);
    metrics_->request_attempts->Observe(1.0);
    result.attempts = 1;
    Deliver(order, /*replay=*/false, &result);
    return result;
  }

  if (ProcessOrder(order, now_frame, /*replay=*/false, &result)) {
    return result;
  }
  result.outcome = Degrade(order, result.outcome);
  return result;
}

void CloudRelay::AdvanceTo(int64_t now_frame) {
  if (queue_.empty()) return;
  // One pass over the buffered orders in submission order; the ones that
  // stay go back on the queue's tail, in the same order.
  for (size_t n = queue_.size(); n > 0; --n) {
    const PendingOrder order = queue_.front();
    queue_.pop_front();
    if (now_frame >= order.expiry_frame) {
      // Stale: detections past the horizon are useless.
      stats_.frames_pending -= order.frames.length();
      DropFrames(order);
      continue;
    }
    // The order stays accounted as pending through the breaker probe —
    // AllowRequest can transition (open -> half-open) and fire the
    // transition callback, which asserts the accounting identity.
    if (!breaker_.AllowRequest(FrameSeconds(now_frame))) {
      SyncBreaker(FrameSeconds(now_frame));
      queue_.push_back(order);
      continue;
    }
    SyncBreaker(FrameSeconds(now_frame));
    stats_.frames_pending -= order.frames.length();
    if (!ProcessOrder(order, now_frame, /*replay=*/true, nullptr)) {
      // Still failing; stays buffered until delivery or expiry.
      stats_.frames_pending += order.frames.length();
      queue_.push_back(order);
    }
  }
  metrics_->queue_depth->Set(static_cast<double>(queue_.size()));
}

void CloudRelay::Flush(int64_t final_frame) {
  AdvanceTo(final_frame);
  while (!queue_.empty()) {
    PendingOrder order = queue_.front();
    queue_.pop_front();
    stats_.frames_pending -= order.frames.length();
    DropFrames(order);
  }
  metrics_->queue_depth->Set(0.0);
  EVENTHIT_CHECK_EQ(stats_.frames_in_flight, 0);
  EVENTHIT_CHECK_EQ(stats_.frames_delivered + stats_.frames_dropped,
                    stats_.frames_submitted);
}

}  // namespace eventhit::cloud
