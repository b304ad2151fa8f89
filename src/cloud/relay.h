// Resilient cloud relay: wraps CloudService behind a bounded submission
// queue with per-request deadlines, capped exponential backoff with seeded
// jitter, and a circuit breaker that trips on consecutive failures and
// half-opens on a probe schedule. On sustained outage the relay degrades
// to a configurable policy — buffer-and-replay within the horizon, or
// drop-with-accounting — so the marshaller's spillage/recall bookkeeping
// stays exact under failure.
//
// Everything runs on the simulated stream clock (frame index / stream
// FPS): no wall time, no hidden state. Fault draws, jitter and breaker
// timing are pure functions of the seeds, so a chaos replay with the same
// seed is byte-identical (DESIGN.md §5f). With no active fault injector
// the relay is a zero-overhead pass-through: Submit issues exactly the
// CloudService::Detect call sequence the pre-relay pipeline issued.
#ifndef EVENTHIT_CLOUD_RELAY_H_
#define EVENTHIT_CLOUD_RELAY_H_

#include <cstdint>
#include <functional>
#include <span>

#include "cloud/circuit_breaker.h"
#include "cloud/cloud_service.h"
#include "cloud/retry_policy.h"
#include "common/vector_fifo.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fault_injector.h"
#include "sim/interval.h"

namespace eventhit::cloud {

/// What the relay does with a request that exhausted its retry budget (or
/// met an open breaker).
enum class DegradedMode {
  /// Count the frames as dropped; recall bookkeeping charges the loss.
  kDropWithAccounting,
  /// Park the order in the bounded queue and replay it when the breaker
  /// re-closes, as long as the order is still within `replay_horizon_
  /// frames` of its submission (stale detections are useless past the
  /// horizon). Queue overflow and expiry fall back to dropping.
  kBufferAndReplay,
};

struct RelayConfig {
  RetryPolicyConfig retry;
  CircuitBreakerConfig breaker;
  DegradedMode degraded_mode = DegradedMode::kDropWithAccounting;
  /// Bounded submission queue (buffer-and-replay only).
  size_t max_queue_depth = 64;
  /// Total simulated budget per request: attempt latencies + backoffs.
  double request_deadline_seconds = 30.0;
  /// Per-attempt cancellation timeout; an attempt whose (possibly spiked)
  /// latency exceeds it is cancelled and retried. 0 = bounded only by the
  /// request deadline.
  double attempt_timeout_seconds = 0.0;
  /// Buffered orders expire this many frames after submission (H).
  int64_t replay_horizon_frames = 0;
  /// Stream rate converting frame indices to simulated seconds.
  double stream_fps = 30.0;
};

/// How one submission ended (buffered orders may still be delivered or
/// dropped later, from AdvanceTo/Flush).
enum class RelayOutcome {
  kDelivered,
  kBuffered,
  kDroppedQueueFull,
  kDroppedDeadline,
  kDroppedBreakerOpen,
};

/// How a submission ended; a delivery's detections go to the delivery
/// callback.
struct RelayResult {
  RelayOutcome outcome = RelayOutcome::kDelivered;
  /// Attempts consumed by this submission (0 when the breaker rejected
  /// the request outright).
  int attempts = 0;
};

/// One delivery, synchronous or replayed, for the delivery callback.
struct RelayDelivery {
  int64_t request_id = 0;
  size_t event = 0;
  sim::Interval frames;
  bool replayed = false;
  /// One flag per frame (1 = detected): a view of the service's buffer,
  /// valid only during the callback.
  std::span<const uint8_t> detections;
};

/// The relay's telemetry handles on one registry, resolved once per
/// registry (obs::MetricsRegistry::HandleSet).
struct RelayMetrics {
  explicit RelayMetrics(obs::MetricsRegistry& registry);
  /// The registry's set; nullptr selects obs::MetricsRegistry::Global().
  static const RelayMetrics& Of(obs::MetricsRegistry* registry);

  obs::Counter* orders_submitted;
  obs::Counter* orders_delivered;
  obs::Counter* orders_dropped;
  obs::Counter* orders_replayed;
  obs::Counter* frames_submitted;
  obs::Counter* frames_delivered;
  obs::Counter* frames_dropped;
  obs::Counter* frames_buffered;
  obs::Counter* attempts;
  obs::Counter* retries;
  obs::Counter* fault_errors;
  obs::Counter* fault_spikes;
  obs::Counter* breaker_transitions;
  obs::Counter* breaker_opens;
  obs::Gauge* breaker_state;
  obs::Gauge* queue_depth;
  obs::Histogram* request_attempts;
  obs::Histogram* backoff_seconds;
};

/// Aggregate accounting. Invariant (checked by relay_chaos_test at every
/// breaker transition):
///   frames_delivered + frames_dropped + frames_pending + frames_in_flight
///     == frames_submitted
/// Between top-level calls (and after Flush) frames_in_flight is 0, so the
/// settled identity is delivered + dropped + pending == submitted.
struct RelayStats {
  int64_t orders_submitted = 0;
  int64_t orders_delivered = 0;  // Includes replayed deliveries.
  int64_t orders_replayed = 0;
  int64_t orders_dropped = 0;
  int64_t frames_submitted = 0;
  int64_t frames_delivered = 0;
  int64_t frames_dropped = 0;
  int64_t frames_pending = 0;    // Sitting in the replay queue.
  int64_t frames_in_flight = 0;  // Mid-retry-loop inside Submit/AdvanceTo.
  int64_t attempts = 0;
  int64_t retries = 0;
  int64_t failed_attempts = 0;
  int64_t injected_errors = 0;
  int64_t injected_latency_spikes = 0;
};

/// The relay. Not thread-safe: like the Marshaller it lives on the single
/// streaming thread; determinism comes from seed-split draws, not locks.
class CloudRelay {
 public:
  using DeliveryCallback = std::function<void(const RelayDelivery&)>;
  using BreakerTransitionCallback =
      std::function<void(BreakerState from, BreakerState to,
                         double now_seconds)>;

  /// `service` must outlive the relay; `faults` may be nullptr (or an
  /// inactive profile) for pass-through. Telemetry goes to `metrics`
  /// (docs/TELEMETRY.md, relay.* / breaker.* names; nullptr selects the
  /// global registry) and outage spans to `trace` (nullptr disables
  /// them). Breaker transitions and drops also emit structured-log
  /// records to `log` (nullptr selects obs::Logger::Global()).
  CloudRelay(CloudService* service, const RelayConfig& config, uint64_t seed,
             const sim::FaultInjector* faults = nullptr,
             obs::MetricsRegistry* metrics = nullptr,
             obs::TraceBuffer* trace = nullptr, obs::Logger* log = nullptr);

  /// Sink for deliveries (required to observe replayed detections; the
  /// synchronous result also comes back from Submit).
  void set_delivery_callback(DeliveryCallback callback);

  /// Observer of breaker state changes (chaos tests assert the frame
  /// accounting identity here).
  void set_breaker_transition_callback(BreakerTransitionCallback callback);

  /// Relays `frames` (absolute, non-empty) of `event_index` at stream
  /// frame `now_frame`. `now_frame` must be non-decreasing across calls.
  RelayResult Submit(size_t event_index, const sim::Interval& frames,
                     int64_t now_frame);

  /// Advances the simulated clock: expires stale buffered orders and
  /// replays the rest when the breaker allows.
  void AdvanceTo(int64_t now_frame);

  /// End of stream: one last replay pass at `final_frame`, then drops
  /// whatever is still pending so delivered + dropped == submitted.
  void Flush(int64_t final_frame);

  const RelayStats& stats() const { return stats_; }
  BreakerState breaker_state() const { return breaker_.state(); }
  const CircuitBreaker& breaker() const { return breaker_; }
  size_t queue_depth() const { return queue_.size(); }
  const RelayConfig& config() const { return config_; }

 private:
  struct PendingOrder {
    int64_t request_id = 0;
    size_t event = 0;
    sim::Interval frames;
    int64_t submit_frame = 0;
    int64_t expiry_frame = 0;
  };

  double FrameSeconds(int64_t frame) const;
  /// Runs the retry loop for `order` at `now_frame`. Returns true when
  /// delivered (detections in `*result` when non-null).
  bool ProcessOrder(const PendingOrder& order, int64_t now_frame,
                    bool replay, RelayResult* result);
  void Deliver(const PendingOrder& order, bool replay, RelayResult* result);
  void DropFrames(const PendingOrder& order);
  RelayOutcome Degrade(const PendingOrder& order, RelayOutcome failure);
  /// Mirrors breaker state into metrics / outage spans / the transition
  /// callback; call after every breaker interaction.
  void SyncBreaker(double now_seconds);

  CloudService* service_;
  RelayConfig config_;
  RetryPolicy retry_;
  CircuitBreaker breaker_;
  const sim::FaultInjector* faults_;
  bool pass_through_;
  obs::TraceBuffer* trace_;
  obs::Logger* log_;

  DeliveryCallback delivery_callback_;
  BreakerTransitionCallback transition_callback_;

  VectorFifo<PendingOrder> queue_;
  RelayStats stats_;
  int64_t next_request_id_ = 0;
  int64_t attempt_counter_ = 0;  // Global fault-draw index.
  BreakerState observed_state_ = BreakerState::kClosed;
  double outage_start_seconds_ = 0.0;
  bool outage_open_ = false;

  const RelayMetrics* metrics_;  // Valid for the registry's lifetime.
};

}  // namespace eventhit::cloud

#endif  // EVENTHIT_CLOUD_RELAY_H_
