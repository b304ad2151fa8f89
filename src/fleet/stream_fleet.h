// Multi-tenant stream fleet: N independent camera streams multiplexed
// through one process, sharing a single trained EventHit model whose
// inference runs in cross-stream dynamic batches (fleet/dynamic_batcher.h)
// while every per-stream component — synthetic video, marshaller, cloud
// service, resilient relay, guarantee auditor — stays private to its
// stream's StreamPipeline (fleet/stream_pipeline.h) and seeded from
// SplitSeed(base_seed, stream).
//
// Determinism contract (DESIGN.md §5g): a stream's marshalled intervals,
// relay accounting, invoice and audit state depend only on (base_seed,
// stream index, stream-level config) — never on the fleet size, wave
// size, batch size, flush timing or thread count. The proof obligations:
//   * PredictBatched is bit-identical per record at any batch composition
//     (PR 3's summation-order contract), so cross-stream batching cannot
//     perturb scores;
//   * deferred completions replay the exact inline PushFrame code path
//     (Marshaller::CompletePrediction) in per-stream FIFO order;
//   * the relay clock advances with the request's own anchor frame, not
//     the flush tick, so batching delay never shifts simulated time.
// RunStreamSolo() runs one stream through the identical per-stream state
// machine without any batching, and the fleet bit-exactness test checks
// byte equality of the two digests at multiple thread counts.
#ifndef EVENTHIT_FLEET_STREAM_FLEET_H_
#define EVENTHIT_FLEET_STREAM_FLEET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adapt/recal_loop.h"
#include "cloud/cloud_service.h"
#include "cloud/relay.h"
#include "core/marshaller.h"
#include "data/tasks.h"
#include "eval/runner.h"
#include "nn/workspace.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "sim/scene_spec.h"
#include "sim/synthetic_video.h"

namespace eventhit::fleet {

struct FleetConfig {
  /// Number of tenant streams.
  int num_streams = 100;
  /// Master seed; every per-stream seed derives from it via SplitSeed.
  uint64_t base_seed = 42;
  /// Frames generated per stream (0 = the dataset's default). Streams push
  /// frames [0, frames - H) so every prediction anchor has ground truth
  /// within the generated stream for auditing.
  int64_t frames_per_stream = 0;
  /// Streams resident at once. Each wave generates its videos, runs its
  /// tick loop, settles accounting, then frees the memory — the knob that
  /// bounds footprint at 10k+ streams.
  int wave_size = 256;
  /// Records per cross-stream GEMM flush.
  size_t batch_size = 64;
  /// Ticks a request may wait in the batcher before a deadline flush.
  int64_t max_batch_delay_ticks = 4;
  /// Offset each stream's start tick by a seed-derived phase in
  /// [0, kStaggerWindow) so prediction boundaries interleave across
  /// streams (exercises deadline flushes; local stream clocks are
  /// unaffected).
  bool stagger_phases = true;
  /// Worker threads (<= 0 resolves via ThreadPool::DefaultThreads()).
  int threads = 1;
  /// Conformal knobs of the shared EHCR strategy.
  double confidence = 0.9;
  double coverage = 0.5;
  /// Named fault profile for every stream's relay ("none" disables;
  /// per-stream schedules decorrelate via SplitSeed(fault_seed, stream)).
  std::string fault_profile = "none";
  uint64_t fault_seed = 1234;
  cloud::DegradedMode degraded_mode = cloud::DegradedMode::kDropWithAccounting;
  /// Aggregate spend cap in integer micro-USD shared by all streams
  /// (0 = uncapped). The accountant is observational: it latches the first
  /// tick the cap is crossed and emits fleet.budget.breaches, but never
  /// feeds back into per-stream decisions — that would break the
  /// stream-solo determinism contract.
  int64_t budget_cap_microusd = 0;
  /// Keep full per-stream decision/delivery transcripts (tests only; the
  /// digests are always kept).
  bool record_transcripts = false;
  /// Arm a per-stream recalibration loop (adapt/recal_loop.h): the
  /// stream's own auditor breach latches and drift alarms trigger conformal
  /// rebuilds that hot-swap into that stream's private strategy. All loop
  /// state is per-stream, so the solo/fleet bit-exactness contract holds
  /// with recalibration armed.
  bool recal = false;
  /// Loop knobs (window capacity, guards, martingale) when `recal` is set.
  adapt::RecalConfig recal_config;
  /// Arm the per-stream decision provenance ledger (obs/provenance.h):
  /// every marshalling boundary gets a decision id whose causal chain
  /// (policy verdict, batch placement, backend + conformal generation,
  /// decision, relay outcome, audit verdict) is recorded, digested and
  /// rolled up. Observational only — the solo/fleet bit-exactness
  /// contract holds with the ledger armed, and the digest itself is part
  /// of that contract.
  bool provenance = true;
  /// Resident provenance records per stream (ring slots; older boundaries
  /// are evicted from the ring but stay in the digest and rollup). The
  /// default keeps a 10k-stream fleet within a few MB; the explain CLI
  /// raises it to hold every boundary of the stream it replays.
  size_t provenance_ring = 4;
  /// Copy each stream's resident provenance records into its
  /// FleetStreamResult (explain CLI and tests; the rollup and digest are
  /// always kept).
  bool collect_provenance_records = false;
  /// Training configuration for the one shared model (seed and all).
  eval::RunnerConfig runner;
};

/// Stagger window (ticks) for seed-derived phase offsets.
inline constexpr int64_t kStaggerWindow = 16;

/// Everything about one stream that is derivable purely from
/// (FleetConfig, stream index) — the root of the determinism contract.
struct StreamSettings {
  int stream_index = -1;
  uint64_t stream_seed = 0;
  uint64_t video_seed = 0;
  uint64_t cloud_seed = 0;
  uint64_t relay_seed = 0;
  uint64_t fault_seed = 0;
  int64_t phase = 0;        // Fleet tick the stream starts pushing.
  double gap_scale = 1.0;   // Event mean-gap multiplier (tenant mix).
  sim::DatasetSpec spec;    // Per-stream spec (frames + scaled gaps).
  int64_t push_frames = 0;  // Frames the stream pushes (= frames - H).
};

/// Optional full per-stream transcript (record_transcripts only).
struct StreamTranscript {
  struct Decision {
    int64_t anchor = 0;
    std::vector<uint8_t> exists;
    std::vector<sim::Interval> intervals;
  };
  struct Delivery {
    int64_t request_id = 0;
    size_t event = 0;
    sim::Interval frames;
    bool replayed = false;
    std::vector<uint8_t> detections;
  };
  std::vector<Decision> decisions;
  std::vector<Delivery> deliveries;
};

/// Settled per-stream outcome. The digests are FNV-1a folds of the full
/// decision/delivery/accounting byte streams; `state_digest` additionally
/// folds the marshaller stats, relay stats, invoice and audit counts, so
/// digest equality is byte-identity of everything observable.
struct FleetStreamResult {
  int stream_index = -1;
  uint64_t decision_digest = 0;
  uint64_t delivery_digest = 0;
  uint64_t state_digest = 0;
  core::MarshallerStats marshaller;
  cloud::RelayStats relay;
  cloud::Invoice invoice;
  int64_t audit_positives = 0;
  int64_t audit_misses = 0;
  int64_t audit_endpoints = 0;
  int64_t audit_miscovered = 0;
  int64_t audit_breaches = 0;
  // Most recent offending decision ids on this stream's clock (-1 when
  // clean or when the ledger is off) — folded into the exported audit
  // counters as OpenMetrics exemplars at end of run.
  int64_t last_miss_decision = -1;
  int64_t last_miscover_decision = -1;
  int64_t last_breach_decision = -1;
  // Recalibration-loop outcome (all zero / -1 when FleetConfig::recal is
  // off). Folded into state_digest like the audit counts.
  int64_t recal_triggers_breach = 0;
  int64_t recal_triggers_drift = 0;
  int64_t recal_refusals_cooldown = 0;
  int64_t recal_refusals_min_samples = 0;
  int64_t recal_swaps = 0;
  int64_t recal_last_swap_frame = -1;
  // Provenance ledger outcome (all zero when FleetConfig::provenance is
  // off). The digest folds only clock-pure stamps, so it participates in
  // the solo/fleet bit-exactness contract; the rollup carries batch
  // residency and therefore legitimately differs between solo and fleet.
  uint64_t provenance_digest = 0;
  int64_t provenance_boundaries = 0;
  int64_t provenance_recorded = 0;
  int64_t provenance_overflowed = 0;
  obs::ProvenanceRollup provenance_rollup;
  /// Resident records (collect_provenance_records only).
  std::vector<obs::ProvenanceRecord> provenance_records;
  StreamTranscript transcript;
};

/// The one declared list of a result's compared fields, in fold order:
/// SameStreamResult compares them and StateDigest folds them. The
/// provenance rollup is left out: its batch residency differs between solo
/// and fleet by design.
template <typename Result, typename Fn>
void ForEachResultField(Result& r, Fn&& fn) {
  fn(r.decision_digest);
  fn(r.delivery_digest);
  auto& m = r.marshaller;
  static_assert(sizeof(m) == 9 * sizeof(int64_t), "list every field");
  for (auto* f : {&m.frames_seen, &m.horizons_predicted, &m.frames_relayed,
                  &m.relay_orders, &m.horizons_reused, &m.frames_scored,
                  &m.frames_skipped, &m.local_mflops, &m.saved_mflops}) {
    fn(*f);
  }
  auto& y = r.relay;
  static_assert(sizeof(y) == 14 * sizeof(int64_t), "list every field");
  for (auto* f : {&y.orders_submitted, &y.orders_delivered,
                  &y.orders_replayed, &y.orders_dropped, &y.frames_submitted,
                  &y.frames_delivered, &y.frames_dropped, &y.frames_pending,
                  &y.frames_in_flight, &y.attempts, &y.retries,
                  &y.failed_attempts, &y.injected_errors,
                  &y.injected_latency_spikes}) {
    fn(*f);
  }
  static_assert(sizeof(r.invoice) == 4 * sizeof(int64_t), "list every field");
  fn(r.invoice.frames_processed);
  fn(r.invoice.requests);
  fn(r.invoice.total_cost_usd);
  fn(r.invoice.compute_seconds);
  for (auto* f : {&r.audit_positives, &r.audit_misses, &r.audit_endpoints,
                  &r.audit_miscovered, &r.audit_breaches,
                  &r.last_miss_decision, &r.last_miscover_decision,
                  &r.last_breach_decision, &r.recal_triggers_breach,
                  &r.recal_triggers_drift, &r.recal_refusals_cooldown,
                  &r.recal_refusals_min_samples, &r.recal_swaps,
                  &r.recal_last_swap_frame}) {
    fn(*f);
  }
  fn(r.provenance_digest);
  for (auto* f : {&r.provenance_boundaries, &r.provenance_recorded,
                  &r.provenance_overflowed}) {
    fn(*f);
  }
}

/// The frames of a stream's video its run reads: the M-frame window ending
/// at each boundary M-1 + jH, up to the last boundary before push_frames,
/// M-1 + floor((push_frames - M) / H) * H; the video ends one frame after
/// it (DESIGN.md §5g).
sim::FrameSelection StreamVideoSelection(const StreamSettings& settings);

/// FNV-1a fold of every ForEachResultField field (doubles by bit pattern):
/// the value of FleetStreamResult::state_digest.
uint64_t StateDigest(const FleetStreamResult& result);

/// True when stream_index, state_digest and every listed field (doubles by
/// bit pattern) match — the bit-exactness predicate of the fleet tests.
bool SameStreamResult(const FleetStreamResult& a, const FleetStreamResult& b);

struct FleetRunStats {
  int64_t streams = 0;
  int64_t ticks = 0;
  int64_t frames_pushed = 0;
  int64_t requests = 0;
  int64_t batches = 0;
  int64_t flush_full = 0;
  int64_t flush_deadline = 0;
  int64_t flush_final = 0;
  double batch_fill_mean = 0.0;
  double elapsed_seconds = 0.0;
  double streams_per_sec = 0.0;
  double frames_per_sec = 0.0;
  double p50_tick_us = 0.0;
  double p99_tick_us = 0.0;
  /// Tick latency divided by the frames pushed that tick: the per-frame
  /// cost an individual tenant observes.
  double p50_frame_us = 0.0;
  double p99_frame_us = 0.0;
  double total_cost_usd = 0.0;
  int64_t budget_spend_microusd = 0;
  int64_t budget_breach_tick = -1;  // -1 = cap never crossed (or uncapped).
  int64_t streams_with_breaches = 0;
};

struct FleetRunResult {
  std::vector<FleetStreamResult> streams;
  FleetRunStats stats;
};

/// Per-tenant health summary distilled from one settled stream result —
/// the row of `eventhit_cli fleet --health-report`. Derived purely from
/// FleetStreamResult, so the report is as deterministic as the run.
struct StreamHealth {
  int stream_index = -1;
  int64_t boundaries = 0;
  /// Scored boundaries / total boundaries (1.0 under the full policy).
  double duty_cycle = 1.0;
  /// Lifetime audited failure rates (0 when the denominator is 0).
  double miss_rate = 0.0;
  double miscover_rate = 0.0;
  int64_t breaches = 0;
  int64_t recal_swaps = 0;
  int64_t relay_dropped_orders = 0;
  double relay_drop_rate = 0.0;
  /// Last observed breaker state (0 closed / 1 open / 2 half-open).
  int8_t breaker_state = 0;
  /// Batch-queue residency percentiles in ticks (0 when unbatched).
  double residency_p50 = 0.0;
  double residency_p99 = 0.0;
  double spend_usd = 0.0;
  /// Deterministic triage score: breaches dominate, then a non-closed
  /// breaker, then guarantee pressure and relay loss. Ties break by
  /// stream index, so the report ordering is reproducible.
  double badness = 0.0;
};

struct FleetHealthReport {
  std::vector<StreamHealth> streams;  // Sorted worst-first.
  int64_t streams_total = 0;
  int64_t streams_with_breaches = 0;
  int64_t streams_breaker_open = 0;
  int64_t total_breaches = 0;
  int64_t total_relay_dropped = 0;
  int64_t total_recal_swaps = 0;
  double total_spend_usd = 0.0;
  double mean_duty_cycle = 0.0;
  double worst_miss_rate = 0.0;
  double worst_miscover_rate = 0.0;
};

/// Distills a settled fleet run into the per-tenant health rollup.
FleetHealthReport BuildHealthReport(const FleetRunResult& run);
/// Human-readable report: fleet aggregates plus the `top_n` worst streams.
std::string HealthReportText(const FleetHealthReport& report, int top_n);
/// One-line JSON per stream (the rows of `fleet --health-out` JSONL).
std::string StreamHealthJson(const StreamHealth& health);

class StreamFleet {
 public:
  /// Builds the shared environment and trains the one fleet model
  /// (deterministic in config.runner.seed and thread count). Fleet-level
  /// telemetry goes to `metrics` (nullptr = the global registry) and
  /// fleet.batch spans to `trace` (nullptr disables). Per-stream
  /// components report into a fleet-private registry/logger so N streams
  /// cannot swamp process-global telemetry.
  StreamFleet(const data::Task& task, const FleetConfig& config,
              obs::MetricsRegistry* metrics = nullptr,
              obs::TraceBuffer* trace = nullptr);
  ~StreamFleet();

  StreamFleet(const StreamFleet&) = delete;
  StreamFleet& operator=(const StreamFleet&) = delete;

  /// Pure derivation of one stream's settings from the config.
  StreamSettings DeriveStreamSettings(int stream_index) const;

  /// Runs every stream through the batched fleet loop, wave by wave.
  FleetRunResult Run();

  /// Runs one stream solo — same per-stream state machine, no cross-stream
  /// batching — for the bit-exactness comparison.
  FleetStreamResult RunStreamSolo(int stream_index);

  const data::Task& task() const { return task_; }
  const FleetConfig& config() const { return config_; }
  /// The fleet-private registry per-stream components report into.
  obs::MetricsRegistry& stream_metrics() { return *stream_metrics_; }

 private:
  struct Shard;  // One resident stream of a wave (stream_fleet.cc).

  data::Task task_;
  FleetConfig config_;
  int threads_ = 1;
  obs::MetricsRegistry* metrics_;
  obs::TraceBuffer* trace_;
  std::unique_ptr<obs::MetricsRegistry> stream_metrics_;
  std::unique_ptr<obs::Logger> stream_log_;

  std::unique_ptr<eval::TaskEnvironment> env_;
  std::unique_ptr<eval::TrainedEventHit> trained_;
  nn::Workspace ws_;  // Main-thread scoring scratch.

  std::atomic<int64_t> budget_spend_microusd_{0};

  // Cached fleet-level telemetry handles.
  obs::Counter* streams_completed_metric_;
  obs::Counter* frames_pushed_metric_;
  obs::Counter* requests_metric_;
  obs::Counter* batches_metric_;
  obs::Counter* flush_full_metric_;
  obs::Counter* flush_deadline_metric_;
  obs::Counter* flush_final_metric_;
  obs::Counter* budget_breaches_metric_;
  obs::Gauge* streams_active_metric_;
  obs::Gauge* budget_spend_metric_;
  obs::Histogram* batch_fill_metric_;
  obs::Histogram* request_delay_metric_;
};

}  // namespace eventhit::fleet

#endif  // EVENTHIT_FLEET_STREAM_FLEET_H_
