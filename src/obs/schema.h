// Canonical telemetry schema: every metric and span name the pipeline can
// register, in one place. Instrumentation sites reference these constants
// (never string literals), and the schema-sync test cross-checks this list
// against docs/TELEMETRY.md — adding a metric without documenting it fails
// the build's test suite.
#ifndef EVENTHIT_OBS_SCHEMA_H_
#define EVENTHIT_OBS_SCHEMA_H_

#include <string>
#include <vector>

namespace eventhit::obs::names {

// --- Counters ---------------------------------------------------------

// Frame accounting of the streaming marshaller. The invariant
//   marshaller.frames.relayed + marshaller.frames.filtered
//     == marshaller.frames.total
// holds at every prediction boundary: each predicted horizon contributes
// the billed relay union to relayed, the unrelayed remainder of the
// horizon to filtered, and their sum — max(H, billed), since widened
// intervals may spill past the horizon boundary — to total.
inline constexpr char kMarshallerFramesTotal[] = "marshaller.frames.total";
inline constexpr char kMarshallerFramesRelayed[] =
    "marshaller.frames.relayed";
inline constexpr char kMarshallerFramesFiltered[] =
    "marshaller.frames.filtered";
inline constexpr char kMarshallerHorizonsPredicted[] =
    "marshaller.horizons.predicted";
inline constexpr char kMarshallerRelayOrders[] = "marshaller.relay.orders";
inline constexpr char kMarshallerEventsPredictedPresent[] =
    "marshaller.events.predicted_present";
inline constexpr char kMarshallerEventsPredictedAbsent[] =
    "marshaller.events.predicted_absent";

// Cloud-service usage (mirrors the Invoice).
inline constexpr char kCloudRequests[] = "cloud.requests";
inline constexpr char kCloudFramesProcessed[] = "cloud.frames.processed";

// Resilient cloud relay (cloud/relay.h). Frame accounting upholds
//   relay.frames.delivered + relay.frames.dropped + <pending in queue>
//     == relay.frames.submitted
// at every breaker state transition; once the relay is flushed the queue
// is empty and delivered + dropped == submitted exactly.
inline constexpr char kRelayOrdersSubmitted[] = "relay.orders.submitted";
inline constexpr char kRelayOrdersDelivered[] = "relay.orders.delivered";
inline constexpr char kRelayOrdersDropped[] = "relay.orders.dropped";
inline constexpr char kRelayOrdersReplayed[] = "relay.orders.replayed";
inline constexpr char kRelayFramesSubmitted[] = "relay.frames.submitted";
inline constexpr char kRelayFramesDelivered[] = "relay.frames.delivered";
inline constexpr char kRelayFramesDropped[] = "relay.frames.dropped";
inline constexpr char kRelayFramesBuffered[] = "relay.frames.buffered";
inline constexpr char kRelayAttemptsTotal[] = "relay.attempts.total";
inline constexpr char kRelayAttemptsRetries[] = "relay.attempts.retries";
inline constexpr char kRelayFaultErrors[] = "relay.faults.errors";
inline constexpr char kRelayFaultLatencySpikes[] =
    "relay.faults.latency_spikes";

// Circuit breaker guarding the relay (cloud/circuit_breaker.h).
inline constexpr char kBreakerTransitions[] = "breaker.transitions";
inline constexpr char kBreakerOpens[] = "breaker.opens";

// Drift detection / recalibration.
inline constexpr char kDriftObservations[] = "drift.observations";
inline constexpr char kDriftAlarms[] = "drift.alarms";
inline constexpr char kRecalibratorRecordsAdded[] =
    "recalibrator.records.added";
inline constexpr char kRecalibratorRebuildsCClassify[] =
    "recalibrator.rebuilds.cclassify";
inline constexpr char kRecalibratorRebuildsCRegress[] =
    "recalibrator.rebuilds.cregress";

// Online recalibration loop (adapt/recal_loop.h): triggers split by source
// (auditor breach latch vs martingale drift alarm), refusals by guard
// (cooldown vs min-sample), and completed hot swaps.
inline constexpr char kRecalTriggersBreach[] = "recal.triggers.breach";
inline constexpr char kRecalTriggersDrift[] = "recal.triggers.drift";
inline constexpr char kRecalRefusalsCooldown[] = "recal.refusals.cooldown";
inline constexpr char kRecalRefusalsMinSamples[] =
    "recal.refusals.min_samples";
inline constexpr char kRecalSwaps[] = "recal.swaps";

// Guarantee auditor (obs/audit.h). Counters register both an unlabeled
// aggregate and per-event `{event_type=...}` series; `audit.breaches`
// additionally carries a `{guarantee=...}` label distinguishing the miss
// track (1-c) from the miscoverage track (1-alpha).
inline constexpr char kAuditOutcomes[] = "audit.outcomes";
inline constexpr char kAuditPositives[] = "audit.positives";
inline constexpr char kAuditMisses[] = "audit.misses";
inline constexpr char kAuditEndpoints[] = "audit.endpoints";
inline constexpr char kAuditMiscovered[] = "audit.miscovered";
inline constexpr char kAuditBreaches[] = "audit.breaches";

// Multi-tenant stream fleet (fleet/stream_fleet.h). Frame/request counters
// aggregate across every tenant stream; the flush counters split
// fleet.batches.flushed by cause (batch-full, deadline, end-of-wave), so
//   fleet.batches.flush_full + fleet.batches.flush_deadline
//     + fleet.batches.flush_final == fleet.batches.flushed.
inline constexpr char kFleetStreamsCompleted[] = "fleet.streams.completed";
inline constexpr char kFleetFramesPushed[] = "fleet.frames.pushed";
inline constexpr char kFleetRequestsSubmitted[] = "fleet.requests.submitted";
inline constexpr char kFleetBatchesFlushed[] = "fleet.batches.flushed";
inline constexpr char kFleetBatchesFlushFull[] = "fleet.batches.flush_full";
inline constexpr char kFleetBatchesFlushDeadline[] =
    "fleet.batches.flush_deadline";
inline constexpr char kFleetBatchesFlushFinal[] =
    "fleet.batches.flush_final";
inline constexpr char kFleetBudgetBreaches[] = "fleet.budget.breaches";
// Fleet ticks on which no push phase ran (no resident stream had a frame
// inside a collection window or on a boundary).
inline constexpr char kFleetTicksIdle[] = "fleet.ticks.idle";

// Collection scheduling (sched/collect_policy.h), emitted by the
// marshaller at every completed prediction boundary. Horizons split into
// scored (a model forward ran) and reused (the policy replayed the last
// decision); frames split into scored (charged feature-extraction cost)
// and skipped (extraction avoided). The flops counters price both sides
// with the local cost model (sched/cost_model.h) in MFLOPs.
inline constexpr char kSchedHorizonsScored[] = "sched.horizons.scored";
inline constexpr char kSchedHorizonsReused[] = "sched.horizons.reused";
inline constexpr char kSchedFramesScored[] = "sched.frames.scored";
inline constexpr char kSchedFramesSkipped[] = "sched.frames.skipped";
inline constexpr char kSchedFlopsLocalMflops[] = "sched.flops.local_mflops";
inline constexpr char kSchedFlopsSavedMflops[] = "sched.flops.saved_mflops";

// Trace ring overflow: events overwritten because the buffer was full
// (also exported into the Chrome trace as a metadata record).
inline constexpr char kTraceEventsDropped[] = "trace.events.dropped";

// Structured-log rate-limiter suppressions, labeled `{component=...}`:
// records rejected because their (component, event) key exhausted the
// per-key budget. Surfaced so a throttled narrative is visible instead of
// silently truncated (the retained records stay deterministic).
inline constexpr char kLogSuppressed[] = "log.suppressed";

// Thread-pool substrate (pooled path only; threads == 1 records nothing).
inline constexpr char kThreadPoolParallelForCalls[] =
    "threadpool.parallel_for.calls";
inline constexpr char kThreadPoolChunksExecuted[] =
    "threadpool.chunks.executed";
inline constexpr char kThreadPoolItemsProcessed[] =
    "threadpool.items.processed";
inline constexpr char kThreadPoolWorkerBusyMicros[] =
    "threadpool.worker.busy_micros";

// --- Gauges -----------------------------------------------------------

inline constexpr char kBreakerState[] = "breaker.state";
inline constexpr char kRelayQueueDepth[] = "relay.queue.depth";
inline constexpr char kCloudInvoiceCostUsd[] = "cloud.invoice.cost_usd";
inline constexpr char kCloudInvoiceComputeSeconds[] =
    "cloud.invoice.compute_seconds";
inline constexpr char kDriftLogMartingale[] = "drift.log_martingale";
inline constexpr char kRecalibratorWindowSize[] = "recalibrator.window.size";
inline constexpr char kRecalLastSwapFrame[] = "recal.last_swap_frame";
inline constexpr char kThreadPoolThreads[] = "threadpool.threads";
inline constexpr char kPipelineRelayedFramesPerHorizon[] =
    "pipeline.relayed_frames_per_horizon";

// Fleet health: tenant streams resident in the current wave and the
// aggregate spend tracked by the shared budget accountant.
inline constexpr char kFleetStreamsActive[] = "fleet.streams.active";
inline constexpr char kFleetBudgetSpendUsd[] = "fleet.budget.spend_usd";

// Effective collection stride of the installed policy (1 = full rate;
// duty policies hold their fixed stride, adaptive flips between 1 and
// its quiet stride).
inline constexpr char kSchedPolicyStride[] = "sched.policy.stride";

// Auditor health, labeled `{event_type=...}` (`audit.breach.active` also
// carries `{guarantee=...}`). Rates are rolling-window empirical values;
// the Wilson gauges are the one-sided lower confidence bounds compared
// against the guarantee budget by the breach detector.
inline constexpr char kAuditMissRate[] = "audit.miss.rate";
inline constexpr char kAuditMissBudget[] = "audit.miss.budget";
inline constexpr char kAuditMissWilsonLower[] = "audit.miss.wilson_lower";
inline constexpr char kAuditMiscoverageRate[] = "audit.miscoverage.rate";
inline constexpr char kAuditMiscoverageBudget[] = "audit.miscoverage.budget";
inline constexpr char kAuditMiscoverageWilsonLower[] =
    "audit.miscoverage.wilson_lower";
inline constexpr char kAuditBreachActive[] = "audit.breach.active";

// --- Histograms -------------------------------------------------------

inline constexpr char kMarshallerRelayOrderFrames[] =
    "marshaller.relay.order_frames";
inline constexpr char kCloudRequestFrames[] = "cloud.request.frames";
inline constexpr char kCloudRequestLatencySeconds[] =
    "cloud.request.latency_seconds";
inline constexpr char kThreadPoolParallelForItems[] =
    "threadpool.parallel_for.items";

// Batched-inference path: records per PredictBatch batch (the ragged tail
// batch makes this a distribution, not a constant).
inline constexpr char kPredictBatchSize[] = "predict.batch_size";

// Resilient relay request shape: attempts consumed per request and the
// simulated backoff slept before each retry.
inline constexpr char kRelayRequestAttempts[] = "relay.request.attempts";
inline constexpr char kRelayBackoffSeconds[] = "relay.backoff_seconds";

// Cross-stream dynamic batcher shape: records per flushed GEMM batch and
// ticks a request waited in the batcher before its flush.
inline constexpr char kFleetBatchFill[] = "fleet.batch.fill";
inline constexpr char kFleetRequestDelayTicks[] =
    "fleet.request.delay_ticks";

// --- Span names (wall timeline, category "stage") ---------------------

inline constexpr char kSpanRunnerBuildEnv[] = "runner.build_env";
inline constexpr char kSpanRunnerTrain[] = "runner.train";
inline constexpr char kSpanRunnerCalibrate[] = "runner.calibrate";
inline constexpr char kSpanRunnerPredictBatch[] = "runner.predict_batch";
inline constexpr char kSpanRunnerDecideBatch[] = "runner.decide_batch";
inline constexpr char kSpanCliGenerateStream[] = "cli.generate_stream";
inline constexpr char kSpanBenchEvaluateRep[] = "bench.evaluate_rep";
inline constexpr char kSpanNnGemm[] = "nn.gemm";

// --- Span names (wall timeline, category "threadpool") ----------------

inline constexpr char kSpanThreadPoolChunk[] = "threadpool.chunk";

// --- Span names (wall timeline, category "fleet") ---------------------

// One busy tick's encoder step: every stream that pushed a window frame
// advances its window's LSTM state in one batched step, and the scored
// boundaries among them enter the batcher.
inline constexpr char kSpanFleetEncode[] = "fleet.encode";

// One cross-stream batch flush: the event heads over the requests'
// encodings, then the per-stream completion fan-out.
inline constexpr char kSpanFleetBatch[] = "fleet.batch";

// --- Span names (simulated timeline, category "simulated") ------------
// The cost-model stages of one horizon (cloud/cost_model.h); aggregating
// these reproduces Fig. 10's per-stage proportions.

inline constexpr char kSpanStageFeatureExtraction[] =
    "stage.feature_extraction";
inline constexpr char kSpanStagePredictor[] = "stage.predictor";
inline constexpr char kSpanStageCi[] = "stage.ci";

// One relay outage: from the breaker tripping open to the close that ends
// it, on the simulated clock — Chrome-trace export shows outages as solid
// blocks on the simulated track.
inline constexpr char kSpanRelayOutage[] = "relay.outage";

// One latched guarantee breach: from the simulated time the detector
// latched to the end of the stream (breaches never unlatch).
inline constexpr char kSpanAuditBreach[] = "audit.breach";

}  // namespace eventhit::obs::names

namespace eventhit::obs {

/// Every metric name the pipeline can register, sorted. The schema-sync
/// test enforces (a) each appears in docs/TELEMETRY.md and (b) every name
/// actually registered at runtime is on this list.
std::vector<std::string> AllMetricNames();

/// Every span name the pipeline can emit, sorted; same doc contract.
std::vector<std::string> AllSpanNames();

/// Standard bucket bounds shared by frame-count histograms.
std::vector<double> FrameCountBounds();

/// Standard bucket bounds for simulated request latencies (seconds).
std::vector<double> LatencySecondsBounds();

/// Standard bucket bounds for ParallelFor item counts.
std::vector<double> ItemCountBounds();

/// Power-of-two bucket bounds for prediction batch sizes.
std::vector<double> BatchSizeBounds();

/// Bucket bounds for per-request relay attempt counts.
std::vector<double> AttemptCountBounds();

/// Bucket bounds for batcher queueing delays in simulated ticks.
std::vector<double> DelayTickBounds();

}  // namespace eventhit::obs

#endif  // EVENTHIT_OBS_SCHEMA_H_
