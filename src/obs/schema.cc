#include "obs/schema.h"

#include <algorithm>

namespace eventhit::obs {

std::vector<std::string> AllMetricNames() {
  std::vector<std::string> all = {
      names::kMarshallerFramesTotal,
      names::kMarshallerFramesRelayed,
      names::kMarshallerFramesFiltered,
      names::kMarshallerHorizonsPredicted,
      names::kMarshallerRelayOrders,
      names::kMarshallerEventsPredictedPresent,
      names::kMarshallerEventsPredictedAbsent,
      names::kCloudRequests,
      names::kCloudFramesProcessed,
      names::kRelayOrdersSubmitted,
      names::kRelayOrdersDelivered,
      names::kRelayOrdersDropped,
      names::kRelayOrdersReplayed,
      names::kRelayFramesSubmitted,
      names::kRelayFramesDelivered,
      names::kRelayFramesDropped,
      names::kRelayFramesBuffered,
      names::kRelayAttemptsTotal,
      names::kRelayAttemptsRetries,
      names::kRelayFaultErrors,
      names::kRelayFaultLatencySpikes,
      names::kBreakerTransitions,
      names::kBreakerOpens,
      names::kBreakerState,
      names::kRelayQueueDepth,
      names::kRelayRequestAttempts,
      names::kRelayBackoffSeconds,
      names::kDriftObservations,
      names::kDriftAlarms,
      names::kRecalibratorRecordsAdded,
      names::kRecalibratorRebuildsCClassify,
      names::kRecalibratorRebuildsCRegress,
      names::kRecalTriggersBreach,
      names::kRecalTriggersDrift,
      names::kRecalRefusalsCooldown,
      names::kRecalRefusalsMinSamples,
      names::kRecalSwaps,
      names::kThreadPoolParallelForCalls,
      names::kThreadPoolChunksExecuted,
      names::kThreadPoolItemsProcessed,
      names::kThreadPoolWorkerBusyMicros,
      names::kCloudInvoiceCostUsd,
      names::kCloudInvoiceComputeSeconds,
      names::kDriftLogMartingale,
      names::kRecalibratorWindowSize,
      names::kRecalLastSwapFrame,
      names::kThreadPoolThreads,
      names::kPipelineRelayedFramesPerHorizon,
      names::kMarshallerRelayOrderFrames,
      names::kCloudRequestFrames,
      names::kCloudRequestLatencySeconds,
      names::kThreadPoolParallelForItems,
      names::kPredictBatchSize,
      names::kAuditOutcomes,
      names::kAuditPositives,
      names::kAuditMisses,
      names::kAuditEndpoints,
      names::kAuditMiscovered,
      names::kAuditBreaches,
      names::kAuditMissRate,
      names::kAuditMissBudget,
      names::kAuditMissWilsonLower,
      names::kAuditMiscoverageRate,
      names::kAuditMiscoverageBudget,
      names::kAuditMiscoverageWilsonLower,
      names::kAuditBreachActive,
      names::kTraceEventsDropped,
      names::kLogSuppressed,
      names::kFleetStreamsCompleted,
      names::kFleetFramesPushed,
      names::kFleetRequestsSubmitted,
      names::kFleetBatchesFlushed,
      names::kFleetBatchesFlushFull,
      names::kFleetBatchesFlushDeadline,
      names::kFleetBatchesFlushFinal,
      names::kFleetBudgetBreaches,
      names::kFleetTicksIdle,
      names::kFleetStreamsActive,
      names::kFleetBudgetSpendUsd,
      names::kFleetBatchFill,
      names::kFleetRequestDelayTicks,
      names::kSchedHorizonsScored,
      names::kSchedHorizonsReused,
      names::kSchedFramesScored,
      names::kSchedFramesSkipped,
      names::kSchedFlopsLocalMflops,
      names::kSchedFlopsSavedMflops,
      names::kSchedPolicyStride,
  };
  std::sort(all.begin(), all.end());
  return all;
}

std::vector<std::string> AllSpanNames() {
  std::vector<std::string> all = {
      names::kSpanRunnerBuildEnv,
      names::kSpanRunnerTrain,
      names::kSpanRunnerCalibrate,
      names::kSpanRunnerPredictBatch,
      names::kSpanRunnerDecideBatch,
      names::kSpanCliGenerateStream,
      names::kSpanBenchEvaluateRep,
      names::kSpanNnGemm,
      names::kSpanThreadPoolChunk,
      names::kSpanStageFeatureExtraction,
      names::kSpanStagePredictor,
      names::kSpanStageCi,
      names::kSpanRelayOutage,
      names::kSpanAuditBreach,
      names::kSpanFleetBatch,
      names::kSpanFleetEncode,
  };
  std::sort(all.begin(), all.end());
  return all;
}

std::vector<double> FrameCountBounds() {
  return {10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0};
}

std::vector<double> LatencySecondsBounds() {
  return {0.01, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0};
}

std::vector<double> ItemCountBounds() {
  return {1.0, 10.0, 100.0, 1000.0, 10000.0, 100000.0};
}

std::vector<double> BatchSizeBounds() {
  return {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0};
}

std::vector<double> AttemptCountBounds() {
  return {1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0};
}

std::vector<double> DelayTickBounds() {
  return {0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 32.0};
}

}  // namespace eventhit::obs
