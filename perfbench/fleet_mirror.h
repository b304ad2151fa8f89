// A traced copy of StreamFleet::Run's tick loop, assembled only from the
// public per-layer types: sim::SyntheticVideo, core::Marshaller,
// fleet::MpscQueue, fleet::DynamicBatcher, EventHitModel::PredictBatched,
// EventHitStrategy::DecideFromScores, cloud::CloudRelay, data::BuildRecord,
// obs::GuarantyAuditor and obs::StreamProvenance. Each call into a layer is
// bracketed by a span, so the traced run splits the fleet's wall time by
// layer. The per-stream results must equal those of Run(), which the
// traced benchmark checks on every stream.
#ifndef PERFBENCH_FLEET_MIRROR_H_
#define PERFBENCH_FLEET_MIRROR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cloud/cloud_service.h"
#include "cloud/relay.h"
#include "core/marshaller.h"
#include "eval/runner.h"
#include "fleet/stream_fleet.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "spans.h"

namespace perfbench {

/// Span names of the traced run, one per layer call site.
enum SpanId : int {
  kSpanRun,            // One mirror pass (the root).
  kSpanStreamInit,     // Building one stream's components.
  kSpanSimGenerate,    // sim::SyntheticVideo::Generate.
  kSpanTick,           // One fleet tick.
  kSpanPush,           // The push phase of a tick (every resident stream).
  kSpanHandoff,        // Request packing, MPSC queue, slot sort, batcher.
  kSpanFlush,          // One batch flush.
  kSpanFlushAssembly,  // Gathering a flush's records and scratch.
  kSpanPredict,        // EventHitModel::PredictBatched.
  kSpanDecide,         // EventHitStrategy::DecideFromScores.
  kSpanComplete,       // Marshaller::CompletePrediction.
  kSpanRelaySubmit,    // CloudRelay::Submit (+ provenance stamp).
  kSpanRelayAdvance,   // CloudRelay::AdvanceTo.
  kSpanTruthLookup,    // data::BuildRecord for the audit.
  kSpanAuditObserve,   // GuarantyAuditor::Observe (+ provenance stamps).
  kSpanFinish,         // Settling one stream at the end of its wave.
  kNumSpans,
};

/// Names indexed by SpanId.
std::vector<std::string> SpanNames();

/// The fields of a settled stream that the traced run must reproduce.
struct MirrorStream {
  eventhit::core::MarshallerStats marshaller;
  eventhit::cloud::RelayStats relay;
  eventhit::cloud::Invoice invoice;
  int64_t audit_positives = 0;
  int64_t audit_misses = 0;
  int64_t audit_endpoints = 0;
  int64_t audit_miscovered = 0;
  int64_t audit_breaches = 0;
  uint64_t provenance_digest = 0;
};

/// True when `mirror` equals the fleet's result for the same stream
/// (doubles compared by bit pattern).
bool SameAsFleet(const MirrorStream& mirror,
                 const eventhit::fleet::FleetStreamResult& fleet);

/// One pass over every stream of the fleet.
struct MirrorRun {
  std::vector<MirrorStream> streams;
  int64_t ticks = 0;
  int64_t flush_ticks = 0;
  int64_t requests = 0;
  int64_t batches = 0;
  int64_t flush_full = 0;
  int64_t flush_deadline = 0;
  int64_t flush_final = 0;
  int64_t frames_pushed = 0;
  std::vector<double> wait_ticks;  // Per request, in ticks.
  double wall_s = 0.0;
};

class FleetMirror {
 public:
  /// Mirrors `fleet`'s configuration with the separately trained model
  /// `trained` (the same deterministic training as the fleet's own).
  /// Both must outlive the mirror. Recalibration is not mirrored.
  FleetMirror(const eventhit::fleet::StreamFleet& fleet,
              const eventhit::eval::TrainedEventHit& trained);

  /// Runs every stream; `tracer` (nullptr = untraced) records the spans.
  MirrorRun Run(Tracer* tracer);

 private:
  struct Stream;

  void InitStream(Stream& stream, int stream_index, Tracer* tracer);
  void OnCompletion(Stream& stream, int64_t anchor,
                    const eventhit::core::MarshalDecision& decision,
                    Tracer* tracer);
  MirrorStream FinishStream(Stream& stream);

  const eventhit::fleet::StreamFleet& fleet_;
  const eventhit::eval::TrainedEventHit& trained_;
  // Per-stream components report here, as the fleet's do into its
  // private registry; kept across passes like the fleet's.
  eventhit::obs::MetricsRegistry stream_metrics_;
  eventhit::obs::Logger stream_log_;
};

}  // namespace perfbench

#endif  // PERFBENCH_FLEET_MIRROR_H_
