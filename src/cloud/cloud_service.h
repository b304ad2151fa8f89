// Simulated cloud inference service (the "CI" of the paper): an accurate,
// per-frame-priced event detector in the style of Amazon Rekognition.
//
// The service detects events against the ground-truth timeline with
// configurable per-frame accuracy, and keeps an invoice of frames
// processed, dollars accrued, and simulated compute time — the quantities
// behind Figures 8–10.
#ifndef EVENTHIT_CLOUD_CLOUD_SERVICE_H_
#define EVENTHIT_CLOUD_CLOUD_SERVICE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "sim/interval.h"
#include "sim/synthetic_video.h"

namespace eventhit::cloud {

/// Pricing/throughput/accuracy of the cloud service.
struct CloudConfig {
  /// Amazon Rekognition image pricing used in §VI.G.
  double price_per_frame_usd = 0.001;
  /// Server-side model throughput (I3D-like, §VI.H).
  double frames_per_second = 30.0;
  /// Per-frame probability the (highly accurate) cloud model labels a frame
  /// correctly.
  double accuracy = 0.99;
};

/// Accrued usage since the last reset.
struct Invoice {
  int64_t frames_processed = 0;
  int64_t requests = 0;
  double total_cost_usd = 0.0;
  double compute_seconds = 0.0;
};

/// The service's telemetry handles on one registry, resolved once per
/// registry (obs::MetricsRegistry::HandleSet).
struct CloudMetrics {
  explicit CloudMetrics(obs::MetricsRegistry& registry);
  /// The registry's set; nullptr selects obs::MetricsRegistry::Global().
  static const CloudMetrics& Of(obs::MetricsRegistry* registry);

  obs::Counter* requests;
  obs::Counter* frames;
  obs::Gauge* cost;
  obs::Gauge* compute;
  obs::Histogram* request_frames;
  obs::Histogram* request_latency;
};

/// The service. Detection results come from the stream's ground truth,
/// perturbed by the configured accuracy — callers treat it as the paper
/// treats the CI: the most accurate detector available.
class CloudService {
 public:
  /// `video` must outlive the service. Telemetry goes to `metrics`
  /// (docs/TELEMETRY.md, cloud.* names); nullptr selects
  /// obs::MetricsRegistry::Global().
  CloudService(const sim::SyntheticVideo* video, const CloudConfig& config,
               uint64_t seed, obs::MetricsRegistry* metrics = nullptr);

  /// Analyses the frames of `interval` (absolute stream frames) for event
  /// `event_index`. Returns one flag per frame (1 = detected), in a buffer
  /// the service reuses: the view is valid until the next detection.
  /// Accrues cost/time. Each frame draws once from the service's random
  /// stream, in frame order; the truth is read run by run between the
  /// event's occurrence edges.
  std::span<const uint8_t> DetectView(size_t event_index,
                                      const sim::Interval& interval);

  /// DetectView, copied out.
  std::vector<bool> Detect(size_t event_index, const sim::Interval& interval);

  /// Charges for `count` frames without materialising results (used by the
  /// accounting-only paths of the benches).
  void ChargeFrames(int64_t count);

  const Invoice& invoice() const { return invoice_; }

  /// Clears the invoice (the cloud.invoice.* gauges reset with it; the
  /// cloud.* counters are cumulative and unaffected).
  void ResetInvoice();

  const CloudConfig& config() const { return config_; }

 private:
  const sim::SyntheticVideo* video_;
  CloudConfig config_;
  Invoice invoice_;
  Rng rng_;
  std::vector<uint8_t> detections_;  // DetectView's buffer.
  const CloudMetrics* metrics_;      // Valid for the registry's lifetime.
};

}  // namespace eventhit::cloud

#endif  // EVENTHIT_CLOUD_CLOUD_SERVICE_H_
