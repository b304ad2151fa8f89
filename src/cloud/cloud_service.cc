#include "cloud/cloud_service.h"

#include <algorithm>

#include "common/check.h"
#include "obs/schema.h"

namespace eventhit::cloud {

CloudMetrics::CloudMetrics(obs::MetricsRegistry& registry)
    : requests(registry.GetCounter(obs::names::kCloudRequests)),
      frames(registry.GetCounter(obs::names::kCloudFramesProcessed)),
      cost(registry.GetGauge(obs::names::kCloudInvoiceCostUsd)),
      compute(registry.GetGauge(obs::names::kCloudInvoiceComputeSeconds)),
      request_frames(registry.GetHistogram(obs::names::kCloudRequestFrames,
                                           obs::FrameCountBounds())),
      request_latency(
          registry.GetHistogram(obs::names::kCloudRequestLatencySeconds,
                                obs::LatencySecondsBounds())) {}

const CloudMetrics& CloudMetrics::Of(obs::MetricsRegistry* registry) {
  return (registry != nullptr ? *registry : obs::MetricsRegistry::Global())
      .HandleSet<CloudMetrics>();
}

CloudService::CloudService(const sim::SyntheticVideo* video,
                           const CloudConfig& config, uint64_t seed,
                           obs::MetricsRegistry* metrics)
    : video_(video),
      config_(config),
      rng_(seed),
      metrics_(&CloudMetrics::Of(metrics)) {
  EVENTHIT_CHECK(video_ != nullptr);
  EVENTHIT_CHECK_GT(config_.frames_per_second, 0.0);
  EVENTHIT_CHECK_GE(config_.accuracy, 0.0);
  EVENTHIT_CHECK_LE(config_.accuracy, 1.0);
  // A relayed interval lies within one horizon, so the buffer never grows
  // after construction on the marshaller's orders.
  detections_.reserve(
      static_cast<size_t>(std::max(0, video_->spec().horizon)));
}

std::span<const uint8_t> CloudService::DetectView(
    size_t event_index, const sim::Interval& interval) {
  EVENTHIT_CHECK(!interval.empty());
  EVENTHIT_CHECK_GE(interval.start, 0);
  EVENTHIT_CHECK_LT(interval.end, video_->num_frames());
  detections_.resize(static_cast<size_t>(interval.length()));
  uint8_t* out = detections_.data();
  // Occurrences are sorted and disjoint, so the first one ending at or
  // after t is the only one that can cover t: the truth is constant up to
  // its start (absent) and then up to its end (present).
  const std::vector<sim::Interval>& events =
      video_->timeline().occurrences(event_index);
  auto next = std::lower_bound(
      events.begin(), events.end(), interval.start,
      [](const sim::Interval& iv, int64_t t) { return iv.end < t; });
  for (int64_t t = interval.start; t <= interval.end;) {
    const bool truth = next != events.end() && next->start <= t;
    int64_t run_end = interval.end;
    if (truth) {
      run_end = std::min(run_end, next->end);
      ++next;
    } else if (next != events.end()) {
      run_end = std::min(run_end, next->start - 1);
    }
    for (; t <= run_end; ++t) {
      // A correct detection reports the truth, a wrong one its negation.
      *out++ = rng_.Bernoulli(config_.accuracy) == truth;
    }
  }
  ChargeFrames(interval.length());
  ++invoice_.requests;
  metrics_->requests->Add(1);
  metrics_->request_frames->Observe(static_cast<double>(interval.length()));
  metrics_->request_latency->Observe(static_cast<double>(interval.length()) /
                                     config_.frames_per_second);
  return {detections_.data(), detections_.size()};
}

std::vector<bool> CloudService::Detect(size_t event_index,
                                       const sim::Interval& interval) {
  const std::span<const uint8_t> detections = DetectView(event_index, interval);
  return std::vector<bool>(detections.begin(), detections.end());
}

void CloudService::ChargeFrames(int64_t count) {
  EVENTHIT_CHECK_GE(count, 0);
  invoice_.frames_processed += count;
  invoice_.total_cost_usd +=
      static_cast<double>(count) * config_.price_per_frame_usd;
  invoice_.compute_seconds +=
      static_cast<double>(count) / config_.frames_per_second;
  metrics_->frames->Add(count);
  metrics_->cost->Set(invoice_.total_cost_usd);
  metrics_->compute->Set(invoice_.compute_seconds);
}

void CloudService::ResetInvoice() {
  invoice_ = Invoice{};
  metrics_->cost->Set(0.0);
  metrics_->compute->Set(0.0);
}

}  // namespace eventhit::cloud
