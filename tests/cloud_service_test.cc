#include "cloud/cloud_service.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/datasets.h"

namespace eventhit::cloud {
namespace {

sim::SyntheticVideo SmallVideo() {
  sim::DatasetSpec spec = sim::MakeDatasetSpec(sim::DatasetId::kThumos);
  spec.num_frames = 30000;
  return sim::SyntheticVideo::Generate(spec, 51);
}

TEST(CloudServiceTest, InvoiceAccrual) {
  const sim::SyntheticVideo video = SmallVideo();
  CloudConfig config;
  config.price_per_frame_usd = 0.001;
  config.frames_per_second = 30.0;
  CloudService service(&video, config, 1);

  service.Detect(0, sim::Interval{100, 199});
  EXPECT_EQ(service.invoice().frames_processed, 100);
  EXPECT_EQ(service.invoice().requests, 1);
  EXPECT_NEAR(service.invoice().total_cost_usd, 0.1, 1e-12);
  EXPECT_NEAR(service.invoice().compute_seconds, 100.0 / 30.0, 1e-9);

  service.Detect(0, sim::Interval{200, 249});
  EXPECT_EQ(service.invoice().frames_processed, 150);
  EXPECT_EQ(service.invoice().requests, 2);

  service.ResetInvoice();
  EXPECT_EQ(service.invoice().frames_processed, 0);
  EXPECT_EQ(service.invoice().total_cost_usd, 0.0);
}

TEST(CloudServiceTest, PerfectAccuracyMatchesGroundTruth) {
  const sim::SyntheticVideo video = SmallVideo();
  CloudConfig config;
  config.accuracy = 1.0;
  CloudService service(&video, config, 2);
  const sim::Interval window{1000, 1999};
  const auto detections = service.Detect(0, window);
  ASSERT_EQ(detections.size(), 1000u);
  for (int64_t t = window.start; t <= window.end; ++t) {
    EXPECT_EQ(detections[static_cast<size_t>(t - window.start)],
              video.timeline().IsActive(0, t));
  }
}

TEST(CloudServiceTest, ImperfectAccuracyFlipsSomeLabels) {
  const sim::SyntheticVideo video = SmallVideo();
  CloudConfig config;
  config.accuracy = 0.9;
  CloudService service(&video, config, 3);
  const sim::Interval window{0, 9999};
  const auto detections = service.Detect(0, window);
  int64_t flips = 0;
  for (int64_t t = 0; t < 10000; ++t) {
    if (detections[static_cast<size_t>(t)] !=
        video.timeline().IsActive(0, t)) {
      ++flips;
    }
  }
  EXPECT_NEAR(static_cast<double>(flips) / 10000.0, 0.1, 0.02);
}

// Detect walks an interval in runs of constant truth. The reference looks
// each frame up on the timeline and draws its Bernoulli from a stream with
// the same seed, in the same order, across a sequence of intervals that
// start and end inside, before, after and across occurrences.
TEST(CloudServiceTest, RunWalkMatchesPerFrameLookup) {
  const sim::SyntheticVideo video = SmallVideo();
  const sim::EventTimeline& timeline = video.timeline();
  const int64_t last = video.num_frames() - 1;
  std::vector<std::pair<size_t, sim::Interval>> requests;
  Rng pick(8);
  for (size_t k = 0; k < timeline.num_event_types(); ++k) {
    const std::vector<sim::Interval>& occ = timeline.occurrences(k);
    ASSERT_GE(occ.size(), 3u);
    // Whole stream, then around every occurrence edge.
    requests.push_back({k, {0, last}});
    for (size_t i = 0; i < occ.size(); ++i) {
      const sim::Interval& o = occ[i];
      const int64_t next_start =
          i + 1 < occ.size() ? occ[i + 1].start : last + 1;
      requests.push_back({k, {std::max<int64_t>(0, o.start - 7), o.start}});
      requests.push_back({k, {o.start, o.start}});
      requests.push_back({k, {o.start + 1, o.end - 1}});
      requests.push_back({k, {o.end, std::min(last, o.end + 5)}});
      requests.push_back({k, {o.end + 1, next_start - 1}});  // The gap.
      requests.push_back(
          {k, {std::max<int64_t>(0, o.start - 30), std::min(last, o.end + 30)}});
    }
    // Spanning several occurrences and their gaps.
    requests.push_back({k, {occ[0].start - 1, occ[2].end + 1}});
    for (int r = 0; r < 200; ++r) {
      const int64_t start = pick.UniformInt(0, last);
      const int64_t length = pick.UniformInt(1, 600);
      requests.push_back({k, {start, std::min(last, start + length - 1)}});
    }
  }

  CloudConfig config;
  config.accuracy = 0.9;
  CloudService service(&video, config, 23);
  Rng reference_rng(23);
  for (const auto& [k, interval] : requests) {
    if (interval.empty()) continue;
    std::vector<bool> reference;
    for (int64_t t = interval.start; t <= interval.end; ++t) {
      const bool truth = timeline.IsActive(k, t);
      const bool correct = reference_rng.Bernoulli(config.accuracy);
      reference.push_back(correct ? truth : !truth);
    }
    ASSERT_EQ(service.Detect(k, interval), reference)
        << "event " << k << " [" << interval.start << ", " << interval.end
        << "]";
  }
}

TEST(CloudServiceTest, ChargeFramesWithoutDetection) {
  const sim::SyntheticVideo video = SmallVideo();
  CloudService service(&video, CloudConfig{}, 4);
  service.ChargeFrames(500);
  EXPECT_EQ(service.invoice().frames_processed, 500);
  EXPECT_EQ(service.invoice().requests, 0);
}

TEST(CloudServiceTest, InvalidIntervalDies) {
  const sim::SyntheticVideo video = SmallVideo();
  CloudService service(&video, CloudConfig{}, 5);
  EXPECT_DEATH(service.Detect(0, sim::Interval::Empty()), "CHECK failed");
  EXPECT_DEATH(service.Detect(0, sim::Interval{-5, 10}), "CHECK failed");
  EXPECT_DEATH(
      service.Detect(0, sim::Interval{0, video.num_frames() + 5}),
      "CHECK failed");
  EXPECT_DEATH(service.ChargeFrames(-1), "CHECK failed");
}

}  // namespace
}  // namespace eventhit::cloud
