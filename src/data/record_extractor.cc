#include "data/record_extractor.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace eventhit::data {
namespace {

// Minimum/maximum legal anchor for the given margins.
int64_t MinAnchor(const ExtractorConfig& config) {
  return config.collection_window - 1;
}
int64_t MaxAnchor(const sim::SyntheticVideo& video,
                  const ExtractorConfig& config) {
  return video.num_frames() - config.horizon - 1;
}

EventLabel LabelFor(const sim::SyntheticVideo& video, size_t event_index,
                    int64_t frame, int horizon) {
  EventLabel label;
  const sim::Interval window{frame + 1, frame + horizon};
  const auto occurrence =
      video.timeline().FirstOverlapping(event_index, window);
  if (!occurrence.has_value()) return label;
  label.present = true;
  label.start = static_cast<int>(
      std::max<int64_t>(occurrence->start - frame, 1));
  label.censored = occurrence->end > frame + horizon;
  label.end = static_cast<int>(
      std::min<int64_t>(occurrence->end - frame, horizon));
  return label;
}

}  // namespace

Record BuildRecord(const sim::SyntheticVideo& video, const Task& task,
                   const ExtractorConfig& config, int64_t frame) {
  EVENTHIT_CHECK_GE(frame, MinAnchor(config));
  EVENTHIT_CHECK_LE(frame, MaxAnchor(video, config));

  Record record;
  record.frame = frame;
  const size_t d = video.feature_dim();
  const size_t m = static_cast<size_t>(config.collection_window);
  record.covariates.resize(m * d);
  // Frames f_{n-M+1} .. f_n are contiguous rows, so one memcpy; a window
  // straddling frames that a windowed video left out is not, and dies.
  const float* src = video.FrameFeatures(frame - config.collection_window + 1);
  EVENTHIT_CHECK(video.FrameFeatures(frame) == src + (m - 1) * d);
  std::memcpy(record.covariates.data(), src, m * d * sizeof(float));
  LookupLabels(video, task, config, frame, &record.labels);
  return record;
}

void LookupLabels(const sim::SyntheticVideo& video, const Task& task,
                  const ExtractorConfig& config, int64_t frame,
                  std::vector<EventLabel>* labels) {
  EVENTHIT_CHECK_GE(frame, MinAnchor(config));
  EVENTHIT_CHECK_LE(frame, MaxAnchor(video, config));
  labels->clear();
  labels->reserve(task.event_indices.size());
  for (size_t event_index : task.event_indices) {
    labels->push_back(LabelFor(video, event_index, frame, config.horizon));
  }
}

SplitRanges ComputeSplits(const sim::SyntheticVideo& video,
                          const ExtractorConfig& config, double train_frac,
                          double calib_frac) {
  EVENTHIT_CHECK_GT(train_frac, 0.0);
  EVENTHIT_CHECK_GT(calib_frac, 0.0);
  EVENTHIT_CHECK_LT(train_frac + calib_frac, 1.0);
  const int64_t lo = MinAnchor(config);
  const int64_t hi = MaxAnchor(video, config);
  EVENTHIT_CHECK_LT(lo, hi);
  const auto span = static_cast<double>(hi - lo);
  const int64_t train_end = lo + static_cast<int64_t>(span * train_frac);
  const int64_t calib_end =
      lo + static_cast<int64_t>(span * (train_frac + calib_frac));
  SplitRanges splits;
  splits.train = sim::Interval{lo, train_end - 1};
  splits.calib = sim::Interval{train_end, calib_end - 1};
  splits.test = sim::Interval{calib_end, hi};
  return splits;
}

std::vector<Record> SampleUniformRecords(const sim::SyntheticVideo& video,
                                         const Task& task,
                                         const ExtractorConfig& config,
                                         const sim::Interval& range,
                                         size_t count, Rng& rng) {
  EVENTHIT_CHECK(!range.empty());
  std::vector<Record> records;
  records.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const int64_t frame = rng.UniformInt(range.start, range.end);
    records.push_back(BuildRecord(video, task, config, frame));
  }
  return records;
}

std::vector<Record> SampleBalancedRecords(const sim::SyntheticVideo& video,
                                          const Task& task,
                                          const ExtractorConfig& config,
                                          const sim::Interval& range,
                                          size_t count,
                                          double positive_fraction, Rng& rng) {
  EVENTHIT_CHECK(!range.empty());
  EVENTHIT_CHECK_GE(positive_fraction, 0.0);
  EVENTHIT_CHECK_LE(positive_fraction, 1.0);
  std::vector<Record> records;
  records.reserve(count);
  const auto target_positives =
      static_cast<size_t>(positive_fraction * static_cast<double>(count));
  size_t positives = 0;
  // Rejection sampling with a bounded number of attempts so extremely sparse
  // streams still terminate.
  const size_t max_attempts = count * 200;
  size_t attempts = 0;
  while (records.size() < count && attempts < max_attempts) {
    ++attempts;
    const int64_t frame = rng.UniformInt(range.start, range.end);
    Record record = BuildRecord(video, task, config, frame);
    const bool positive = AnyEventPresent(record);
    const size_t remaining = count - records.size();
    const size_t needed_positives =
        positives >= target_positives ? 0 : target_positives - positives;
    if (positive) {
      records.push_back(std::move(record));
      ++positives;
    } else if (remaining > needed_positives) {
      records.push_back(std::move(record));
    }
    // Otherwise: only positives still needed; reject this negative.
  }
  // If positives ran short, top up with uniform samples.
  while (records.size() < count) {
    const int64_t frame = rng.UniformInt(range.start, range.end);
    records.push_back(BuildRecord(video, task, config, frame));
  }
  return records;
}

}  // namespace eventhit::data
