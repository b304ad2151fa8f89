// Builds (X_n, L_n, T_n) records from a synthetic stream, and samples the
// train / calibration / test record sets.
//
// Calibration and test records are sampled *the same way* (uniformly at
// random within their frame ranges) — the exchangeability precondition of
// the conformal guarantees. Training records may be class-balanced, which
// only affects model fitting, not the guarantees.
#ifndef EVENTHIT_DATA_RECORD_EXTRACTOR_H_
#define EVENTHIT_DATA_RECORD_EXTRACTOR_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "data/record.h"
#include "data/tasks.h"
#include "sim/synthetic_video.h"

namespace eventhit::data {

/// Record-extraction hyper-parameters.
struct ExtractorConfig {
  /// Collection-window size M.
  int collection_window = 25;
  /// Time-horizon length H.
  int horizon = 500;
};

/// Extracts a single record anchored at `frame`. Requires
/// frame >= M - 1, frame + H < video.num_frames() and, in a windowed
/// video, the window's M frames to be selected and contiguous.
Record BuildRecord(const sim::SyntheticVideo& video, const Task& task,
                   const ExtractorConfig& config, int64_t frame);

/// The labels of the record anchored at `frame`, as BuildRecord would set
/// them, read from the timeline alone into `labels` (cleared first, so a
/// reused buffer does not allocate). Same anchor bounds as BuildRecord,
/// but the window need not be stored: an audit reads truth here at
/// boundaries whose windows a windowed video left out.
void LookupLabels(const sim::SyntheticVideo& video, const Task& task,
                  const ExtractorConfig& config, int64_t frame,
                  std::vector<EventLabel>* labels);

/// Frame ranges of the three splits. The stream prefix is used for training
/// (the paper trains on frames f_1..f_P), a following slice for calibration,
/// and the remainder for testing.
struct SplitRanges {
  sim::Interval train;
  sim::Interval calib;
  sim::Interval test;
};

/// Computes split ranges honouring the window/horizon margins.
/// Fractions must be positive and sum to < 1 (the rest is test).
SplitRanges ComputeSplits(const sim::SyntheticVideo& video,
                          const ExtractorConfig& config, double train_frac,
                          double calib_frac);

/// Uniformly samples `count` record anchors in `range` (used for calibration
/// and test sets).
std::vector<Record> SampleUniformRecords(const sim::SyntheticVideo& video,
                                         const Task& task,
                                         const ExtractorConfig& config,
                                         const sim::Interval& range,
                                         size_t count, Rng& rng);

/// Samples `count` training records, oversampling anchors whose horizon
/// contains at least one task event until roughly `positive_fraction` of the
/// set is positive (or the range runs out of positives).
std::vector<Record> SampleBalancedRecords(const sim::SyntheticVideo& video,
                                          const Task& task,
                                          const ExtractorConfig& config,
                                          const sim::Interval& range,
                                          size_t count,
                                          double positive_fraction, Rng& rng);

}  // namespace eventhit::data

#endif  // EVENTHIT_DATA_RECORD_EXTRACTOR_H_
