// End-to-end drift scenario (§VIII future work): EventHit is trained and
// calibrated on one occurrence regime; the stream then shifts. The drift
// detector, fed the conformal p-values of positive records confirmed after
// the fact, must stay quiet before the shift and fire after it.
#include <gtest/gtest.h>

#include "core/c_classify.h"
#include "core/calibration.h"
#include "core/drift_detector.h"
#include "core/eventhit_model.h"
#include "data/record_extractor.h"
#include "data/tasks.h"
#include "sim/datasets.h"
#include "sim/synthetic_video.h"

namespace eventhit::core {
namespace {

TEST(DriftPipelineTest, DetectorFiresAfterDistributionShift) {
  // Regime A: the THUMOS spec. Regime B: precursors arrive much later
  // (lead shrinks), so the trained model's scores on positives collapse.
  sim::DatasetSpec before = sim::MakeDatasetSpec(sim::DatasetId::kThumos);
  before.num_frames = 90000;
  sim::DatasetSpec after = before;
  after.num_frames = 90000;
  for (auto& ev : after.events) {
    ev.lead_mean = 25.0;  // Nearly no advance warning any more.
    ev.lead_std = 5.0;
    ev.weak_precursor_prob = 0.95;
  }
  const sim::SyntheticVideo video =
      sim::SyntheticVideo::GenerateWithShift(before, after, 97);

  const data::Task task = data::FindTask("TA10").value();
  data::ExtractorConfig extractor;
  extractor.collection_window = before.collection_window;
  extractor.horizon = before.horizon;

  // Train + calibrate on the pre-shift regime.
  const sim::Interval train_range{extractor.collection_window,
                                  static_cast<int64_t>(55000)};
  const sim::Interval calib_range{55001, 80000};
  Rng rng(3);
  const auto train = data::SampleBalancedRecords(
      video, task, extractor, train_range, 400, 0.5, rng);
  // A valid conformal p-value can never be smaller than 1/(n+1), so the
  // martingale's per-observation evidence is bounded by the calibration
  // size; a deeper calibration set keeps the detector responsive.
  const auto calib = data::SampleUniformRecords(video, task, extractor,
                                                calib_range, 800, rng);
  EventHitConfig config;
  config.collection_window = extractor.collection_window;
  config.horizon = extractor.horizon;
  config.feature_dim = video.feature_dim();
  config.num_events = 1;
  config.epochs = 10;
  EventHitModel model(config);
  model.Train(train);
  const Calibrators calibrators = Calibrate(model, calib, 0.5);
  const CClassify& cclassify = *calibrators.cclassify;

  // Stream positives through the detector, in stream order.
  DriftDetector detector;
  int64_t fired_at = -1;
  for (int64_t frame = 80001;
       frame + extractor.horizon < video.num_frames(); frame += 60) {
    const auto record = data::BuildRecord(video, task, extractor, frame);
    if (!record.labels[0].present) continue;  // CI confirms positives only.
    const auto p = cclassify.PValues(model.Predict(record));
    if (detector.Observe(p[0]) && fired_at < 0) {
      fired_at = frame;
    }
  }
  ASSERT_GE(fired_at, 0) << "drift never detected";
  // Quiet before the shift (frames 80k..90k share the training regime),
  // loud after it. Detection latency is bounded below by the validity of
  // the p-values themselves: p can never drop under 1/(n+1), and the
  // calibration set's own weak-precursor tail (~8% of records) caps how
  // extreme a drifted score can look, so at the default ~1e5-observation
  // false-alarm threshold the reflected martingale needs a sustained run
  // of low p-values — tens of thousands of frames — before it crosses.
  EXPECT_GE(fired_at, 88000);
  EXPECT_LE(fired_at, 150000);
}

TEST(DriftPipelineTest, NoFalseAlarmWithoutShift) {
  sim::DatasetSpec spec = sim::MakeDatasetSpec(sim::DatasetId::kThumos);
  spec.num_frames = 150000;
  const sim::SyntheticVideo video = sim::SyntheticVideo::Generate(spec, 98);

  const data::Task task = data::FindTask("TA10").value();
  data::ExtractorConfig extractor;
  extractor.collection_window = spec.collection_window;
  extractor.horizon = spec.horizon;

  Rng rng(4);
  const auto train = data::SampleBalancedRecords(
      video, task, extractor,
      sim::Interval{extractor.collection_window, 55000}, 400, 0.5, rng);
  const auto calib = data::SampleUniformRecords(
      video, task, extractor, sim::Interval{55001, 80000}, 400, rng);
  EventHitConfig config;
  config.collection_window = extractor.collection_window;
  config.horizon = extractor.horizon;
  config.feature_dim = video.feature_dim();
  config.num_events = 1;
  config.epochs = 10;
  EventHitModel model(config);
  model.Train(train);
  const Calibrators calibrators = Calibrate(model, calib, 0.5);
  const CClassify& cclassify = *calibrators.cclassify;

  DriftDetector detector;
  for (int64_t frame = 80001;
       frame + extractor.horizon < video.num_frames(); frame += 180) {
    const auto record = data::BuildRecord(video, task, extractor, frame);
    if (!record.labels[0].present) continue;
    detector.Observe(cclassify.PValues(model.Predict(record))[0]);
  }
  EXPECT_FALSE(detector.drift_detected());
}

}  // namespace
}  // namespace eventhit::core
