// Drift monitoring (§VIII future work): a deployed EventHit model watches
// a stream whose occurrence regime changes mid-deployment (precursors lose
// their advance warning). The conformal drift detector, fed the p-values of
// CI-confirmed positive horizons, raises a recalibration alarm after the
// change — and stays quiet before it. The scenario is the one
// tests/drift_pipeline_test.cc pins (DetectorFiresAfterDistributionShift).
//
// Usage: drift_monitor [seed]   (exits 1 when no alarm fires)

#include <cstdlib>
#include <iostream>

#include "common/table_printer.h"
#include "core/calibration.h"
#include "core/drift_detector.h"
#include "core/eventhit_model.h"
#include "data/record_extractor.h"
#include "data/tasks.h"
#include "sim/datasets.h"

namespace {

using ::eventhit::Fmt;
namespace core = ::eventhit::core;
namespace data = ::eventhit::data;
namespace sim = ::eventhit::sim;

}  // namespace

int main(int argc, char** argv) {
  const uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 97;

  // Regime A = THUMOS as published; regime B = precursors collapse.
  sim::DatasetSpec before = sim::MakeDatasetSpec(sim::DatasetId::kThumos);
  before.num_frames = 90000;
  // The camera angle changes: precursors arrive with almost no advance
  // warning and are mostly too weak for the detector.
  sim::DatasetSpec after = before;
  after.num_frames = 90000;
  for (auto& ev : after.events) {
    ev.lead_mean = 25.0;
    ev.lead_std = 5.0;
    ev.weak_precursor_prob = 0.95;
  }
  std::cout << "Generating a stream that shifts regimes at frame "
            << before.num_frames << "...\n";
  const sim::SyntheticVideo video =
      sim::SyntheticVideo::GenerateWithShift(before, after, seed);

  const data::Task task = data::FindTask("TA10").value();
  data::ExtractorConfig extractor;
  extractor.collection_window = before.collection_window;
  extractor.horizon = before.horizon;

  // Record sampling is seeded apart from the stream, as in the test. A
  // deep calibration set keeps the detector responsive: a valid conformal
  // p-value is never below 1/(n+1).
  eventhit::Rng rng(3);
  const auto train = data::SampleBalancedRecords(
      video, task, extractor,
      sim::Interval{extractor.collection_window, 55000}, 400, 0.5, rng);
  const auto calib = data::SampleUniformRecords(
      video, task, extractor, sim::Interval{55001, 80000}, 800, rng);

  core::EventHitConfig config;
  config.collection_window = extractor.collection_window;
  config.horizon = extractor.horizon;
  config.feature_dim = video.feature_dim();
  config.num_events = 1;
  config.epochs = 10;
  core::EventHitModel model(config);
  std::cout << "Training on the pre-shift regime...\n";
  model.Train(train);
  const core::Calibrators calibrators = core::Calibrate(model, calib, 0.5);
  const core::CClassify& cclassify = *calibrators.cclassify;

  core::DriftDetector detector;
  std::cout << "Monitoring confirmed positives...\n\n";
  eventhit::TablePrinter table({"Frame", "log-martingale", "Status"});
  int64_t alarm_frame = -1;
  int64_t last_logged = 0;
  for (int64_t frame = 80001;
       frame + extractor.horizon < video.num_frames(); frame += 60) {
    const auto record = data::BuildRecord(video, task, extractor, frame);
    if (!record.labels[0].present) continue;
    const auto p = cclassify.PValues(model.Predict(record));
    const bool fired = detector.Observe(p[0]);
    if (frame - last_logged > 10000 || (fired && alarm_frame < 0)) {
      table.AddRow({Fmt(frame), Fmt(detector.log_martingale(), 2),
                    detector.drift_detected() ? "ALARM" : "ok"});
      last_logged = frame;
    }
    if (fired && alarm_frame < 0) alarm_frame = frame;
  }
  table.Print(std::cout);

  std::cout << "\nShift occurred at frame " << video.shift_frame() << ".\n";
  if (alarm_frame >= 0) {
    std::cout << "Drift alarm at frame " << alarm_frame << " — "
              << (alarm_frame - video.shift_frame())
              << " frames after the shift. Recommended action: re-route the "
                 "stream to the CI, collect fresh labels, retrain and "
                 "recalibrate.\n";
    return 0;
  }
  std::cout << "No alarm raised: the detector missed this shift.\n";
  return 1;
}
