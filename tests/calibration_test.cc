// core::Calibrate scores each positive calibration record once and builds
// the C-CLASSIFY and C-REGRESS that scoring every record twice, once per
// wrapper, built: the same p-values and the same widened intervals.
#include "core/calibration.h"

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/interval_extraction.h"
#include "core/recalibrator.h"
#include "data/tasks.h"
#include "eval/runner.h"
#include "obs/metrics.h"
#include "obs/schema.h"

namespace eventhit::core {
namespace {

// Calibration as two constructors ran it: each scored every record and
// kept the (record, event) pairs whose event is present.
Calibrators TwoPassCalibration(const EventHitModel& model,
                               const std::vector<data::Record>& calibration,
                               double tau2) {
  const size_t k_events = model.config().num_events;
  const std::vector<EventScores> classify_scores =
      PredictBatch(model, calibration);
  std::vector<std::vector<double>> nonconformity(k_events);
  for (size_t i = 0; i < calibration.size(); ++i) {
    for (size_t k = 0; k < k_events; ++k) {
      if (calibration[i].labels[k].present) {
        nonconformity[k].push_back(1.0 - classify_scores[i].existence[k]);
      }
    }
  }
  const std::vector<EventScores> regress_scores =
      PredictBatch(model, calibration);
  std::vector<std::vector<double>> start_residuals(k_events);
  std::vector<std::vector<double>> end_residuals(k_events);
  for (size_t i = 0; i < calibration.size(); ++i) {
    for (size_t k = 0; k < k_events; ++k) {
      const data::EventLabel& label = calibration[i].labels[k];
      if (!label.present) continue;
      const sim::Interval estimate =
          ExtractOccurrenceInterval(regress_scores[i].occupancy[k], tau2);
      start_residuals[k].push_back(
          std::fabs(static_cast<double>(estimate.start - label.start)));
      end_residuals[k].push_back(
          std::fabs(static_cast<double>(estimate.end - label.end)));
    }
  }
  Calibrators calibrators;
  calibrators.cclassify = std::make_unique<CClassify>(nonconformity);
  calibrators.cregress = std::make_unique<CRegress>(
      start_residuals, end_residuals, model.config().horizon);
  return calibrators;
}

// Same calibration sizes, and at every probe the same p-values and
// existence calls over a grid of confidence levels c and the same
// quantiles and widened intervals over a grid of coverage levels alpha.
void ExpectSameCalibrators(const Calibrators& got, const Calibrators& want,
                           const std::vector<EventScores>& probes,
                           double tau2) {
  const size_t k_events = want.cclassify->num_events();
  ASSERT_EQ(got.cclassify->num_events(), k_events);
  ASSERT_EQ(got.cregress->num_events(), k_events);
  for (size_t k = 0; k < k_events; ++k) {
    EXPECT_EQ(got.cclassify->CalibrationSize(k),
              want.cclassify->CalibrationSize(k))
        << "event " << k;
    EXPECT_EQ(got.cregress->CalibrationSize(k),
              want.cregress->CalibrationSize(k))
        << "event " << k;
  }
  const double confidences[] = {0.5, 0.8, 0.9, 0.95, 0.99};
  const double alphas[] = {0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99};
  for (size_t p = 0; p < probes.size(); ++p) {
    const EventScores& probe = probes[p];
    EXPECT_EQ(got.cclassify->PValues(probe), want.cclassify->PValues(probe))
        << "probe " << p;
    for (const double c : confidences) {
      EXPECT_EQ(got.cclassify->PredictExistence(probe, c),
                want.cclassify->PredictExistence(probe, c))
          << "probe " << p << " c " << c;
    }
    for (size_t k = 0; k < k_events; ++k) {
      const sim::Interval estimate =
          ExtractOccurrenceInterval(probe.occupancy[k], tau2);
      for (const double alpha : alphas) {
        EXPECT_EQ(got.cregress->StartQuantile(k, alpha),
                  want.cregress->StartQuantile(k, alpha));
        EXPECT_EQ(got.cregress->EndQuantile(k, alpha),
                  want.cregress->EndQuantile(k, alpha));
        EXPECT_EQ(got.cregress->Adjust(k, estimate, alpha),
                  want.cregress->Adjust(k, estimate, alpha))
            << "probe " << p << " event " << k << " alpha " << alpha;
      }
    }
  }
}

// Records PredictBatch has scored in this process so far.
int64_t RecordsScored() {
  for (const obs::HistogramSnapshot& h :
       obs::MetricsRegistry::Global().Snapshot().histograms) {
    if (h.name == obs::names::kPredictBatchSize) {
      return static_cast<int64_t>(h.sum);
    }
  }
  return 0;
}

size_t CountPositives(const std::vector<data::Record>& records) {
  size_t n = 0;
  for (const data::Record& record : records) n += HasPresentEvent(record);
  return n;
}

// A shrunken world with a briefly trained model.
struct World {
  explicit World(const char* task_name) {
    eval::RunnerConfig config;
    config.stream_frames_override = 40000;
    config.train_records = 200;
    config.calib_records = 300;
    config.test_records = 60;
    config.model_template.epochs = 2;
    env = std::make_unique<eval::TaskEnvironment>(eval::TaskEnvironment::Build(
        data::FindTask(task_name).value(), config));
    trained = eval::TrainEventHit(*env, config);
  }
  std::unique_ptr<eval::TaskEnvironment> env;
  eval::TrainedEventHit trained;
};

// TA9: three THUMOS events, so each record may hold some events only.
class CalibrateTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { world_ = new World("TA9"); }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }

  static World* world_;
};

World* CalibrateTest::world_ = nullptr;

TEST_F(CalibrateTest, OnePassEqualsTwoPassCalibrationOnTA9) {
  const EventHitModel& model = *world_->trained.model;
  const std::vector<data::Record>& calib = world_->env->calib_records();
  // The set mixes records with no event, with some of the three events
  // and with others: each event's calibration set is its own subset.
  size_t none = 0;
  size_t some_not_all = 0;
  for (const data::Record& record : calib) {
    size_t present = 0;
    for (const data::EventLabel& label : record.labels) {
      present += label.present;
    }
    none += present == 0;
    some_not_all += present > 0 && present < record.labels.size();
  }
  ASSERT_GT(none, 0u);
  ASSERT_GT(some_not_all, 0u);

  const std::vector<EventScores>& probes = world_->trained.test_scores;
  for (const double tau2 : {0.5, 0.3}) {
    SCOPED_TRACE("tau2 " + std::to_string(tau2));
    ExpectSameCalibrators(Calibrate(model, calib, tau2),
                          TwoPassCalibration(model, calib, tau2), probes,
                          tau2);
  }
  // Equal at any thread count: the lists are assembled in record order.
  const ExecutionContext pooled(3, 1);
  ExpectSameCalibrators(Calibrate(model, calib, 0.5, pooled),
                        TwoPassCalibration(model, calib, 0.5), probes, 0.5);
}

TEST_F(CalibrateTest, ScoresEachPositiveRecordOnce) {
  const std::vector<data::Record>& calib = world_->env->calib_records();
  const int64_t before = RecordsScored();
  Calibrate(*world_->trained.model, calib, 0.5);
  EXPECT_EQ(RecordsScored() - before,
            static_cast<int64_t>(CountPositives(calib)));
  EXPECT_LT(CountPositives(calib), calib.size());
}

TEST(CalibrateRecalTest, RebuildEqualsTwoPassCalibration) {
  // A recal window over TA10 (one event) that has evicted its oldest
  // records: the rebuild reads the window's records in arrival order.
  const World world("TA10");
  Recalibrator recalibrator(world.trained.model.get(), /*capacity=*/150,
                            /*tau2=*/0.5);
  const std::vector<data::Record>& source = world.env->calib_records();
  for (const data::Record& record : source) {
    recalibrator.AddLabeledRecord(record);
  }
  ASSERT_EQ(recalibrator.size(), 150u);
  ASSERT_TRUE(recalibrator.CanRebuild(150, 10));
  const std::vector<data::Record> window(source.end() - 150, source.end());
  ExpectSameCalibrators(recalibrator.Rebuild(),
                        TwoPassCalibration(*world.trained.model, window, 0.5),
                        world.trained.test_scores, 0.5);
}

// The worlds perfbench trains every fleet on (runner seed 42, 60,000
// frames, 400/400/100 records): set-up scores the positive calibration
// records once, then the test records.
TEST(CalibrateSetUpTest, PerfbenchWorldsScoreOnlyTheirPositives) {
  struct World {
    const char* task;
    size_t positives;
  };
  for (const World world : {World{"TA13", 174}, World{"TA10", 86}}) {
    SCOPED_TRACE(world.task);
    eval::RunnerConfig config;
    config.seed = 42;
    config.stream_frames_override = 60000;
    config.train_records = 400;
    config.calib_records = 400;
    config.test_records = 100;
    config.model_template.epochs = 1;  // The count does not depend on it.
    const eval::TaskEnvironment env = eval::TaskEnvironment::Build(
        data::FindTask(world.task).value(), config);
    EXPECT_EQ(CountPositives(env.calib_records()), world.positives);
    const int64_t before = RecordsScored();
    eval::TrainEventHit(env, config);
    EXPECT_EQ(RecordsScored() - before,
              static_cast<int64_t>(world.positives + config.test_records));
  }
}

}  // namespace
}  // namespace eventhit::core
