#include "core/recalibrator.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace eventhit::core {
namespace {

constexpr int kWindow = 4;
constexpr int kHorizon = 15;
constexpr size_t kDim = 2;

EventHitConfig TinyConfig() {
  EventHitConfig config;
  config.collection_window = kWindow;
  config.horizon = kHorizon;
  config.feature_dim = kDim;
  config.num_events = 1;
  config.lstm_hidden = 6;
  config.shared_dim = 6;
  config.event_hidden = 8;
  config.epochs = 2;
  return config;
}

data::Record RecordWithLabel(bool present, float level, Rng& rng) {
  data::Record record;
  record.covariates.resize(kWindow * kDim);
  for (auto& v : record.covariates) {
    v = level + static_cast<float>(rng.Gaussian(0, 0.05));
  }
  data::EventLabel label;
  if (present) {
    label.present = true;
    label.start = 3;
    label.end = 8;
  }
  record.labels.push_back(label);
  return record;
}

TEST(RecalibratorTest, WindowEvictsOldestAtCapacity) {
  EventHitModel model(TinyConfig());
  Recalibrator recalibrator(&model, 5);
  Rng rng(1);
  for (int i = 0; i < 8; ++i) {
    recalibrator.AddLabeledRecord(RecordWithLabel(i >= 3, 0.5f, rng));
  }
  EXPECT_EQ(recalibrator.size(), 5u);
  // The first 3 (negative) records were evicted: all remaining positive.
  EXPECT_EQ(recalibrator.PositiveCount(0), 5u);
}

TEST(RecalibratorTest, BuildsWorkingCalibrators) {
  EventHitModel model(TinyConfig());
  Recalibrator recalibrator(&model, 50);
  Rng rng(2);
  for (int i = 0; i < 30; ++i) {
    recalibrator.AddLabeledRecord(
        RecordWithLabel(rng.Bernoulli(0.5), 0.5f, rng));
  }
  const Calibrators rebuilt = recalibrator.Rebuild();
  const auto& cclassify = rebuilt.cclassify;
  ASSERT_NE(cclassify, nullptr);
  EXPECT_EQ(cclassify->num_events(), 1u);
  EXPECT_EQ(cclassify->CalibrationSize(0), recalibrator.PositiveCount(0));

  const auto& cregress = rebuilt.cregress;
  ASSERT_NE(cregress, nullptr);
  EXPECT_EQ(cregress->CalibrationSize(0), recalibrator.PositiveCount(0));
}

TEST(RecalibratorTest, RecalibrationTracksScoreShift) {
  // Simulate post-drift behaviour: the fresh window contains records whose
  // b-scores differ from an old calibration; predictions at the same c
  // must follow the *window's* score distribution.
  EventHitModel model(TinyConfig());
  Recalibrator recalibrator(&model, 100);
  Rng rng(3);
  // Window of positives with low input levels (model scores them however
  // it does — the p-values must be internally consistent).
  for (int i = 0; i < 60; ++i) {
    recalibrator.AddLabeledRecord(RecordWithLabel(true, 0.2f, rng));
  }
  const auto calibrated = recalibrator.Rebuild().cclassify;
  // A fresh record from the same regime: its p-value should not be extreme
  // (it is exchangeable with the window).
  const data::Record probe = RecordWithLabel(true, 0.2f, rng);
  const auto p = calibrated->PValues(model.Predict(probe));
  EXPECT_GT(p[0], 0.02);
  EXPECT_LE(p[0], 1.0);
}

TEST(RecalibratorTest, ClearEmptiesWindow) {
  EventHitModel model(TinyConfig());
  Recalibrator recalibrator(&model, 10);
  Rng rng(4);
  recalibrator.AddLabeledRecord(RecordWithLabel(true, 0.5f, rng));
  recalibrator.Clear();
  EXPECT_EQ(recalibrator.size(), 0u);
  EXPECT_EQ(recalibrator.PositiveCount(0), 0u);
}

TEST(RecalibratorTest, CanRebuildGuardsSmallWindows) {
  EventHitModel model(TinyConfig());
  Recalibrator recalibrator(&model, 10);
  Rng rng(5);
  // Empty window: nothing to rebuild from.
  EXPECT_FALSE(recalibrator.CanRebuild(1, 1));
  // Negatives-only window: min_records can be met but a positive never is
  // (an empty positive set would make C-CLASSIFY answer p == 1 always).
  recalibrator.AddLabeledRecord(RecordWithLabel(false, 0.5f, rng));
  recalibrator.AddLabeledRecord(RecordWithLabel(false, 0.5f, rng));
  EXPECT_FALSE(recalibrator.CanRebuild(1, 1));
  EXPECT_FALSE(recalibrator.CanRebuild(2, 1));
  // One positive: the (1, 1) floor passes, stricter floors still refuse.
  recalibrator.AddLabeledRecord(RecordWithLabel(true, 0.5f, rng));
  EXPECT_TRUE(recalibrator.CanRebuild(1, 1));
  EXPECT_TRUE(recalibrator.CanRebuild(3, 1));
  EXPECT_FALSE(recalibrator.CanRebuild(1, 2));
  EXPECT_FALSE(recalibrator.CanRebuild(4, 1));
}

TEST(RecalibratorTest, DegenerateWindowRebuildsDie) {
  EventHitModel model(TinyConfig());
  Recalibrator empty(&model, 10);
  EXPECT_DEATH(empty.Rebuild(), "CHECK failed");

  Recalibrator negatives_only(&model, 10);
  Rng rng(6);
  negatives_only.AddLabeledRecord(RecordWithLabel(false, 0.5f, rng));
  EXPECT_DEATH(negatives_only.Rebuild(), "CHECK failed");
}

TEST(RecalibratorTest, Validation) {
  EventHitModel model(TinyConfig());
  EXPECT_DEATH(Recalibrator(nullptr, 10), "CHECK failed");
  EXPECT_DEATH(Recalibrator(&model, 0), "CHECK failed");
  Recalibrator recalibrator(&model, 10);
  data::Record wrong_arity;
  wrong_arity.labels.resize(2);
  EXPECT_DEATH(recalibrator.AddLabeledRecord(wrong_arity), "CHECK failed");
}

}  // namespace
}  // namespace eventhit::core
