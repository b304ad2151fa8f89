#include "core/eventhit_model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <numeric>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/activations.h"
#include "nn/adam.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/loss.h"
#include "nn/lstm.h"
#include "nn/mlp.h"
#include "nn/serialize.h"
#include "nn/workspace.h"
#include "stepped_windows.h"

namespace eventhit::core {
namespace {

constexpr int kWindow = 6;
constexpr int kHorizon = 30;
constexpr size_t kFeatureDim = 4;

EventHitConfig SmallConfig(size_t num_events = 1) {
  EventHitConfig config;
  config.collection_window = kWindow;
  config.horizon = kHorizon;
  config.feature_dim = kFeatureDim;
  config.num_events = num_events;
  config.lstm_hidden = 12;
  config.shared_dim = 10;
  config.event_hidden = 16;
  config.epochs = 30;
  config.batch_size = 8;
  config.learning_rate = 5e-3;
  config.seed = 11;
  return config;
}

// A learnable toy problem: channel 0 is a "precursor level" constant over
// the window. The event is present iff level > 0.35, and its start offset is
// (1 - level) * kHorizon (stronger precursor = sooner), lasting 6 frames.
data::Record MakeToyRecord(double level, Rng& rng) {
  data::Record record;
  record.frame = 0;
  record.covariates.resize(kWindow * kFeatureDim);
  for (int m = 0; m < kWindow; ++m) {
    float* row = record.covariates.data() + m * kFeatureDim;
    row[0] = static_cast<float>(level + rng.Gaussian(0.0, 0.02));
    row[1] = static_cast<float>(rng.Uniform());
    row[2] = static_cast<float>(rng.Uniform());
    row[3] = 0.5f;
  }
  data::EventLabel label;
  if (level > 0.35) {
    label.present = true;
    const int start = std::max(
        1, std::min(kHorizon - 6, static_cast<int>((1.0 - level) * kHorizon)));
    label.start = start;
    label.end = std::min(kHorizon, start + 5);
  }
  record.labels.push_back(label);
  return record;
}

std::vector<data::Record> MakeToyDataset(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<data::Record> records;
  for (size_t i = 0; i < n; ++i) {
    const double level = rng.Uniform(0.0, 1.0);
    records.push_back(MakeToyRecord(level, rng));
  }
  return records;
}

TEST(EventHitModelTest, TrainingReducesLoss) {
  EventHitModel model(SmallConfig());
  const auto records = MakeToyDataset(200, 3);
  const auto history = model.Train(records);
  ASSERT_EQ(history.size(), 30u);
  EXPECT_LT(history.back().total_loss, 0.5 * history.front().total_loss);
}

TEST(EventHitModelTest, LearnsExistenceSignal) {
  EventHitModel model(SmallConfig());
  model.Train(MakeToyDataset(300, 5));
  Rng rng(7);
  double pos_score = 0.0, neg_score = 0.0;
  const int trials = 30;
  for (int i = 0; i < trials; ++i) {
    pos_score += model.Predict(MakeToyRecord(0.8, rng)).existence[0];
    neg_score += model.Predict(MakeToyRecord(0.1, rng)).existence[0];
  }
  EXPECT_GT(pos_score / trials, 0.8);
  EXPECT_LT(neg_score / trials, 0.2);
}

TEST(EventHitModelTest, LearnsOccurrenceLocation) {
  EventHitModel model(SmallConfig());
  model.Train(MakeToyDataset(400, 9));
  Rng rng(13);
  // Strong precursor (level 0.9) -> event near offset 3; weak-but-present
  // (level 0.45) -> event near offset 16. The occupancy mass must shift.
  auto occupancy_centroid = [&](double level) {
    const EventScores scores = model.Predict(MakeToyRecord(level, rng));
    double weighted = 0.0, total = 0.0;
    for (size_t v = 0; v < scores.occupancy[0].size(); ++v) {
      weighted += static_cast<double>(v + 1) * scores.occupancy[0][v];
      total += scores.occupancy[0][v];
    }
    return weighted / total;
  };
  EXPECT_LT(occupancy_centroid(0.9) + 4.0, occupancy_centroid(0.45));
}

TEST(EventHitModelTest, DeterministicGivenSeed) {
  const auto records = MakeToyDataset(100, 17);
  EventHitModel model_a(SmallConfig());
  EventHitModel model_b(SmallConfig());
  model_a.Train(records);
  model_b.Train(records);
  Rng rng(19);
  const data::Record probe = MakeToyRecord(0.6, rng);
  EXPECT_DOUBLE_EQ(model_a.Predict(probe).existence[0],
                   model_b.Predict(probe).existence[0]);
}

TEST(EventHitModelTest, SeedChangesInitialisation) {
  EventHitConfig config_a = SmallConfig();
  EventHitConfig config_b = SmallConfig();
  config_b.seed = 999;
  EventHitModel model_a(config_a);
  EventHitModel model_b(config_b);
  Rng rng(21);
  const data::Record probe = MakeToyRecord(0.6, rng);
  EXPECT_NE(model_a.Predict(probe).existence[0],
            model_b.Predict(probe).existence[0]);
}

TEST(EventHitModelTest, SaveLoadRoundTrip) {
  EventHitModel model(SmallConfig());
  model.Train(MakeToyDataset(100, 23));
  const std::string path =
      std::string(::testing::TempDir()) + "/eventhit_model.bin";
  ASSERT_TRUE(model.Save(path).ok());

  EventHitModel reloaded(SmallConfig());
  ASSERT_TRUE(reloaded.Load(path).ok());
  Rng rng(25);
  const data::Record probe = MakeToyRecord(0.7, rng);
  const EventScores a = model.Predict(probe);
  const EventScores b = reloaded.Predict(probe);
  EXPECT_DOUBLE_EQ(a.existence[0], b.existence[0]);
  for (size_t v = 0; v < a.occupancy[0].size(); ++v) {
    EXPECT_EQ(a.occupancy[0][v], b.occupancy[0][v]);
  }
  std::remove(path.c_str());
}

TEST(EventHitModelTest, BatchSizeDoesNotChangeScores) {
  EventHitModel model(SmallConfig());
  Rng rng(35);
  std::vector<data::Record> records;
  for (int i = 0; i < 23; ++i) {
    records.push_back(MakeToyRecord(rng.Uniform(), rng));
  }
  const auto b1 = PredictBatch(model, records, ExecutionContext(), 1);
  const auto b5 = PredictBatch(model, records, ExecutionContext(), 5);
  const auto b32 = PredictBatch(model, records, ExecutionContext(), 32);
  ASSERT_EQ(b1.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(b1[i].existence[0], b5[i].existence[0]) << "record " << i;
    EXPECT_EQ(b1[i].existence[0], b32[i].existence[0]) << "record " << i;
    EXPECT_EQ(b1[i].occupancy[0], b5[i].occupancy[0]) << "record " << i;
    EXPECT_EQ(b1[i].occupancy[0], b32[i].occupancy[0]) << "record " << i;
  }
}

TEST(EventHitModelTest, ParallelPredictBatchMatchesSerial) {
  EventHitModel model(SmallConfig());
  Rng rng(37);
  std::vector<data::Record> records;
  for (int i = 0; i < 41; ++i) {
    records.push_back(MakeToyRecord(rng.Uniform(), rng));
  }
  const auto serial = PredictBatch(model, records, ExecutionContext(), 8);
  const auto pooled = PredictBatch(model, records, ExecutionContext(3, 7), 8);
  ASSERT_EQ(serial.size(), pooled.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].existence[0], pooled[i].existence[0]) << "record " << i;
    EXPECT_EQ(serial[i].occupancy[0], pooled[i].occupancy[0]) << "record " << i;
  }
}

TEST(EventHitModelTest, PredictBatchEmptyInput) {
  EventHitModel model(SmallConfig());
  EXPECT_TRUE(PredictBatch(model, {}).empty());
}

TEST(EventHitModelTest, PerEventLossWeightsAccepted) {
  EventHitConfig config = SmallConfig(2);
  config.beta = {1.0, 0.5};
  config.gamma = {1.0, 2.0};
  EventHitModel model(config);
  // Two-event toy data: event 1 mirrors event 0.
  Rng rng(27);
  std::vector<data::Record> records;
  for (int i = 0; i < 50; ++i) {
    data::Record record = MakeToyRecord(rng.Uniform(), rng);
    record.labels.push_back(record.labels[0]);
    records.push_back(std::move(record));
  }
  const auto history = model.Train(records);
  EXPECT_LT(history.back().total_loss, history.front().total_loss);
}

TEST(EventHitModelTest, ParameterCountMatchesArchitecture) {
  const EventHitConfig config = SmallConfig(2);
  EventHitModel model(config);
  const size_t lstm = 4 * 12 * (4 + 12) + 4 * 12;
  const size_t shared = 10 * 12 + 10;
  const size_t u_dim = 10 + 4;
  const size_t per_event = 16 * u_dim + 16 + (1 + 30) * 16 + 31;
  EXPECT_EQ(model.ParameterCount(), lstm + shared + 2 * per_event);
}

TEST(EventHitModelTest, InvalidConfigDies) {
  EventHitConfig config = SmallConfig();
  config.feature_dim = 0;
  EXPECT_DEATH(EventHitModel model(config), "CHECK failed");
  config = SmallConfig();
  config.num_events = 0;
  EXPECT_DEATH(EventHitModel model(config), "CHECK failed");
}

TEST(EventHitModelTest, CensoredLabelAtHorizonEndTrains) {
  EventHitModel model(SmallConfig());
  Rng rng(29);
  std::vector<data::Record> records;
  for (int i = 0; i < 40; ++i) {
    data::Record record = MakeToyRecord(0.8, rng);
    record.labels[0].end = kHorizon;  // Censored at horizon end.
    record.labels[0].censored = true;
    records.push_back(std::move(record));
  }
  const auto history = model.Train(records);
  EXPECT_LT(history.back().total_loss, history.front().total_loss);
}

TEST(EventHitModelTest, FullHorizonOccupancyHasNoOutsideTerm) {
  // Interval spanning the entire horizon: the outside normaliser is 0; the
  // implementation must skip those terms rather than divide by zero.
  EventHitModel model(SmallConfig());
  Rng rng(31);
  data::Record record = MakeToyRecord(0.9, rng);
  record.labels[0].start = 1;
  record.labels[0].end = kHorizon;
  const auto history = model.Train({record});
  EXPECT_TRUE(std::isfinite(history.back().total_loss));
}

// The per-record model that Train() and PredictBatched must reproduce bit
// for bit, written from the layers' per-record API: the same layers from
// the same seed forks, one ForwardCached/Backward pass per record, one Adam
// step per minibatch.
class PerRecordReference {
 public:
  explicit PerRecordReference(const EventHitConfig& config)
      : config_(config), dropout_(config.dropout), rng_(config.seed) {
    Rng init_rng(rng_.Fork(1));
    lstm_ = nn::Lstm("lstm", config.feature_dim, config.lstm_hidden, init_rng);
    shared_fc_ =
        nn::Dense("shared", config.lstm_hidden, config.shared_dim, init_rng);
    const size_t u_dim = config.shared_dim + config.feature_dim;
    const size_t out_dim = 1 + static_cast<size_t>(config.horizon);
    for (size_t k = 0; k < config.num_events; ++k) {
      event_nets_.emplace_back(
          "event" + std::to_string(k),
          std::vector<size_t>{u_dim, config.event_hidden, out_dim}, init_rng);
    }
  }

  std::vector<TrainEpochStats> Train(const std::vector<data::Record>& records) {
    nn::AdamOptions adam_options;
    adam_options.learning_rate = config_.learning_rate;
    adam_options.clip_norm = config_.grad_clip_norm;
    nn::AdamOptimizer optimizer(Parameters(), adam_options);
    Rng train_rng(rng_.Fork(2));
    std::vector<size_t> order(records.size());
    std::iota(order.begin(), order.end(), 0);
    std::vector<TrainEpochStats> history;
    const auto batch = static_cast<size_t>(std::max(config_.batch_size, 1));
    for (int epoch = 0; epoch < config_.epochs; ++epoch) {
      train_rng.Shuffle(order);
      TrainEpochStats stats;
      size_t steps = 0;
      for (size_t begin = 0; begin < order.size(); begin += batch) {
        const size_t end = std::min(begin + batch, order.size());
        for (size_t i = begin; i < end; ++i) {
          const auto [l1, l2] = Step(records[order[i]], train_rng);
          stats.existence_loss += l1;
          stats.occupancy_loss += l2;
        }
        nn::ScaleGradients(Parameters(),
                           1.0f / static_cast<float>(end - begin));
        stats.grad_norm += optimizer.Step();
        ++steps;
      }
      const auto n = static_cast<double>(records.size());
      stats.existence_loss /= n;
      stats.occupancy_loss /= n;
      stats.total_loss = stats.existence_loss + stats.occupancy_loss;
      stats.grad_norm /= static_cast<double>(std::max<size_t>(steps, 1));
      history.push_back(stats);
    }
    return history;
  }

  Status Save(const std::string& path) {
    const nn::ParameterRefs params = Parameters();
    return nn::SaveParameters(
        nn::ConstParameterRefs(params.begin(), params.end()), path);
  }

  Status Load(const std::string& path) {
    return nn::LoadParameters(Parameters(), path);
  }

  // Inference (no dropout): one record through the per-record layers.
  EventScores Predict(const data::Record& record) {
    const auto steps = static_cast<size_t>(config_.collection_window);
    const float* covariates = record.covariates.data();
    const nn::Vec h = lstm_.ForwardCached(covariates, steps);
    nn::Vec u;
    shared_fc_.Forward(h.data(), u);
    nn::TanhInPlace(u.data(), u.size());
    const float* x_last = covariates + (steps - 1) * config_.feature_dim;
    u.insert(u.end(), x_last, x_last + config_.feature_dim);
    EventScores scores;
    nn::Vec logits;
    for (size_t k = 0; k < config_.num_events; ++k) {
      event_nets_[k].ForwardCached(u.data(), logits);
      scores.existence.push_back(nn::SigmoidScalar(logits[0]));
      std::vector<float>& theta = scores.occupancy.emplace_back();
      for (size_t v = 1; v < logits.size(); ++v) {
        theta.push_back(nn::SigmoidScalar(logits[v]));
      }
    }
    return scores;
  }

 private:
  nn::ParameterRefs Parameters() {
    nn::ParameterRefs params;
    lstm_.CollectParameters(params);
    shared_fc_.CollectParameters(params);
    for (nn::Mlp& net : event_nets_) net.CollectParameters(params);
    return params;
  }

  // One record: forward, L1 + L2, backward. Returns (L1, L2).
  std::pair<double, double> Step(const data::Record& record, Rng& rng) {
    const auto steps = static_cast<size_t>(config_.collection_window);
    const float* covariates = record.covariates.data();
    const nn::Vec h = lstm_.ForwardCached(covariates, steps);
    nn::Vec z, zd;
    shared_fc_.Forward(h.data(), z);
    nn::TanhInPlace(z.data(), z.size());
    dropout_.ForwardTrain(z.data(), z.size(), rng, zd);
    nn::Vec u(zd);
    const float* x_last = covariates + (steps - 1) * config_.feature_dim;
    u.insert(u.end(), x_last, x_last + config_.feature_dim);

    const auto horizon = static_cast<size_t>(config_.horizon);
    nn::Vec logits, dlogits(1 + horizon), targets(1 + horizon),
        weights(1 + horizon), du(u.size(), 0.0f);
    double l1 = 0.0, l2 = 0.0;
    for (size_t k = 0; k < config_.num_events; ++k) {
      const data::EventLabel& label = record.labels[k];
      event_nets_[k].ForwardCached(u.data(), logits);
      targets[0] = label.present ? 1.0f : 0.0f;
      weights[0] = config_.beta.empty()
                       ? 1.0f
                       : static_cast<float>(config_.beta[k]);
      const double gamma = config_.gamma.empty() ? 1.0 : config_.gamma[k];
      const auto inside = static_cast<double>(label.end - label.start + 1);
      const double outside = static_cast<double>(horizon) - inside;
      for (size_t v = 1; v <= horizon; ++v) {
        const bool occupied = label.present &&
                              static_cast<int>(v) >= label.start &&
                              static_cast<int>(v) <= label.end;
        targets[v] = occupied ? 1.0f : 0.0f;
        if (!label.present) {
          weights[v] = 0.0f;
        } else if (occupied) {
          weights[v] = static_cast<float>(gamma / inside);
        } else {
          weights[v] = outside > 0.0 ? static_cast<float>(gamma / outside)
                                     : 0.0f;
        }
      }
      l1 += nn::BceWithLogits(logits[0], targets[0], weights[0], &dlogits[0]);
      l2 += nn::BceWithLogitsVector(logits.data() + 1, targets.data() + 1,
                                    weights.data() + 1, horizon,
                                    dlogits.data() + 1);
      event_nets_[k].Backward(u.data(), dlogits.data(), du.data());
    }
    nn::Vec dz(zd.size()), dz_pre(z.size()), dh(h.size(), 0.0f);
    dropout_.Backward(du.data(), dz.data());
    nn::TanhBackward(z.data(), dz.data(), dz_pre.data(), z.size());
    shared_fc_.Backward(h.data(), dz_pre.data(), dh.data());
    lstm_.Backward(dh.data());
    return {l1, l2};
  }

  EventHitConfig config_;
  nn::Lstm lstm_;
  nn::Dense shared_fc_;
  nn::Dropout dropout_;
  std::vector<nn::Mlp> event_nets_;
  Rng rng_;
};

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// Three events per record: event k is present about half the time, with
// an interval anywhere in the horizon, some of them censored at its end.
std::vector<data::Record> MakeThreeEventDataset(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<data::Record> records;
  for (size_t i = 0; i < n; ++i) {
    data::Record record = MakeToyRecord(rng.Uniform(0.0, 1.0), rng);
    record.labels.resize(3);
    for (size_t k = 1; k < 3; ++k) {
      data::EventLabel& label = record.labels[k];
      label.present = rng.Bernoulli(0.5);
      if (!label.present) continue;
      label.start = static_cast<int>(rng.UniformInt(1, kHorizon));
      label.end = rng.Bernoulli(0.2)
                      ? kHorizon
                      : std::min(kHorizon, label.start +
                                               static_cast<int>(
                                                   rng.UniformInt(0, 8)));
    }
    records.push_back(std::move(record));
  }
  return records;
}

// The per-record reference holding `model`'s weights.
PerRecordReference ReferenceFor(const EventHitModel& model) {
  PerRecordReference reference(model.config());
  const std::string path = ::testing::TempDir() + "/reference_weights.bin";
  EXPECT_TRUE(model.Save(path).ok());
  EXPECT_TRUE(reference.Load(path).ok());
  std::remove(path.c_str());
  return reference;
}

void ExpectSameScores(const EventScores& got, const EventScores& want) {
  EXPECT_EQ(got.existence, want.existence);
  EXPECT_EQ(got.occupancy, want.occupancy);
}

TEST(EventHitModelTest, PredictShapes) {
  EventHitModel model(SmallConfig(3));
  Rng rng(1);
  const data::Record record = MakeToyRecord(0.5, rng);
  const EventScores scores = model.Predict(record);
  ASSERT_EQ(scores.existence.size(), 3u);
  ASSERT_EQ(scores.occupancy.size(), 3u);
  for (size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(scores.occupancy[k].size(), static_cast<size_t>(kHorizon));
    EXPECT_GE(scores.existence[k], 0.0);
    EXPECT_LE(scores.existence[k], 1.0);
    for (float theta : scores.occupancy[k]) {
      EXPECT_GE(theta, 0.0f);
      EXPECT_LE(theta, 1.0f);
    }
  }
  // Predict is PredictBatched at batch 1: the per-record layers' bits.
  ExpectSameScores(scores, ReferenceFor(model).Predict(record));
}

TEST(EventHitModelTest, BatchedPredictionMatchesPerRecord) {
  // The documented agreement bound is 1e-5, but the implementation promises
  // more: under scalar and blocked, batched scores are bit-identical to the
  // per-record layers (summation-order contract, nn/matrix.h). Pin the
  // stronger property, on trained weights.
  EventHitConfig config = SmallConfig(2);
  config.epochs = 2;
  EventHitModel model(config);
  Rng rng(33);
  std::vector<data::Record> records;
  for (int i = 0; i < 37; ++i) {  // 37 % 8 != 0: exercises the ragged tail.
    data::Record record = MakeToyRecord(rng.Uniform(), rng);
    record.labels.push_back(record.labels[0]);
    records.push_back(std::move(record));
  }
  model.Train(records);
  PerRecordReference reference = ReferenceFor(model);
  for (const nn::BackendKind kind :
       {nn::BackendKind::kScalar, nn::BackendKind::kBlocked}) {
    SCOPED_TRACE(nn::BackendKindName(kind));
    model.SetInferenceBackend(kind);
    const auto batched = PredictBatch(model, records, ExecutionContext(), 8);
    ASSERT_EQ(batched.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i) {
      ExpectSameScores(batched[i], reference.Predict(records[i]));
    }
  }
}

// Score bytes, so a -0 or any last-bit drift fails.
void ExpectSameScoreBytes(const EventScores& got, const EventScores& want) {
  const auto same = [](const auto& a, const auto& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
  };
  EXPECT_TRUE(same(got.existence, want.existence));
  ASSERT_EQ(got.occupancy.size(), want.occupancy.size());
  for (size_t k = 0; k < got.occupancy.size(); ++k) {
    EXPECT_TRUE(same(got.occupancy[k], want.occupancy[k])) << "event " << k;
  }
}

// Windows encoded frame by frame (EncodeStep, the fleet's per-tick step,
// over shuffled subsets of 1, 3, 17, 64 or 256 windows) and scored by
// PredictHeads give PredictBatched's scores byte for byte, under scalar,
// blocked and simd, at TA10's shape (M = 10 < H = 200), TA13's (M = 50 <
// H = 500) and M = H = 10. (lstm_test pins the encoder's h the same way.)
TEST(EventHitModelTest, SteppedWindowsScoreAsPredictBatched) {
  const struct {
    int window, horizon;
  } shapes[] = {{10, 200}, {50, 500}, {10, 10}};
  const size_t count = 256;
  for (const auto& shape : shapes) {
    EventHitConfig config;
    config.collection_window = shape.window;
    config.horizon = shape.horizon;
    config.feature_dim = 10;
    config.num_events = 2;
    config.seed = 41;
    EventHitModel model(config);
    const size_t steps = static_cast<size_t>(shape.window);
    const size_t d = config.feature_dim;
    const size_t hd = config.lstm_hidden;
    Rng rng(42 + steps);
    std::vector<data::Record> records(count);
    std::vector<float> record_major;
    for (data::Record& record : records) {
      record.covariates.resize(steps * d);
      for (float& v : record.covariates) {
        v = static_cast<float>(rng.Gaussian(0.0, 0.5));
      }
      record.labels.resize(config.num_events);
      record_major.insert(record_major.end(), record.covariates.begin(),
                          record.covariates.end());
    }
    for (const nn::BackendKind kind : nn::AllBackendKinds()) {
      SCOPED_TRACE(std::string(nn::BackendKindName(kind)) + " M=" +
                   std::to_string(shape.window) +
                   " H=" + std::to_string(shape.horizon));
      model.SetInferenceBackend(kind);
      nn::Workspace ws;
      std::vector<EventScores> whole(count);
      model.PredictBatched(records.data(), count, whole.data(), ws);

      std::vector<size_t> batches;
      const std::vector<float> h_rows = testutil::StepWindows(
          record_major.data(), count, steps, d, hd, 43 + steps,
          [&](const float* x, size_t n, float* h, float* c) {
            ws.Reset();
            model.EncodeStep(x, n, h, c, ws);
          },
          &batches);
      EXPECT_GE(batches.size(), 5u);
      // The heads over every window at once, in a shuffled order.
      std::vector<size_t> order(count);
      std::iota(order.begin(), order.end(), 0);
      rng.Shuffle(order);
      std::vector<float> h(hd * count);
      std::vector<float> x_last(d * count);
      for (size_t b = 0; b < count; ++b) {
        const size_t s = order[b];
        for (size_t j = 0; j < hd; ++j) h[j * count + b] = h_rows[s * hd + j];
        const float* last = records[s].covariates.data() + (steps - 1) * d;
        for (size_t j = 0; j < d; ++j) x_last[j * count + b] = last[j];
      }
      std::vector<EventScores> stepped(count);
      ws.Reset();
      model.PredictHeads(h.data(), x_last.data(), count, stepped.data(), ws);
      for (size_t b = 0; b < count; ++b) {
        SCOPED_TRACE("window " + std::to_string(order[b]));
        ExpectSameScoreBytes(stepped[b], whole[order[b]]);
      }
    }
  }
}

TEST(EventHitModelTest, TrainIsBitIdenticalToPerRecordLoop) {
  struct Case {
    size_t events;
    int batch;
    size_t records;  // 37 leaves a partial last minibatch of 5 at batch 16.
    int epochs;
  };
  for (const Case c : {Case{1, 16, 37, 3}, Case{1, 1, 12, 2},
                       Case{3, 16, 37, 3}, Case{3, 1, 12, 2}}) {
    SCOPED_TRACE("events=" + std::to_string(c.events) + " batch=" +
                 std::to_string(c.batch) + " records=" +
                 std::to_string(c.records));
    EventHitConfig config = SmallConfig(c.events);
    config.batch_size = c.batch;
    config.epochs = c.epochs;
    if (c.events == 3) {
      // A zero gamma masks event 1's L2 terms: all-zero gradient rows.
      config.beta = {1.0, 0.5, 2.0};
      config.gamma = {1.0, 0.0, 0.5};
    }
    const std::vector<data::Record> records =
        c.events == 1 ? MakeToyDataset(c.records, 41)
                      : MakeThreeEventDataset(c.records, 43);

    EventHitModel model(config);
    const auto history = model.Train(records);
    PerRecordReference reference(config);
    const auto reference_history = reference.Train(records);

    ASSERT_EQ(history.size(), reference_history.size());
    for (size_t e = 0; e < history.size(); ++e) {
      EXPECT_EQ(history[e].existence_loss, reference_history[e].existence_loss);
      EXPECT_EQ(history[e].occupancy_loss, reference_history[e].occupancy_loss);
      EXPECT_EQ(history[e].grad_norm, reference_history[e].grad_norm);
    }
    const std::string dir = ::testing::TempDir();
    const std::string trained = dir + "/train_batched.bin";
    const std::string expected = dir + "/train_per_record.bin";
    ASSERT_TRUE(model.Save(trained).ok());
    ASSERT_TRUE(reference.Save(expected).ok());
    const std::string trained_bytes = FileBytes(trained);
    EXPECT_FALSE(trained_bytes.empty());
    EXPECT_TRUE(trained_bytes == FileBytes(expected))
        << "trained weights differ from the per-record loop";
    std::remove(trained.c_str());
    std::remove(expected.c_str());
  }
}

}  // namespace
}  // namespace eventhit::core
