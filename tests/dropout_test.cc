#include "nn/dropout.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace eventhit::nn {
namespace {

TEST(DropoutTest, ZeroRateTrainIsIdentity) {
  Dropout dropout(0.0);
  Rng rng(1);
  const float x[] = {1.0f, 2.0f};
  Vec y;
  dropout.ForwardTrain(x, 2, rng, y);
  EXPECT_FLOAT_EQ(y[0], 1.0f);
  EXPECT_FLOAT_EQ(y[1], 2.0f);
}

TEST(DropoutTest, InvertedScalingPreservesExpectation) {
  Dropout dropout(0.4);
  Rng rng(2);
  const size_t n = 20000;
  Vec x(n, 1.0f);
  Vec y;
  dropout.ForwardTrain(x.data(), n, rng, y);
  double sum = 0.0;
  for (float v : y) sum += v;
  EXPECT_NEAR(sum / static_cast<double>(n), 1.0, 0.03);
}

TEST(DropoutTest, DropsApproximatelyRateFraction) {
  Dropout dropout(0.3);
  Rng rng(3);
  const size_t n = 20000;
  Vec x(n, 1.0f);
  Vec y;
  dropout.ForwardTrain(x.data(), n, rng, y);
  size_t zeros = 0;
  for (float v : y) zeros += v == 0.0f ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(zeros) / static_cast<double>(n), 0.3, 0.02);
}

TEST(DropoutTest, BackwardUsesSameMask) {
  Dropout dropout(0.5);
  Rng rng(4);
  Vec x(64, 2.0f);
  Vec y;
  dropout.ForwardTrain(x.data(), x.size(), rng, y);
  Vec dy(64, 1.0f);
  Vec dx(64);
  dropout.Backward(dy.data(), dx.data());
  for (size_t i = 0; i < x.size(); ++i) {
    if (y[i] == 0.0f) {
      EXPECT_FLOAT_EQ(dx[i], 0.0f);
    } else {
      EXPECT_FLOAT_EQ(dx[i], 2.0f);  // 1/(1-0.5) scaling.
    }
  }
}

TEST(DropoutTest, ForwardTrainBatchDrawsColumnByColumn) {
  // A [n x batch] batch-minor block must see the masks of `batch`
  // ForwardTrain calls made column by column from the same rng state.
  const size_t n = 7, batch = 5;
  Dropout dropout(0.3);
  Rng data_rng(5);
  Vec x(n * batch);
  for (auto& v : x) v = static_cast<float>(data_rng.Gaussian());
  Rng rng_batched(6);
  Rng rng_columns(6);
  Vec y(n * batch), mask(n * batch);
  dropout.ForwardTrainBatch(x.data(), n, batch, rng_batched, y.data(),
                            mask.data());
  for (size_t b = 0; b < batch; ++b) {
    Vec column(n), y_column;
    for (size_t i = 0; i < n; ++i) column[i] = x[i * batch + b];
    dropout.ForwardTrain(column.data(), n, rng_columns, y_column);
    Vec ones(n, 1.0f), column_mask(n);
    dropout.Backward(ones.data(), column_mask.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(y[i * batch + b], y_column[i]) << "unit " << i << " col " << b;
      EXPECT_EQ(mask[i * batch + b], column_mask[i]);
    }
  }
  EXPECT_EQ(rng_batched.NextUint64(), rng_columns.NextUint64());
}

TEST(DropoutTest, RateValidation) {
  EXPECT_DEATH(Dropout(-0.1), "CHECK failed");
  EXPECT_DEATH(Dropout(1.0), "CHECK failed");
}

}  // namespace
}  // namespace eventhit::nn
