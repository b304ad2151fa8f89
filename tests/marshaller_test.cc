#include "core/marshaller.h"

#include <gtest/gtest.h>

#include <cstring>
#include <deque>

#include "obs/metrics.h"
#include "obs/schema.h"

namespace eventhit::core {
namespace {

constexpr int kWindow = 4;
constexpr int kHorizon = 10;
constexpr size_t kFeatureDim = 2;

// A scripted strategy that records the covariates it is shown and returns a
// fixed decision.
class ScriptedStrategy : public MarshalStrategy {
 public:
  std::string name() const override { return "scripted"; }

  MarshalDecision Decide(const data::Record& record) const override {
    last_record = record;
    ++calls;
    MarshalDecision decision;
    decision.exists = {next_exists};
    decision.intervals = {next_exists ? next_interval
                                      : sim::Interval::Empty()};
    return decision;
  }

  mutable data::Record last_record;
  mutable int calls = 0;
  bool next_exists = true;
  sim::Interval next_interval{2, 5};
};

std::vector<float> FrameOf(float value) {
  return {value, value + 100.0f};
}

TEST(MarshallerTest, FiresAtWindowFillThenEveryHorizon) {
  ScriptedStrategy strategy;
  Marshaller marshaller(&strategy, kWindow, kHorizon, kFeatureDim, 1);
  std::vector<int64_t> fired_at;
  for (int64_t f = 0; f < 40; ++f) {
    if (marshaller.PushFrame(FrameOf(static_cast<float>(f)).data())) {
      fired_at.push_back(f);
    }
  }
  // First at M-1 = 3, then every H = 10 frames: 3, 13, 23, 33.
  EXPECT_EQ(fired_at, (std::vector<int64_t>{3, 13, 23, 33}));
  EXPECT_EQ(strategy.calls, 4);
  EXPECT_EQ(marshaller.stats().frames_seen, 40);
  EXPECT_EQ(marshaller.stats().horizons_predicted, 4);
}

TEST(MarshallerTest, WindowContentsInLogicalOrder) {
  ScriptedStrategy strategy;
  Marshaller marshaller(&strategy, kWindow, kHorizon, kFeatureDim, 1);
  for (int64_t f = 0; f <= 13; ++f) {
    marshaller.PushFrame(FrameOf(static_cast<float>(f)).data());
  }
  // The prediction at frame 13 must see frames 10..13, oldest first.
  const auto& covariates = strategy.last_record.covariates;
  ASSERT_EQ(covariates.size(), kWindow * kFeatureDim);
  for (int m = 0; m < kWindow; ++m) {
    EXPECT_FLOAT_EQ(covariates[m * kFeatureDim], static_cast<float>(10 + m));
    EXPECT_FLOAT_EQ(covariates[m * kFeatureDim + 1],
                    static_cast<float>(110 + m));
  }
  EXPECT_EQ(strategy.last_record.frame, 13);
}

TEST(MarshallerTest, RelayOrdersUseAbsoluteFrames) {
  ScriptedStrategy strategy;
  strategy.next_interval = sim::Interval{2, 5};
  Marshaller marshaller(&strategy, kWindow, kHorizon, kFeatureDim, 1);
  std::vector<RelayOrder> orders;
  marshaller.set_relay_callback(
      [&](const RelayOrder& order) { orders.push_back(order); });
  for (int64_t f = 0; f <= 3; ++f) {
    marshaller.PushFrame(FrameOf(0.0f).data());
  }
  ASSERT_EQ(orders.size(), 1u);
  EXPECT_EQ(orders[0].event, 0u);
  // Prediction at frame 3, offsets [2,5] -> absolute [5, 8].
  EXPECT_EQ(orders[0].frames, (sim::Interval{5, 8}));
  EXPECT_EQ(marshaller.stats().frames_relayed, 4);
  EXPECT_EQ(marshaller.stats().relay_orders, 1);
}

TEST(MarshallerTest, AbsentPredictionsRelayNothing) {
  ScriptedStrategy strategy;
  strategy.next_exists = false;
  Marshaller marshaller(&strategy, kWindow, kHorizon, kFeatureDim, 1);
  int callbacks = 0;
  marshaller.set_relay_callback([&](const RelayOrder&) { ++callbacks; });
  for (int64_t f = 0; f < 25; ++f) {
    marshaller.PushFrame(FrameOf(0.0f).data());
  }
  EXPECT_EQ(callbacks, 0);
  EXPECT_EQ(marshaller.stats().frames_relayed, 0);
  EXPECT_GT(marshaller.stats().horizons_predicted, 0);
}

// Two-event strategy with overlapping intervals: billed frames must count
// the union once.
class TwoEventStrategy : public MarshalStrategy {
 public:
  std::string name() const override { return "two"; }
  MarshalDecision Decide(const data::Record&) const override {
    MarshalDecision decision;
    decision.exists = {true, true};
    decision.intervals = {sim::Interval{1, 6}, sim::Interval{4, 9}};
    return decision;
  }
};

TEST(MarshallerTest, UnionBillingAcrossEvents) {
  TwoEventStrategy strategy;
  Marshaller marshaller(&strategy, kWindow, kHorizon, kFeatureDim, 2);
  for (int64_t f = 0; f <= 3; ++f) {
    marshaller.PushFrame(FrameOf(0.0f).data());
  }
  // [1,6] U [4,9] = 9 frames, not 12.
  EXPECT_EQ(marshaller.stats().frames_relayed, 9);
  EXPECT_EQ(marshaller.stats().relay_orders, 2);
}

// A strategy that predicts "present" but hands back an empty interval —
// the zero-relay edge: nothing may be ordered from the cloud, and the
// whole horizon must land in the filtered bucket.
class PresentButEmptyStrategy : public MarshalStrategy {
 public:
  std::string name() const override { return "present_empty"; }
  MarshalDecision Decide(const data::Record&) const override {
    MarshalDecision decision;
    decision.exists = {true};
    decision.intervals = {sim::Interval::Empty()};
    return decision;
  }
};

TEST(MarshallerTest, PresentPredictionWithEmptyIntervalRelaysNothing) {
  PresentButEmptyStrategy strategy;
  obs::MetricsRegistry metrics;
  Marshaller marshaller(&strategy, kWindow, kHorizon, kFeatureDim, 1,
                        &metrics);
  int callbacks = 0;
  marshaller.set_relay_callback([&](const RelayOrder&) { ++callbacks; });
  for (int64_t f = 0; f <= 3; ++f) {
    marshaller.PushFrame(FrameOf(0.0f).data());
  }
  // No order is issued (the cloud service rejects empty requests)...
  EXPECT_EQ(callbacks, 0);
  EXPECT_EQ(marshaller.stats().relay_orders, 0);
  EXPECT_EQ(marshaller.stats().frames_relayed, 0);
  // ...and the obs counters keep the accounting identity
  // relayed + filtered == total with the whole horizon filtered.
  const int64_t relayed =
      metrics.GetCounter(obs::names::kMarshallerFramesRelayed)->Value();
  const int64_t filtered =
      metrics.GetCounter(obs::names::kMarshallerFramesFiltered)->Value();
  const int64_t total =
      metrics.GetCounter(obs::names::kMarshallerFramesTotal)->Value();
  EXPECT_EQ(relayed, 0);
  EXPECT_EQ(filtered, kHorizon);
  EXPECT_EQ(total, relayed + filtered);
  // The event still counts as predicted-present.
  EXPECT_EQ(
      metrics.GetCounter(obs::names::kMarshallerEventsPredictedPresent)
          ->Value(),
      1);
}

TEST(MarshallerTest, DeferredCompletionMatchesInlinePushFrame) {
  // Drive two marshallers over the same frame schedule: one inline, one
  // through the two-phase PushFrameDeferred/CompletePrediction path the
  // fleet batcher uses. Every observable — fired frames, relay orders,
  // stats, metric counters, the record handed to the strategy — must be
  // byte-identical; deferring the decision may change nothing but timing.
  ScriptedStrategy inline_strategy;
  ScriptedStrategy deferred_strategy;
  obs::MetricsRegistry inline_metrics;
  obs::MetricsRegistry deferred_metrics;
  Marshaller inline_m(&inline_strategy, kWindow, kHorizon, kFeatureDim, 1,
                      &inline_metrics);
  Marshaller deferred_m(&deferred_strategy, kWindow, kHorizon, kFeatureDim,
                        1, &deferred_metrics);
  std::vector<RelayOrder> inline_orders, deferred_orders;
  inline_m.set_relay_callback(
      [&](const RelayOrder& order) { inline_orders.push_back(order); });
  deferred_m.set_relay_callback(
      [&](const RelayOrder& order) { deferred_orders.push_back(order); });

  std::vector<int64_t> inline_fired, deferred_fired;
  data::Record pending;
  for (int64_t f = 0; f < 40; ++f) {
    const auto frame = FrameOf(static_cast<float>(f));
    if (inline_m.PushFrame(frame.data())) inline_fired.push_back(f);
    if (deferred_m.PushFrameDeferred(frame.data(), &pending)) {
      deferred_fired.push_back(f);
      EXPECT_EQ(deferred_m.pending_predictions(), 1u);
      // The pending record carries the anchored window, like the record
      // the inline path hands its strategy.
      EXPECT_EQ(pending.frame, f);
      EXPECT_EQ(pending.covariates, inline_strategy.last_record.covariates);
      // Score out of band (the fleet runs this through PredictBatched).
      deferred_m.CompletePrediction(deferred_strategy.Decide(pending));
      EXPECT_EQ(deferred_m.pending_predictions(), 0u);
    }
  }
  EXPECT_EQ(inline_fired, deferred_fired);
  EXPECT_EQ(inline_orders.size(), deferred_orders.size());
  for (size_t i = 0; i < inline_orders.size(); ++i) {
    EXPECT_EQ(inline_orders[i].event, deferred_orders[i].event);
    EXPECT_EQ(inline_orders[i].frames, deferred_orders[i].frames);
  }
  EXPECT_EQ(inline_m.stats().frames_seen, deferred_m.stats().frames_seen);
  EXPECT_EQ(inline_m.stats().horizons_predicted,
            deferred_m.stats().horizons_predicted);
  EXPECT_EQ(inline_m.stats().frames_relayed,
            deferred_m.stats().frames_relayed);
  EXPECT_EQ(inline_m.stats().relay_orders, deferred_m.stats().relay_orders);
  for (const char* name :
       {obs::names::kMarshallerFramesTotal,
        obs::names::kMarshallerFramesRelayed,
        obs::names::kMarshallerFramesFiltered,
        obs::names::kMarshallerHorizonsPredicted}) {
    EXPECT_EQ(inline_metrics.GetCounter(name)->Value(),
              deferred_metrics.GetCounter(name)->Value())
        << name;
  }
}

// Without a policy, a frame at distance >= M from the next boundary is
// overwritten in the ring before any window reads it:
// NextFrameNeedsFeatures() is false exactly on the frames with
// f mod H >= M, and a deferred walk that passes nullptr there records,
// decides and accounts byte for byte like one that passes every frame.
TEST(MarshallerTest, FullRateFeatureSkipIsExact) {
  ScriptedStrategy eager_strategy;
  ScriptedStrategy lazy_strategy;
  obs::MetricsRegistry eager_metrics;
  obs::MetricsRegistry lazy_metrics;
  Marshaller eager(&eager_strategy, kWindow, kHorizon, kFeatureDim, 1,
                   &eager_metrics);
  Marshaller lazy(&lazy_strategy, kWindow, kHorizon, kFeatureDim, 1,
                  &lazy_metrics);
  std::vector<RelayOrder> eager_orders, lazy_orders;
  eager.set_relay_callback(
      [&](const RelayOrder& order) { eager_orders.push_back(order); });
  lazy.set_relay_callback(
      [&](const RelayOrder& order) { lazy_orders.push_back(order); });

  // The lazy walk completes each boundary three frames late, as a batcher
  // holding its request would.
  std::deque<data::Record> held;
  data::Record eager_pending;
  data::Record lazy_pending;
  int64_t skipped = 0;
  for (int64_t f = 0; f < 95; ++f) {
    const bool needed = f % kHorizon < kWindow;
    EXPECT_EQ(eager.NextFrameNeedsFeatures(), needed) << "frame " << f;
    EXPECT_EQ(lazy.NextFrameNeedsFeatures(), needed) << "frame " << f;
    skipped += needed ? 0 : 1;
    const auto frame = FrameOf(static_cast<float>(f));
    if (eager.PushFrameDeferred(frame.data(), &eager_pending)) {
      eager.CompletePrediction(eager_strategy.Decide(eager_pending));
    }
    if (lazy.PushFrameDeferred(needed ? frame.data() : nullptr,
                               &lazy_pending)) {
      EXPECT_EQ(lazy_pending.frame, eager_pending.frame);
      EXPECT_EQ(lazy_pending.covariates, eager_pending.covariates);
      held.push_back(lazy_pending);
    }
    if (!held.empty() && f - held.front().frame >= 3) {
      lazy.CompletePrediction(lazy_strategy.Decide(held.front()));
      held.pop_front();
    }
  }
  EXPECT_EQ(skipped, 55);  // 40 of the 95 frames lie within M of a boundary.
  while (!held.empty()) {
    lazy.CompletePrediction(lazy_strategy.Decide(held.front()));
    held.pop_front();
  }
  EXPECT_EQ(lazy_strategy.calls, eager_strategy.calls);
  ASSERT_EQ(lazy_orders.size(), eager_orders.size());
  for (size_t i = 0; i < eager_orders.size(); ++i) {
    EXPECT_EQ(lazy_orders[i].frames, eager_orders[i].frames);
    EXPECT_EQ(lazy_orders[i].anchor, eager_orders[i].anchor);
  }
  EXPECT_EQ(std::memcmp(&lazy.stats(), &eager.stats(), sizeof(MarshallerStats)),
            0);
  // Full rate still charges extraction for every frame up to the last
  // boundary (93): the window fill, then one horizon per boundary.
  EXPECT_EQ(lazy.stats().frames_scored, kWindow + 9 * kHorizon);
  for (const char* name :
       {obs::names::kMarshallerFramesTotal, obs::names::kSchedFramesScored,
        obs::names::kSchedFramesSkipped, obs::names::kSchedFlopsLocalMflops}) {
    EXPECT_EQ(lazy_metrics.GetCounter(name)->Value(),
              eager_metrics.GetCounter(name)->Value())
        << name;
  }
}

TEST(MarshallerTest, DeferredCompletionsQueueInFifoOrder) {
  // A batcher may hold several prediction boundaries before flushing;
  // completions apply to anchors oldest-first.
  ScriptedStrategy strategy;
  Marshaller marshaller(&strategy, kWindow, kHorizon, kFeatureDim, 1);
  std::vector<RelayOrder> orders;
  marshaller.set_relay_callback(
      [&](const RelayOrder& order) { orders.push_back(order); });
  data::Record pending;
  std::vector<int64_t> anchors;
  for (int64_t f = 0; f < 25; ++f) {
    if (marshaller.PushFrameDeferred(FrameOf(0.0f).data(), &pending)) {
      anchors.push_back(pending.frame);
    }
  }
  ASSERT_EQ(anchors, (std::vector<int64_t>{3, 13, 23}));
  EXPECT_EQ(marshaller.pending_predictions(), 3u);
  MarshalDecision decision;
  decision.exists = {true};
  decision.intervals = {sim::Interval{2, 5}};
  for (size_t i = 0; i < anchors.size(); ++i) {
    marshaller.CompletePrediction(decision);
    ASSERT_EQ(orders.size(), i + 1);
    // Offsets [2,5] anchored at 3/13/23 -> absolute starts 5/15/25.
    EXPECT_EQ(orders[i].frames, (sim::Interval{anchors[i] + 2,
                                               anchors[i] + 5}));
  }
  EXPECT_EQ(marshaller.pending_predictions(), 0u);
}

TEST(MarshallerTest, NextPredictionFrameAdvances) {
  ScriptedStrategy strategy;
  Marshaller marshaller(&strategy, kWindow, kHorizon, kFeatureDim, 1);
  EXPECT_EQ(marshaller.next_prediction_frame(), 3);
  for (int64_t f = 0; f <= 3; ++f) {
    marshaller.PushFrame(FrameOf(0.0f).data());
  }
  EXPECT_EQ(marshaller.next_prediction_frame(), 13);
  for (int64_t f = 4; f <= 12; ++f) {
    marshaller.PushFrame(FrameOf(0.0f).data());
  }
  EXPECT_EQ(marshaller.next_prediction_frame(), 13);
}

TEST(MarshallerTest, InvalidConstructionDies) {
  ScriptedStrategy strategy;
  EXPECT_DEATH(Marshaller(nullptr, kWindow, kHorizon, kFeatureDim, 1),
               "CHECK failed");
  EXPECT_DEATH(Marshaller(&strategy, 0, kHorizon, kFeatureDim, 1),
               "CHECK failed");
  EXPECT_DEATH(Marshaller(&strategy, kWindow, 0, kFeatureDim, 1),
               "CHECK failed");
}

}  // namespace
}  // namespace eventhit::core
