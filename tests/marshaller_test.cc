#include "core/marshaller.h"

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/schema.h"
#include "sched/collect_policy.h"

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

// A boundary at or past the stream's length never fires, so the frames
// only its window would hold need no features: the stream below stops two
// frames into the window of boundary 93.
TEST(MarshallerTest, StreamFramesBoundSkipsTheUnreachedWindow) {
  ScriptedStrategy strategy;
  obs::MetricsRegistry metrics;
  Marshaller marshaller(&strategy, kWindow, kHorizon, kFeatureDim, 1,
                        &metrics);
  marshaller.set_stream_frames(92);
  data::Record pending;
  for (int64_t f = 0; f < 92; ++f) {
    const bool needed = f % kHorizon < kWindow && f < 90;
    EXPECT_EQ(marshaller.NextFrameNeedsFeatures(), needed) << "frame " << f;
    const auto frame = FrameOf(static_cast<float>(f));
    if (marshaller.PushFrameDeferred(needed ? frame.data() : nullptr,
                                     &pending)) {
      marshaller.CompletePrediction(strategy.Decide(pending));
    }
  }
  EXPECT_EQ(strategy.calls, 9);  // Boundaries 3, 13, ..., 83.
}

// Features of frame f in a stream of horizon H: a hash-spread value whose
// level is high for three horizons of every eight, so an adaptive policy
// throttles in the quiet stretches and snaps back in the loud ones.
std::vector<float> GridFrame(int64_t f, int horizon) {
  const uint64_t h = (static_cast<uint64_t>(f) + 1) * 0x9E3779B97F4A7C15ull;
  const float u = static_cast<float>(h >> 40) / static_cast<float>(1 << 24);
  const float level = (f / horizon) % 8 < 3 ? 0.9f : 0.1f;
  return {level * u, u};
}

// Decides from the window it is shown: the mean of its first feature is
// the existence score, and an event is present (with a window-dependent
// interval) above 0.3.
class WindowMeanStrategy : public MarshalStrategy {
 public:
  std::string name() const override { return "window_mean"; }
  MarshalDecision Decide(const data::Record& record) const override {
    double sum = 0.0;
    for (size_t i = 0; i < record.covariates.size(); i += kFeatureDim) {
      sum += record.covariates[i];
    }
    const double mean =
        sum / static_cast<double>(record.covariates.size() / kFeatureDim);
    MarshalDecision decision;
    decision.max_existence = mean;
    decision.exists = {mean > 0.3};
    decision.intervals = {mean > 0.3
                              ? sim::Interval{1, 1 + static_cast<int64_t>(
                                                         mean * 40.0)}
                              : sim::Interval::Empty()};
    return decision;
  }
};

// What a marshaller showed on its way through a stream.
struct StreamLog {
  std::vector<data::Record> windows;  // Every scored boundary's record.
  std::vector<std::tuple<int64_t, bool, sim::Interval, bool>> decisions;
  int64_t pushes = 0;  // PushFrameDeferred calls.
};

// Drives `m` over an n-frame stream on the frame clock t = 0..n-1, scored
// boundaries completing `delay` frames late. The reference (`skip` false)
// pushes every frame with features. The skipping walk touches the
// marshaller only on frames that are not idle: it first skips the idle
// frames in bulk, then pushes, with features only where
// NextFrameNeedsFeatures(); it catches up over the idle tail at the end.
void DriveGridStream(Marshaller& m, const MarshalStrategy& strategy,
                     int horizon, int64_t n, int64_t delay, bool skip,
                     StreamLog* log) {
  m.set_decision_callback([log](int64_t anchor, const MarshalDecision& d,
                                bool reused) {
    log->decisions.emplace_back(anchor, d.exists[0], d.intervals[0], reused);
  });
  std::deque<data::Record> held;
  data::Record pending;
  for (int64_t t = 0; t < n; ++t) {
    if (!skip && (t == m.next_prediction_frame() ||
                  m.NextFrameNeedsFeatures())) {
      EXPECT_EQ(m.IdleFramesAhead(), 0) << "frame " << t;
    }
    const bool due = !skip || t == m.stats().frames_seen + m.IdleFramesAhead();
    if (due) {
      if (skip) m.SkipIdleFrames(m.IdleFramesAhead());
      ASSERT_EQ(m.stats().frames_seen, t);
      const std::vector<float> frame = GridFrame(t, horizon);
      const bool features = !skip || m.NextFrameNeedsFeatures();
      ++log->pushes;
      if (m.PushFrameDeferred(features ? frame.data() : nullptr, &pending)) {
        log->windows.push_back(pending);
        held.push_back(pending);
      }
    }
    while (!held.empty() && t - held.front().frame >= delay) {
      m.CompletePrediction(strategy.Decide(held.front()));
      held.pop_front();
    }
  }
  if (skip) m.SkipIdleFrames(n - m.stats().frames_seen);
  while (!held.empty()) {
    m.CompletePrediction(strategy.Decide(held.front()));
    held.pop_front();
  }
}

// Skipping idle frames in bulk is exact: over window and horizon lengths,
// stream lengths aligned to H or not (some ending inside the window of a
// boundary they never reach), every collection policy and completion
// delays of 0-4 frames, past the next window's start and up to the next
// boundary, a marshaller that calls SkipIdleFrames(IdleFramesAhead())
// before each push reports what one pushed frame by frame reports. Under a
// fixed schedule (full, duty) the skipping marshaller sleeps through an
// unscored boundary's window and wakes on the boundary's own frame, even
// while the scored boundary before it is still pending.
TEST(MarshallerTest, IdleSkipMatchesFrameByFramePushes) {
  const WindowMeanStrategy strategy;
  int64_t unreached_windows = 0;
  int64_t adaptive_reused = 0;
  int64_t slept_windows = 0;
  for (const int window : {1, 10, 50}) {
    for (const int horizon : {window, 200, 500}) {
      const int64_t h = horizon;
      const std::set<int64_t> delays = {0, 1, 2, 3, 4, h - window + 1, h - 1};
      for (const int64_t frames :
           {8 * h, 8 * h + 1, 8 * h + window - 1, 8 * h + window / 2,
            8 * h + window, 8 * h + h / 2 + 7}) {
        if ((frames - 1) % h < window - 1) ++unreached_windows;
        for (const char* policy :
             {"full", "duty:0.5", "duty:0.25", "adaptive"}) {
          const sched::CollectPolicySpec spec =
              sched::ParseCollectPolicy(policy).value();
          const int64_t stride =
              sched::MakeCollectPolicy(spec)->FixedStride();
          // The skipping walk pushes a scored (or, under a score-fed
          // schedule, any) boundary's whole window, and only the boundary
          // frame of a fixed schedule's unscored one.
          int64_t expected_pushes = 0;
          for (int64_t b = window - 1, j = 0; b < frames; b += h, ++j) {
            const bool slept = stride > 0 && j % stride != 0;
            expected_pushes += slept ? 1 : window;
            if (slept && window > 1) ++slept_windows;
          }
          for (const int64_t delay : delays) {
            // A policy needs each completion before the next boundary.
            if (spec.kind != sched::CollectPolicyKind::kFull &&
                delay >= h) {
              continue;
            }
            SCOPED_TRACE("M " + std::to_string(window) + " H " +
                         std::to_string(horizon) + " frames " +
                         std::to_string(frames) + " " + policy + " delay " +
                         std::to_string(delay));
            obs::MetricsRegistry metrics;
            Marshaller by_frame(&strategy, window, horizon, kFeatureDim, 1,
                                &metrics);
            Marshaller skipping(&strategy, window, horizon, kFeatureDim, 1,
                                &metrics);
            obs::StreamProvenance by_frame_ledger(0, window, horizon, 4);
            obs::StreamProvenance skipping_ledger(0, window, horizon, 4);
            by_frame.set_provenance(&by_frame_ledger);
            skipping.set_provenance(&skipping_ledger);
            for (Marshaller* m : {&by_frame, &skipping}) {
              m->set_stream_frames(frames);
              if (spec.kind != sched::CollectPolicyKind::kFull) {
                m->set_collect_policy(sched::MakeCollectPolicy(spec));
              }
            }
            StreamLog expected;
            StreamLog actual;
            DriveGridStream(by_frame, strategy, horizon, frames, delay,
                            /*skip=*/false, &expected);
            DriveGridStream(skipping, strategy, horizon, frames, delay,
                            /*skip=*/true, &actual);
            EXPECT_EQ(std::memcmp(&skipping.stats(), &by_frame.stats(),
                                  sizeof(MarshallerStats)),
                      0);
            EXPECT_EQ(skipping.stats().frames_seen, frames);
            ASSERT_EQ(actual.windows.size(), expected.windows.size());
            for (size_t i = 0; i < expected.windows.size(); ++i) {
              EXPECT_EQ(actual.windows[i].frame, expected.windows[i].frame);
              EXPECT_EQ(actual.windows[i].covariates,
                        expected.windows[i].covariates);
            }
            EXPECT_EQ(actual.decisions, expected.decisions);
            EXPECT_EQ(skipping_ledger.Digest(), by_frame_ledger.Digest());
            EXPECT_EQ(skipping_ledger.boundaries(),
                      by_frame_ledger.boundaries());
            EXPECT_EQ(actual.pushes, expected_pushes);
            if (spec.kind == sched::CollectPolicyKind::kAdaptive) {
              adaptive_reused += by_frame.stats().horizons_reused;
            }
          }
        }
      }
    }
  }
  // The grid reaches the cases it is for.
  EXPECT_GT(unreached_windows, 0);
  EXPECT_GT(adaptive_reused, 0);
  EXPECT_GT(slept_windows, 0);
}

// Skipping more than the idle frames would skip a frame some window reads
// (or the stream's end), and dies.
TEST(MarshallerTest, SkippingPastTheIdleFramesDies) {
  ScriptedStrategy strategy;
  Marshaller marshaller(&strategy, kWindow, kHorizon, kFeatureDim, 1);
  marshaller.set_stream_frames(21);
  // Frame 0 opens the first window.
  EXPECT_EQ(marshaller.IdleFramesAhead(), 0);
  EXPECT_DEATH(marshaller.SkipIdleFrames(1), "CHECK failed");
  for (int64_t f = 0; f <= 3; ++f) {
    marshaller.PushFrame(FrameOf(static_cast<float>(f)).data());
  }
  // Frames 4..9 lie before boundary 13's window.
  EXPECT_EQ(marshaller.IdleFramesAhead(), 6);
  EXPECT_DEATH(marshaller.SkipIdleFrames(7), "CHECK failed");
  marshaller.SkipIdleFrames(6);
  EXPECT_EQ(marshaller.stats().frames_seen, 10);
  EXPECT_EQ(marshaller.IdleFramesAhead(), 0);
  for (int64_t f = 10; f <= 13; ++f) {
    marshaller.PushFrame(FrameOf(static_cast<float>(f)).data());
  }
  // Boundary 23 lies past the stream's 21 frames: the rest is idle.
  EXPECT_EQ(marshaller.IdleFramesAhead(), 7);
  EXPECT_DEATH(marshaller.SkipIdleFrames(8), "CHECK failed");
  marshaller.SkipIdleFrames(7);
  EXPECT_EQ(marshaller.stats().frames_seen, 21);
  EXPECT_EQ(marshaller.stats().horizons_predicted, 2);
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
