// Tests for the collection scheduling policies (sched/collect_policy.h)
// and their wiring into the marshaller: parsing, duty/adaptive schedules,
// window alignment across skip gaps, the covering-set property of
// NextFrameNeedsFeatures, full-policy identity and cost accounting.
#include "sched/collect_policy.h"

#include <gtest/gtest.h>

#include <utility>

#include "core/marshaller.h"
#include "obs/metrics.h"
#include "obs/schema.h"
#include "sched/cost_model.h"

namespace eventhit {
namespace {

namespace core = ::eventhit::core;
namespace sched = ::eventhit::sched;

TEST(ParseCollectPolicyTest, ParsesAllThreeForms) {
  EXPECT_EQ(sched::ParseCollectPolicy("full").value().kind,
            sched::CollectPolicyKind::kFull);
  // The empty string is the unset CLI flag: full rate.
  EXPECT_EQ(sched::ParseCollectPolicy("").value().kind,
            sched::CollectPolicyKind::kFull);
  EXPECT_EQ(sched::ParseCollectPolicy("adaptive").value().kind,
            sched::CollectPolicyKind::kAdaptive);
  const auto duty = sched::ParseCollectPolicy("duty:0.5");
  ASSERT_TRUE(duty.ok()) << duty.status();
  EXPECT_EQ(duty.value().kind, sched::CollectPolicyKind::kDuty);
  EXPECT_DOUBLE_EQ(duty.value().duty, 0.5);
  EXPECT_EQ(sched::CollectPolicyName(duty.value()), "duty:0.50");
}

TEST(ParseCollectPolicyTest, RejectsBadSyntaxAndRange) {
  EXPECT_FALSE(sched::ParseCollectPolicy("duty:0").ok());
  EXPECT_FALSE(sched::ParseCollectPolicy("duty:-0.5").ok());
  EXPECT_FALSE(sched::ParseCollectPolicy("duty:1.5").ok());
  EXPECT_FALSE(sched::ParseCollectPolicy("duty:").ok());
  EXPECT_FALSE(sched::ParseCollectPolicy("duty:abc").ok());
  EXPECT_FALSE(sched::ParseCollectPolicy("duty:0.5x").ok());
  EXPECT_FALSE(sched::ParseCollectPolicy("bogus").ok());
}

TEST(DutyPolicyTest, StrideIsRoundedReciprocal) {
  sched::CollectPolicySpec spec;
  spec.kind = sched::CollectPolicyKind::kDuty;
  spec.duty = 0.5;
  auto policy = sched::MakeCollectPolicy(spec);
  EXPECT_EQ(policy->CurrentStride(), 2);
  EXPECT_TRUE(policy->ShouldScore(0));
  EXPECT_FALSE(policy->ShouldScore(1));
  EXPECT_TRUE(policy->ShouldScore(2));
  spec.duty = 0.25;
  EXPECT_EQ(sched::MakeCollectPolicy(spec)->CurrentStride(), 4);
  spec.duty = 1.0;
  auto full_rate = sched::MakeCollectPolicy(spec);
  EXPECT_EQ(full_rate->CurrentStride(), 1);
  EXPECT_TRUE(full_rate->ShouldScore(17));
  // The fixed stride: a duty cycle's rounded reciprocal, 1 at full rate,
  // none (0) for the score-fed adaptive schedule.
  const std::pair<double, int64_t> kStrides[] = {
      {1.0, 1}, {0.5, 2}, {0.3, 3}, {0.25, 4}, {0.1, 10}};
  for (const auto& [duty, stride] : kStrides) {
    spec.duty = duty;
    EXPECT_EQ(sched::MakeCollectPolicy(spec)->FixedStride(), stride)
        << "duty " << duty;
  }
  EXPECT_EQ(sched::MakeCollectPolicy(sched::CollectPolicySpec{})
                ->FixedStride(),
            1);
  auto adaptive =
      sched::MakeCollectPolicy(sched::ParseCollectPolicy("adaptive").value());
  EXPECT_EQ(adaptive->FixedStride(), 0);
  for (int64_t index = 0; index < 4; ++index) {
    adaptive->Observe({index, 0.01, false});  // Throttles; stride stays 0.
  }
  EXPECT_GT(adaptive->CurrentStride(), 1);
  EXPECT_EQ(adaptive->FixedStride(), 0);
}

sched::ScoreObservation Quiet(int64_t index, double score = 0.05) {
  sched::ScoreObservation observation;
  observation.horizon_index = index;
  observation.max_existence = score;
  observation.any_open = false;
  return observation;
}

TEST(AdaptivePolicyTest, ThrottlesAfterQuietRunAndSnapsBack) {
  sched::CollectPolicySpec spec;
  spec.kind = sched::CollectPolicyKind::kAdaptive;  // Defaults: 3 / 4.
  auto policy = sched::MakeCollectPolicy(spec);
  // Three consecutive quiet scored boundaries trip the throttle...
  policy->Observe(Quiet(0));
  policy->Observe(Quiet(1));
  EXPECT_EQ(policy->CurrentStride(), 1);
  policy->Observe(Quiet(2));
  EXPECT_EQ(policy->CurrentStride(), 4);
  // ...anchored at the tripping boundary: score 2, 6, 10, skip between.
  EXPECT_TRUE(policy->ShouldScore(2));
  EXPECT_FALSE(policy->ShouldScore(3));
  EXPECT_FALSE(policy->ShouldScore(5));
  EXPECT_TRUE(policy->ShouldScore(6));
  // A score at/above the high-water mark snaps back to full rate.
  sched::ScoreObservation loud = Quiet(6, 0.5);
  policy->Observe(loud);
  EXPECT_EQ(policy->CurrentStride(), 1);
  EXPECT_TRUE(policy->ShouldScore(7));
}

TEST(AdaptivePolicyTest, AnyOpenIntervalSnapsBackRegardlessOfScore) {
  sched::CollectPolicySpec spec;
  spec.kind = sched::CollectPolicyKind::kAdaptive;
  auto policy = sched::MakeCollectPolicy(spec);
  for (int64_t i = 0; i < 3; ++i) policy->Observe(Quiet(i));
  EXPECT_EQ(policy->CurrentStride(), 4);
  // A COX-style strategy exposes no scores (max_existence 0) but still
  // reports open intervals; that alone must un-throttle.
  sched::ScoreObservation open = Quiet(6, 0.0);
  open.any_open = true;
  policy->Observe(open);
  EXPECT_EQ(policy->CurrentStride(), 1);
}

TEST(AdaptivePolicyTest, MidBandHoldsModeButRestartsQuietRun) {
  sched::CollectPolicySpec spec;
  spec.kind = sched::CollectPolicyKind::kAdaptive;
  auto policy = sched::MakeCollectPolicy(spec);
  policy->Observe(Quiet(0));
  policy->Observe(Quiet(1));
  // Inside [low_water, high_water): not unambiguously quiet, run restarts.
  policy->Observe(Quiet(2, 0.20));
  policy->Observe(Quiet(3));
  policy->Observe(Quiet(4));
  EXPECT_EQ(policy->CurrentStride(), 1);  // Only 2 quiet since restart.
  policy->Observe(Quiet(5));
  EXPECT_EQ(policy->CurrentStride(), 4);
}

TEST(AdaptivePolicyTest, CloneAndResetStartFresh) {
  sched::CollectPolicySpec spec;
  spec.kind = sched::CollectPolicyKind::kAdaptive;
  auto policy = sched::MakeCollectPolicy(spec);
  for (int64_t i = 0; i < 3; ++i) policy->Observe(Quiet(i));
  EXPECT_EQ(policy->CurrentStride(), 4);
  EXPECT_EQ(policy->Clone()->CurrentStride(), 1);
  policy->Reset();
  EXPECT_EQ(policy->CurrentStride(), 1);
}

// --- Marshaller wiring -------------------------------------------------

constexpr int kWindow = 4;
constexpr int kHorizon = 10;
constexpr size_t kFeatureDim = 2;

std::vector<float> FrameOf(float value) { return {value, value + 100.0f}; }

// Scripted strategy that records every record it is shown and plays back
// per-call existence scores (for driving the adaptive hysteresis).
class RecordingStrategy : public core::MarshalStrategy {
 public:
  std::string name() const override { return "recording"; }

  core::MarshalDecision Decide(const data::Record& record) const override {
    records.push_back(record);
    core::MarshalDecision decision;
    const size_t call = records.size() - 1;
    const double score =
        call < scores.size() ? scores[call] : default_score;
    decision.exists = {score >= 0.5};
    decision.intervals = {score >= 0.5 ? interval : sim::Interval::Empty()};
    decision.max_existence = score;
    return decision;
  }

  mutable std::vector<data::Record> records;
  std::vector<double> scores;   // Per scored call; default_score beyond.
  double default_score = 0.9;
  sim::Interval interval{2, 5};
};

struct Completion {
  int64_t anchor = 0;
  bool reused = false;
  bool exists = false;
};

// Drives `marshaller` over `frames` stream frames, honouring the
// feature-skip contract, and returns the completion log.
std::vector<Completion> Drive(core::Marshaller& marshaller, int64_t frames) {
  std::vector<Completion> log;
  marshaller.set_decision_callback(
      [&](int64_t anchor, const core::MarshalDecision& decision,
          bool reused) {
        log.push_back({anchor, reused, decision.exists[0]});
      });
  for (int64_t f = 0; f < frames; ++f) {
    const auto features = FrameOf(static_cast<float>(f));
    marshaller.PushFrame(
        marshaller.NextFrameNeedsFeatures() ? features.data() : nullptr);
  }
  return log;
}

TEST(MarshallerPolicyTest, DutySkipsReplayLastDecisionReanchored) {
  RecordingStrategy strategy;
  core::Marshaller marshaller(&strategy, kWindow, kHorizon, kFeatureDim, 1);
  marshaller.set_collect_policy(
      sched::MakeCollectPolicy(sched::ParseCollectPolicy("duty:0.5").value()));
  std::vector<core::RelayOrder> orders;
  marshaller.set_relay_callback(
      [&](const core::RelayOrder& order) { orders.push_back(order); });

  const std::vector<Completion> log = Drive(marshaller, 40);

  // Boundaries still land at 3, 13, 23, 33 — skipping never shifts the
  // window/horizon alignment. Odd horizon indices are reused.
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0].anchor, 3);
  EXPECT_EQ(log[1].anchor, 13);
  EXPECT_EQ(log[2].anchor, 23);
  EXPECT_EQ(log[3].anchor, 33);
  EXPECT_FALSE(log[0].reused);
  EXPECT_TRUE(log[1].reused);
  EXPECT_FALSE(log[2].reused);
  EXPECT_TRUE(log[3].reused);
  EXPECT_EQ(strategy.records.size(), 2u);

  // Reused boundaries replay the decision but re-anchor its offsets: the
  // interval [2,5] opens and closes relative to each boundary's frame.
  ASSERT_EQ(orders.size(), 4u);
  for (size_t i = 0; i < orders.size(); ++i) {
    EXPECT_EQ(orders[i].anchor, log[i].anchor);
    EXPECT_EQ(orders[i].frames,
              (sim::Interval{log[i].anchor + 2, log[i].anchor + 5}));
  }

  // The scored boundary after a skip gap still sees its own window,
  // oldest-first: frames 20..23 — the skipped stretch never leaks stale
  // ring contents into a scored window.
  const auto& covariates = strategy.records[1].covariates;
  ASSERT_EQ(covariates.size(), kWindow * kFeatureDim);
  for (int m = 0; m < kWindow; ++m) {
    EXPECT_FLOAT_EQ(covariates[m * kFeatureDim], static_cast<float>(20 + m));
    EXPECT_FLOAT_EQ(covariates[m * kFeatureDim + 1],
                    static_cast<float>(120 + m));
  }
  EXPECT_EQ(strategy.records[1].frame, 23);
}

TEST(MarshallerPolicyTest, InstalledFullPolicyMatchesNoPolicyDecisions) {
  // --collect-policy=full never installs a policy, but an explicitly
  // installed kFull policy must still produce the identical decision
  // stream (only the local-cost attribution may differ).
  RecordingStrategy bare_strategy, full_strategy;
  core::Marshaller bare(&bare_strategy, kWindow, kHorizon, kFeatureDim, 1);
  core::Marshaller full(&full_strategy, kWindow, kHorizon, kFeatureDim, 1);
  full.set_collect_policy(sched::MakeCollectPolicy(sched::CollectPolicySpec{}));
  std::vector<core::RelayOrder> bare_orders, full_orders;
  bare.set_relay_callback(
      [&](const core::RelayOrder& order) { bare_orders.push_back(order); });
  full.set_relay_callback(
      [&](const core::RelayOrder& order) { full_orders.push_back(order); });

  const std::vector<Completion> bare_log = Drive(bare, 60);
  const std::vector<Completion> full_log = Drive(full, 60);

  ASSERT_EQ(bare_log.size(), full_log.size());
  for (size_t i = 0; i < bare_log.size(); ++i) {
    EXPECT_EQ(bare_log[i].anchor, full_log[i].anchor);
    EXPECT_EQ(bare_log[i].reused, full_log[i].reused);
    EXPECT_FALSE(full_log[i].reused);
  }
  ASSERT_EQ(bare_orders.size(), full_orders.size());
  for (size_t i = 0; i < bare_orders.size(); ++i) {
    EXPECT_EQ(bare_orders[i].frames, full_orders[i].frames);
    EXPECT_EQ(bare_orders[i].anchor, full_orders[i].anchor);
  }
  ASSERT_EQ(bare_strategy.records.size(), full_strategy.records.size());
  for (size_t i = 0; i < bare_strategy.records.size(); ++i) {
    EXPECT_EQ(bare_strategy.records[i].frame, full_strategy.records[i].frame);
    EXPECT_EQ(bare_strategy.records[i].covariates,
              full_strategy.records[i].covariates);
  }
  EXPECT_EQ(full.stats().horizons_reused, 0);
}

TEST(MarshallerPolicyTest, FeatureSkipContractPreservesDecisions) {
  // Passing features on every frame versus only when
  // NextFrameNeedsFeatures() asks for them must be indistinguishable:
  // the extracted set covers every frame a scored window reads.
  RecordingStrategy eager_strategy, lazy_strategy;
  core::Marshaller eager(&eager_strategy, kWindow, kHorizon, kFeatureDim, 1);
  core::Marshaller lazy(&lazy_strategy, kWindow, kHorizon, kFeatureDim, 1);
  const auto spec = sched::ParseCollectPolicy("duty:0.25").value();
  eager.set_collect_policy(sched::MakeCollectPolicy(spec));
  lazy.set_collect_policy(sched::MakeCollectPolicy(spec));

  int64_t lazy_features = 0;
  for (int64_t f = 0; f < 100; ++f) {
    const auto features = FrameOf(static_cast<float>(f));
    eager.PushFrame(features.data());
    if (lazy.NextFrameNeedsFeatures()) {
      ++lazy_features;
      lazy.PushFrame(features.data());
    } else {
      lazy.PushFrame(nullptr);
    }
  }
  ASSERT_EQ(eager_strategy.records.size(), lazy_strategy.records.size());
  for (size_t i = 0; i < eager_strategy.records.size(); ++i) {
    EXPECT_EQ(eager_strategy.records[i].frame,
              lazy_strategy.records[i].frame);
    EXPECT_EQ(eager_strategy.records[i].covariates,
              lazy_strategy.records[i].covariates);
  }
  // The lazy driver actually skipped extraction on most frames.
  EXPECT_LT(lazy_features, 100);
  EXPECT_EQ(lazy.stats().frames_skipped, eager.stats().frames_skipped);
}

TEST(MarshallerPolicyTest, AdaptiveThrottlesQuietStreamAndSnapsBack) {
  RecordingStrategy strategy;
  // Scored calls 0..2 quiet -> throttle after the third; call 3 (the
  // first throttled probe) comes back loud -> snap back to full rate.
  strategy.scores = {0.05, 0.05, 0.05, 0.9};
  strategy.default_score = 0.9;
  core::Marshaller marshaller(&strategy, kWindow, kHorizon, kFeatureDim, 1);
  marshaller.set_collect_policy(
      sched::MakeCollectPolicy(sched::ParseCollectPolicy("adaptive").value()));

  // 9 boundaries: frames 3, 13, ..., 83.
  const std::vector<Completion> log = Drive(marshaller, 90);
  ASSERT_EQ(log.size(), 9u);
  // Indices 0..2 scored (quiet run), 3..5 skipped (stride 4 from anchor
  // 2), 6 scored and loud, 7..8 scored again at full rate.
  const std::vector<bool> reused = {false, false, false, true, true,
                                    true,  false, false, false};
  for (size_t i = 0; i < reused.size(); ++i) {
    EXPECT_EQ(log[i].reused, reused[i]) << "boundary " << i;
  }
  EXPECT_EQ(marshaller.stats().horizons_reused, 3);
  EXPECT_EQ(strategy.records.size(), 6u);
}

TEST(MarshallerPolicyTest, CostAccountingAndSchedMetrics) {
  RecordingStrategy strategy;
  obs::MetricsRegistry metrics;
  core::Marshaller marshaller(&strategy, kWindow, kHorizon, kFeatureDim, 1,
                              &metrics);
  marshaller.set_collect_policy(
      sched::MakeCollectPolicy(sched::ParseCollectPolicy("duty:0.5").value()));
  sched::LocalCostModel cost;
  cost.feature_mflops_per_frame = 1.0;
  cost.forward_mflops_per_boundary = 5.0;
  marshaller.set_cost_model(cost);

  Drive(marshaller, 40);  // Boundaries 3, 13, 23, 33: scored/reused x2.

  // Segments: 4 (window fill) + 10 + 10 + 10. Scored boundaries charge
  // min(M, segment) = 4 frames; reused ones charge none.
  const auto& stats = marshaller.stats();
  EXPECT_EQ(stats.horizons_predicted, 4);
  EXPECT_EQ(stats.horizons_reused, 2);
  EXPECT_EQ(stats.frames_scored, 8);
  EXPECT_EQ(stats.frames_skipped, 26);
  EXPECT_EQ(stats.frames_scored + stats.frames_skipped, 34);
  // 8 frames * 1 MFLOP + 2 forwards * 5 MFLOPs.
  EXPECT_EQ(stats.local_mflops, 18);
  // 26 skipped frames * 1 + 2 avoided forwards * 5.
  EXPECT_EQ(stats.saved_mflops, 36);

  EXPECT_EQ(metrics.GetCounter(obs::names::kSchedHorizonsScored)->Value(), 2);
  EXPECT_EQ(metrics.GetCounter(obs::names::kSchedHorizonsReused)->Value(), 2);
  EXPECT_EQ(metrics.GetCounter(obs::names::kSchedFramesScored)->Value(), 8);
  EXPECT_EQ(metrics.GetCounter(obs::names::kSchedFramesSkipped)->Value(), 26);
  EXPECT_EQ(metrics.GetCounter(obs::names::kSchedFlopsLocalMflops)->Value(),
            18);
  EXPECT_EQ(metrics.GetCounter(obs::names::kSchedFlopsSavedMflops)->Value(),
            36);
  EXPECT_DOUBLE_EQ(metrics.GetGauge(obs::names::kSchedPolicyStride)->Value(),
                   2.0);
}

TEST(MarshallerPolicyTest, FractionalForwardCostsAccumulateExactly) {
  // A forward pass costs a fraction of an MFLOP; rounding each boundary's
  // charge would drop every one of them.
  sched::LocalCostModel cost;
  cost.feature_mflops_per_frame = 1.0;
  cost.forward_mflops_per_boundary = 0.4;

  RecordingStrategy duty_strategy;
  obs::MetricsRegistry duty_metrics;
  core::Marshaller duty(&duty_strategy, kWindow, kHorizon, kFeatureDim, 1,
                        &duty_metrics);
  duty.set_collect_policy(
      sched::MakeCollectPolicy(sched::ParseCollectPolicy("duty:0.5").value()));
  duty.set_cost_model(cost);
  Drive(duty, 80);  // Boundaries 3, 13, ..., 73: four scored, four reused.
  // 16 window frames + 4 forwards * 0.4 = 17.6; 58 skipped frames + 4
  // avoided forwards * 0.4 = 59.6.
  EXPECT_EQ(duty.stats().local_mflops, 18);
  EXPECT_EQ(duty.stats().saved_mflops, 60);
  EXPECT_EQ(
      duty_metrics.GetCounter(obs::names::kSchedFlopsLocalMflops)->Value(),
      18);
  EXPECT_EQ(
      duty_metrics.GetCounter(obs::names::kSchedFlopsSavedMflops)->Value(),
      60);

  // Full rate: 74 frames + 8 forwards * 0.4 = 77.2.
  RecordingStrategy full_strategy;
  obs::MetricsRegistry full_metrics;
  core::Marshaller full(&full_strategy, kWindow, kHorizon, kFeatureDim, 1,
                        &full_metrics);
  full.set_cost_model(cost);
  Drive(full, 80);
  EXPECT_EQ(full.stats().local_mflops, 77);
  EXPECT_EQ(full.stats().saved_mflops, 0);
  EXPECT_EQ(
      full_metrics.GetCounter(obs::names::kSchedFlopsLocalMflops)->Value(),
      77);
}

TEST(MarshallerPolicyTest, EstimateForwardMflopsScalesWithModel) {
  const double small = sched::EstimateForwardMflops(10, 10, 24, 24, 24, 1,
                                                    200);
  const double large = sched::EstimateForwardMflops(25, 24, 24, 24, 24, 6,
                                                    500);
  EXPECT_GT(small, 0.0);
  EXPECT_GT(large, small);
}

TEST(MarshallerPolicyTest, LatePolicyInstallDies) {
  RecordingStrategy strategy;
  core::Marshaller marshaller(&strategy, kWindow, kHorizon, kFeatureDim, 1);
  marshaller.PushFrame(FrameOf(0.0f).data());
  EXPECT_DEATH(marshaller.set_collect_policy(sched::MakeCollectPolicy(
                   sched::ParseCollectPolicy("adaptive").value())),
               "CHECK failed");
}

// The feature skip and the idle rule look at the next boundary only. With
// M > H a frame before an unscored boundary can sit in the next scored
// boundary's window, so a policy needs M <= H (M == H is covered by
// MarshallerTest.IdleSkipMatchesFrameByFramePushes).
TEST(MarshallerPolicyTest, PolicyWithWindowLongerThanHorizonDies) {
  RecordingStrategy strategy;
  core::Marshaller wide(&strategy, kHorizon + 1, kHorizon, kFeatureDim, 1);
  EXPECT_DEATH(wide.set_collect_policy(sched::MakeCollectPolicy(
                   sched::ParseCollectPolicy("duty:0.5").value())),
               "CHECK failed");
  wide.set_collect_policy(nullptr);  // Full rate reads every window.
}

TEST(MarshallerPolicyTest, NullFeaturesWithoutPolicyDies) {
  RecordingStrategy strategy;
  core::Marshaller marshaller(&strategy, kWindow, kHorizon, kFeatureDim, 1);
  EXPECT_TRUE(marshaller.NextFrameNeedsFeatures());
  EXPECT_DEATH(marshaller.PushFrame(nullptr), "CHECK failed");
}

}  // namespace
}  // namespace eventhit
