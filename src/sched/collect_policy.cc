#include "sched/collect_policy.h"

#include <cmath>
#include <cstdio>

#include "common/check.h"

namespace eventhit::sched {

namespace {

class FullPolicy : public CollectPolicy {
 public:
  std::string name() const override { return "full"; }
  bool ShouldScore(int64_t) const override { return true; }
  void Observe(const ScoreObservation&) override {}
  int64_t CurrentStride() const override { return 1; }
  int64_t FixedStride() const override { return 1; }
  void Reset() override {}
  std::unique_ptr<CollectPolicy> Clone() const override {
    return std::make_unique<FullPolicy>();
  }
};

class DutyPolicy : public CollectPolicy {
 public:
  explicit DutyPolicy(const CollectPolicySpec& spec)
      : spec_(spec),
        stride_(std::max<int64_t>(1, std::llround(1.0 / spec.duty))) {}

  std::string name() const override {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "duty:%.2f", spec_.duty);
    return buffer;
  }
  bool ShouldScore(int64_t horizon_index) const override {
    return horizon_index % stride_ == 0;
  }
  void Observe(const ScoreObservation&) override {}
  int64_t CurrentStride() const override { return stride_; }
  int64_t FixedStride() const override { return stride_; }
  void Reset() override {}
  std::unique_ptr<CollectPolicy> Clone() const override {
    return std::make_unique<DutyPolicy>(spec_);
  }

 private:
  CollectPolicySpec spec_;
  int64_t stride_;
};

class AdaptivePolicy : public CollectPolicy {
 public:
  explicit AdaptivePolicy(const CollectPolicySpec& spec) : spec_(spec) {
    EVENTHIT_CHECK_GT(spec_.quiet_stride, 0);
    EVENTHIT_CHECK_GT(spec_.quiet_after, 0);
    EVENTHIT_CHECK_LE(spec_.low_water, spec_.high_water);
  }

  std::string name() const override { return "adaptive"; }

  bool ShouldScore(int64_t horizon_index) const override {
    if (!throttled_) return true;
    return (horizon_index - throttle_anchor_) % spec_.quiet_stride == 0;
  }

  void Observe(const ScoreObservation& observation) override {
    if (observation.any_open ||
        observation.max_existence >= spec_.high_water) {
      // Snap back to full rate the moment anything stirs.
      throttled_ = false;
      quiet_run_ = 0;
      return;
    }
    if (observation.max_existence < spec_.low_water) {
      if (!throttled_ && ++quiet_run_ >= spec_.quiet_after) {
        throttled_ = true;
        throttle_anchor_ = observation.horizon_index;
      }
      return;
    }
    // Inside the hysteresis band: hold the current mode, and restart the
    // quiet run (the stretch is not unambiguously quiet).
    quiet_run_ = 0;
  }

  int64_t CurrentStride() const override {
    return throttled_ ? spec_.quiet_stride : 1;
  }
  int64_t FixedStride() const override { return 0; }

  void Reset() override {
    throttled_ = false;
    quiet_run_ = 0;
    throttle_anchor_ = 0;
  }

  std::unique_ptr<CollectPolicy> Clone() const override {
    return std::make_unique<AdaptivePolicy>(spec_);
  }

 private:
  CollectPolicySpec spec_;
  bool throttled_ = false;
  int quiet_run_ = 0;
  int64_t throttle_anchor_ = 0;
};

}  // namespace

std::unique_ptr<CollectPolicy> MakeCollectPolicy(
    const CollectPolicySpec& spec) {
  switch (spec.kind) {
    case CollectPolicyKind::kFull:
      return std::make_unique<FullPolicy>();
    case CollectPolicyKind::kDuty:
      EVENTHIT_CHECK_GT(spec.duty, 0.0);
      EVENTHIT_CHECK_LE(spec.duty, 1.0);
      return std::make_unique<DutyPolicy>(spec);
    case CollectPolicyKind::kAdaptive:
      return std::make_unique<AdaptivePolicy>(spec);
  }
  EVENTHIT_CHECK(false);
  return nullptr;
}

Result<CollectPolicySpec> ParseCollectPolicy(const std::string& text) {
  CollectPolicySpec spec;
  if (text.empty() || text == "full") {
    spec.kind = CollectPolicyKind::kFull;
    return spec;
  }
  if (text == "adaptive") {
    spec.kind = CollectPolicyKind::kAdaptive;
    return spec;
  }
  const std::string duty_prefix = "duty:";
  if (text.rfind(duty_prefix, 0) == 0) {
    const std::string arg = text.substr(duty_prefix.size());
    char* end = nullptr;
    const double duty = std::strtod(arg.c_str(), &end);
    if (arg.empty() || end == nullptr || *end != '\0' ||
        !(duty > 0.0 && duty <= 1.0)) {
      return InvalidArgumentError("duty cycle must be in (0, 1]: '" + arg +
                                  "'");
    }
    spec.kind = CollectPolicyKind::kDuty;
    spec.duty = duty;
    return spec;
  }
  return InvalidArgumentError(
      "unknown collect policy '" + text +
      "' (expected full, duty:<d> or adaptive)");
}

std::string CollectPolicyName(const CollectPolicySpec& spec) {
  return MakeCollectPolicy(spec)->name();
}

}  // namespace eventhit::sched
