// Variable-rate collection scheduling: decides, per prediction boundary,
// whether the marshaller runs feature extraction + a model forward pass
// ("scores" the boundary) or reuses its last decision ("skips" it). The
// local-compute analogue of the paper's cloud-budget marshalling — quiet
// stretches of a stream should not pay full-rate extraction cost.
//
// Three policies:
//   full      — score every boundary (today's behaviour; never installed
//               on the marshaller, so the legacy path stays untouched).
//   duty:<d>  — fixed duty cycle: score every round(1/d)-th boundary.
//   adaptive  — hysteresis on recent existence scores: after
//               `quiet_after` consecutive scored boundaries whose max
//               existence score stays below `low_water` (with no interval
//               open), drop to scoring every `quiet_stride`-th boundary;
//               snap back to full rate the moment a scored boundary sees
//               max existence >= `high_water` or any interval opens.
//
// Determinism contract: a policy's state advances only in Observe(),
// which is fed scored-boundary outcomes in stream order, so the schedule
// is a pure function of the observation sequence — the same for a solo
// stream and a batched fleet run (the marshaller enforces that pending
// predictions drain before the next boundary whenever a policy is
// installed).
#ifndef EVENTHIT_SCHED_COLLECT_POLICY_H_
#define EVENTHIT_SCHED_COLLECT_POLICY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"

namespace eventhit::sched {

enum class CollectPolicyKind { kFull, kDuty, kAdaptive };

/// Value-type description of a policy; copyable through configs (the CLI,
/// eval::RunnerConfig, fleet::FleetConfig) and turned into a live policy
/// with MakeCollectPolicy.
struct CollectPolicySpec {
  CollectPolicyKind kind = CollectPolicyKind::kFull;
  /// kDuty: fraction of boundaries scored, in (0, 1]. Stride is
  /// max(1, round(1/duty)).
  double duty = 1.0;
  /// kAdaptive hysteresis band on the max existence score.
  double low_water = 0.15;
  double high_water = 0.30;
  /// kAdaptive: consecutive quiet scored boundaries before throttling.
  int quiet_after = 3;
  /// kAdaptive: stride while throttled (score every quiet_stride-th).
  int quiet_stride = 4;
};

/// What a scored boundary looked like, fed back into the policy.
struct ScoreObservation {
  /// 0-based index of the scored boundary in the stream's boundary
  /// sequence.
  int64_t horizon_index = 0;
  /// max_k existence score b_k of the decision (0 for strategies that do
  /// not expose scores; such strategies only drive snap-back via
  /// `any_open`).
  double max_existence = 0.0;
  /// True when the decision predicted any event present (an interval is
  /// open or about to open).
  bool any_open = false;
};

class CollectPolicy {
 public:
  virtual ~CollectPolicy() = default;

  /// Display name ("full", "duty:0.50", "adaptive").
  virtual std::string name() const = 0;

  /// Whether boundary `horizon_index` should run inference. Const: state
  /// advances only in Observe, so callers may probe ahead (the
  /// marshaller's feature-skip check does).
  virtual bool ShouldScore(int64_t horizon_index) const = 0;

  /// Feeds back the outcome of a *scored* boundary, in stream order.
  virtual void Observe(const ScoreObservation& observation) = 0;

  /// Effective collection stride right now (1 = full rate); exported as
  /// the sched.policy.stride gauge.
  virtual int64_t CurrentStride() const = 0;

  /// The stride of a schedule that no score can change: boundary j is
  /// scored exactly when j mod FixedStride() == 0 (full: 1; duty:<d>:
  /// max(1, round(1/d))). 0 when observations steer the schedule
  /// (adaptive). Callers that know the scored boundaries before any frame
  /// arrives skip the unscored ones' windows (core::Marshaller, the
  /// fleet's stream videos).
  virtual int64_t FixedStride() const = 0;

  virtual void Reset() = 0;

  /// Fresh policy with the same spec and reset state (per-stream copies
  /// in the fleet).
  virtual std::unique_ptr<CollectPolicy> Clone() const = 0;
};

/// Instantiates the policy described by `spec` (including kFull, for
/// callers that want a uniform object; the marshaller treats a null
/// policy as full-rate).
std::unique_ptr<CollectPolicy> MakeCollectPolicy(const CollectPolicySpec& spec);

/// Parses the CLI syntax: "full", "duty:<d>" with d in (0, 1], or
/// "adaptive".
Result<CollectPolicySpec> ParseCollectPolicy(const std::string& text);

/// Canonical display name of a spec ("full", "duty:0.50", "adaptive").
std::string CollectPolicyName(const CollectPolicySpec& spec);

}  // namespace eventhit::sched

#endif  // EVENTHIT_SCHED_COLLECT_POLICY_H_
