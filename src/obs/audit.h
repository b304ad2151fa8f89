// Online guarantee auditor: checks, on the simulated stream clock, whether
// the conformal contracts the marshaller was configured with are actually
// holding per event type.
//
// C-CLASSIFY (paper Theorem 4.2) promises P(event missed) <= 1 - c over
// positive records; C-REGRESS (Theorem 5.2) promises each true interval
// endpoint is covered with probability >= alpha. The auditor consumes one
// AuditOutcome per (record, event) pair and maintains, per event type and
// per guarantee:
//
//   * lifetime counts (positives/misses, endpoints/miscovered) — these
//     match the offline REC accounting of eval::ComputeMetrics exactly on
//     the same slice;
//   * rolling fast/slow windows of failure indicators with a burn-rate
//     style breach detector: the breach latches when the fast-window
//     empirical failure rate exceeds burn_factor x budget AND the
//     slow-window Wilson lower confidence bound exceeds the budget, so a
//     breach needs both a fast burn and statistical evidence that it is
//     not sampling noise;
//   * labeled audit.* metrics, audit.breach simulated trace spans, and
//     structured-log records for every latched breach.
//
// The auditor is a pure side channel: it never feeds back into decisions,
// so the parallel==serial determinism contract (DESIGN.md §5c) holds. It
// is not thread-safe — it lives on the single streaming thread, like the
// relay.
#ifndef EVENTHIT_OBS_AUDIT_H_
#define EVENTHIT_OBS_AUDIT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace eventhit::obs {

/// One audited (record, event) outcome on the simulated stream clock.
/// `start_covered`/`end_covered` are only consulted when both truth and
/// prediction say the event is present (the only case where C-REGRESS
/// produced an interval that can be scored).
struct AuditOutcome {
  int64_t sim_time = 0;
  int event = 0;
  bool truth_present = false;
  bool predicted_present = false;
  bool start_covered = false;
  bool end_covered = false;
  /// Provenance decision id of the marshalling boundary this outcome
  /// audits (obs/provenance.h); -1 when no ledger is attached. Carried as
  /// an exemplar on the audit.misses / audit.miscovered / audit.breaches
  /// counters so a metric anomaly links to its causal chain.
  int64_t decision_id = -1;
};

struct AuditConfig {
  double confidence = 0.9;  // c: miss budget is 1 - c.
  double coverage = 0.5;    // alpha: miscoverage budget is 1 - alpha.
  /// Burn-rate windows, in failure-track samples (positives for the miss
  /// track, endpoints for the coverage track).
  int fast_window = 32;
  int slow_window = 256;
  /// The fast-window empirical rate must exceed burn_factor x budget
  /// (capped at the midpoint between the budget and 1, so loose budgets
  /// like a 0.5 miscoverage budget stay trippable).
  double burn_factor = 2.0;
  /// z for the one-sided Wilson lower bound on the slow window (1.96 ~
  /// 97.5% one-sided confidence).
  double wilson_z = 1.959963984540054;
  /// Converts sim_time (frames) to seconds for breach trace spans.
  double stream_fps = 30.0;
  /// Simulated-timeline track (tid) for breach spans: 0 for the solo
  /// pipeline, the tenant index in a fleet (paired with a thread_name
  /// metadata record so Perfetto groups per-tenant spans).
  int32_t sim_tid = 0;
  /// Display names per event index; missing entries render as "event<k>".
  std::vector<std::string> event_labels;
};

/// One-sided Wilson score lower bound for a failure proportion of `fails`
/// out of `n`; 0 when n == 0.
double WilsonLowerBound(int64_t fails, int64_t n, double z);

/// The two guarantee tracks the auditor scores per event type.
enum class AuditGuarantee { kMiss = 0, kMiscoverage = 1 };

const char* AuditGuaranteeName(AuditGuarantee guarantee);  // "miss"/...

/// The auditor's unlabeled totals on one registry, resolved once per
/// registry (MetricsRegistry::HandleSet).
struct AuditMetrics {
  explicit AuditMetrics(MetricsRegistry& registry);
  /// The registry's set; nullptr selects MetricsRegistry::Global().
  static const AuditMetrics& Of(MetricsRegistry* registry);

  Counter* outcomes;
  Counter* positives;
  Counter* misses;
  Counter* endpoints;
  Counter* miscovered;
  Counter* breaches;
};

/// The `{event_type=label}` series of one event type on one registry, and
/// its per-guarantee breach series: the registry's handle set for `label`.
struct AuditEventMetrics {
  AuditEventMetrics(MetricsRegistry& registry, const std::string& label);

  Counter* outcomes;
  Counter* positives;
  Counter* misses;
  Counter* endpoints;
  Counter* miscovered;
  Gauge* miss_rate;
  Gauge* miss_wilson;
  Gauge* miss_budget;
  Gauge* miscoverage_rate;
  Gauge* miscoverage_wilson;
  Gauge* miscoverage_budget;
  // Indexed by AuditGuarantee.
  Gauge* breach_active[2];
  Counter* breach_counter[2];
};

/// The label the auditor gives event `event`: config.event_labels[event]
/// when present, else "event<k>".
std::string AuditEventLabel(const AuditConfig& config, int event);

class GuarantyAuditor {
 public:
  /// nullptr registry/trace/log select the process-wide defaults (trace
  /// nullptr disables spans, matching TraceSpan's convention; metrics and
  /// log fall back to their Global() instances).
  GuarantyAuditor(const AuditConfig& config,
                  MetricsRegistry* metrics = nullptr,
                  TraceBuffer* trace = nullptr, Logger* log = nullptr);

  GuarantyAuditor(const GuarantyAuditor&) = delete;
  GuarantyAuditor& operator=(const GuarantyAuditor&) = delete;

  /// Feeds one outcome. Outcomes must arrive in non-decreasing sim_time
  /// order (the stream clock).
  void Observe(const AuditOutcome& outcome);

  /// Emits one audit.breach simulated span per latched breach, covering
  /// [breach time, end_sim_time] on the simulated timeline. Idempotent.
  void Finalize(int64_t end_sim_time);

  // --- Lifetime accounting (exact, for cross-checks against the offline
  // --- evaluation) ----------------------------------------------------
  int64_t outcomes() const { return outcomes_; }
  int64_t positives(int event) const;
  int64_t misses(int event) const;
  int64_t endpoints(int event) const;
  int64_t miscovered(int event) const;
  int64_t total_positives() const;
  int64_t total_misses() const;
  int64_t total_endpoints() const;
  int64_t total_miscovered() const;

  /// Lifetime empirical rates (0 when the denominator is 0). The miss
  /// rate over the full slice equals 1 - REC_c of the offline metrics.
  double MissRate(int event) const;
  double MiscoverageRate(int event) const;

  // --- Breach state ----------------------------------------------------
  bool breached(int event, AuditGuarantee guarantee) const;
  bool any_breach() const { return breaches_ > 0; }
  int64_t breach_count() const { return breaches_; }
  /// Sim time the breach latched; -1 when not breached.
  int64_t breach_time(int event, AuditGuarantee guarantee) const;
  /// Fast-window failure rate above which a track may latch a breach (and
  /// at or under which the drift lab counts it restored).
  double FastBurnThreshold(AuditGuarantee guarantee) const;
  /// Decision id of the most recently latched breach (-1 when none
  /// breached or the outcomes carried no provenance ids) — the exemplar
  /// the fleet folds into the exported audit.breaches counter.
  int64_t last_breach_decision_id() const { return last_breach_decision_; }

  const AuditConfig& config() const { return config_; }

 private:
  /// Rolling failure-indicator window plus lifetime counts for one
  /// (event, guarantee) track.
  struct Track {
    int64_t n = 0;      // Lifetime samples.
    int64_t fails = 0;  // Lifetime failures.
    std::vector<uint8_t> ring;  // Last slow_window indicators.
    size_t head = 0;
    int64_t ring_fails = 0;  // Failures currently in the ring.
    bool breached = false;
    int64_t breach_time = -1;
    Gauge* rate = nullptr;
    Gauge* wilson = nullptr;
    Gauge* breach_active = nullptr;
    Counter* breach_counter = nullptr;
  };

  struct EventState {
    std::string label;
    Counter* outcomes = nullptr;
    Counter* positives = nullptr;
    Counter* misses = nullptr;
    Counter* endpoints = nullptr;
    Counter* miscovered = nullptr;
    Track miss;
    Track coverage;
  };

  EventState& State(int event);
  double Budget(AuditGuarantee guarantee) const {
    return guarantee == AuditGuarantee::kMiss ? miss_budget_
                                              : miscoverage_budget_;
  }
  void ObserveTrack(EventState& state, Track* track,
                    AuditGuarantee guarantee, bool fail, int64_t sim_time,
                    int64_t decision_id);

  const AuditConfig config_;
  MetricsRegistry* const metrics_;
  TraceBuffer* const trace_;
  Logger* const log_;
  const double miss_budget_;
  const double miscoverage_budget_;
  const AuditMetrics* const totals_;

  std::map<int, EventState> events_;
  int64_t outcomes_ = 0;
  int64_t breaches_ = 0;
  int64_t last_breach_decision_ = -1;
  bool finalized_ = false;
};

}  // namespace eventhit::obs

#endif  // EVENTHIT_OBS_AUDIT_H_
