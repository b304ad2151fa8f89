#include "obs/audit.h"

#include <algorithm>
#include <cmath>

#include "obs/schema.h"

namespace eventhit::obs {

double WilsonLowerBound(int64_t fails, int64_t n, double z) {
  if (n <= 0) return 0.0;
  const double p = static_cast<double>(fails) / static_cast<double>(n);
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = p + z2 / (2.0 * n);
  const double margin =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  return std::max(0.0, (center - margin) / denom);
}

const char* AuditGuaranteeName(AuditGuarantee guarantee) {
  return guarantee == AuditGuarantee::kMiss ? "miss" : "miscoverage";
}

GuarantyAuditor::GuarantyAuditor(const AuditConfig& config,
                                 MetricsRegistry* metrics, TraceBuffer* trace,
                                 Logger* log)
    : config_(config),
      metrics_(metrics != nullptr ? metrics : &MetricsRegistry::Global()),
      trace_(trace),
      log_(log != nullptr ? log : &Logger::Global()),
      miss_budget_(1.0 - config.confidence),
      miscoverage_budget_(1.0 - config.coverage),
      total_outcomes_(metrics_->GetCounter(names::kAuditOutcomes)),
      total_positives_(metrics_->GetCounter(names::kAuditPositives)),
      total_misses_(metrics_->GetCounter(names::kAuditMisses)),
      total_endpoints_(metrics_->GetCounter(names::kAuditEndpoints)),
      total_miscovered_(metrics_->GetCounter(names::kAuditMiscovered)),
      total_breaches_(metrics_->GetCounter(names::kAuditBreaches)) {}

GuarantyAuditor::EventState& GuarantyAuditor::State(int event) {
  auto it = events_.find(event);
  if (it != events_.end()) return it->second;

  EventState state;
  state.label = event >= 0 &&
                        static_cast<size_t>(event) <
                            config_.event_labels.size()
                    ? config_.event_labels[event]
                    : "event" + std::to_string(event);
  const Labels by_event = {{"event_type", state.label}};
  state.outcomes = metrics_->GetCounter(names::kAuditOutcomes, by_event);
  state.positives = metrics_->GetCounter(names::kAuditPositives, by_event);
  state.misses = metrics_->GetCounter(names::kAuditMisses, by_event);
  state.endpoints = metrics_->GetCounter(names::kAuditEndpoints, by_event);
  state.miscovered = metrics_->GetCounter(names::kAuditMiscovered, by_event);

  state.miss.rate = metrics_->GetGauge(names::kAuditMissRate, by_event);
  state.miss.wilson =
      metrics_->GetGauge(names::kAuditMissWilsonLower, by_event);
  metrics_->GetGauge(names::kAuditMissBudget, by_event)->Set(miss_budget_);
  state.coverage.rate =
      metrics_->GetGauge(names::kAuditMiscoverageRate, by_event);
  state.coverage.wilson =
      metrics_->GetGauge(names::kAuditMiscoverageWilsonLower, by_event);
  metrics_->GetGauge(names::kAuditMiscoverageBudget, by_event)
      ->Set(miscoverage_budget_);

  for (Track* track : {&state.miss, &state.coverage}) {
    const AuditGuarantee guarantee = track == &state.miss
                                         ? AuditGuarantee::kMiss
                                         : AuditGuarantee::kMiscoverage;
    const Labels by_track = {{"event_type", state.label},
                             {"guarantee", AuditGuaranteeName(guarantee)}};
    track->breach_active =
        metrics_->GetGauge(names::kAuditBreachActive, by_track);
    track->breach_counter =
        metrics_->GetCounter(names::kAuditBreaches, by_track);
    track->ring.reserve(static_cast<size_t>(config_.slow_window));
  }
  return events_.emplace(event, std::move(state)).first->second;
}

void GuarantyAuditor::ObserveTrack(EventState& state, Track* track,
                                   AuditGuarantee guarantee, bool fail,
                                   int64_t sim_time, int64_t decision_id) {
  ++track->n;
  if (fail) ++track->fails;

  const size_t cap = static_cast<size_t>(std::max(1, config_.slow_window));
  if (track->ring.size() < cap) {
    track->ring.push_back(fail ? 1 : 0);
  } else {
    track->ring_fails -= track->ring[track->head];
    track->ring[track->head] = fail ? 1 : 0;
    track->head = (track->head + 1) % cap;
  }
  if (fail) ++track->ring_fails;

  const size_t size = track->ring.size();
  const double slow_rate =
      static_cast<double>(track->ring_fails) / static_cast<double>(size);
  const double wilson =
      WilsonLowerBound(track->ring_fails, static_cast<int64_t>(size),
                       config_.wilson_z);
  track->rate->Set(slow_rate);
  track->wilson->Set(wilson);

  if (track->breached) return;
  const size_t fast_n =
      std::min(size, static_cast<size_t>(std::max(1, config_.fast_window)));
  if (fast_n < static_cast<size_t>(std::max(1, config_.fast_window))) return;

  // Newest entry: last pushed while filling, else just behind the head.
  int64_t fast_fails = 0;
  for (size_t i = 0; i < fast_n; ++i) {
    const size_t idx = size < cap ? size - 1 - i
                                  : (track->head + cap - 1 - i) % cap;
    fast_fails += track->ring[idx];
  }
  const double fast_rate =
      static_cast<double>(fast_fails) / static_cast<double>(fast_n);
  const double budget = Budget(guarantee);
  if (fast_rate > FastBurnThreshold(guarantee) && wilson > budget) {
    track->breached = true;
    track->breach_time = sim_time;
    track->breach_active->Set(1.0);
    // The breach counters carry the offending boundary's decision id as
    // an exemplar: an alert on audit.breaches links straight to
    // `eventhit_cli explain --decision=<id>`.
    if (decision_id >= 0) last_breach_decision_ = decision_id;
    track->breach_counter->Add(1, decision_id);
    total_breaches_->Add(1, decision_id);
    ++breaches_;
    log_->Log(LogLevel::kError, "audit", "breach", sim_time,
              {LogStr("event_type", state.label),
               LogStr("guarantee", AuditGuaranteeName(guarantee)),
               LogNum("fast_rate", fast_rate),
               LogNum("wilson_lower", wilson), LogNum("budget", budget),
               LogInt("samples", track->n),
               LogInt("decision_id", decision_id)});
  }
}

double GuarantyAuditor::FastBurnThreshold(AuditGuarantee guarantee) const {
  const double budget = Budget(guarantee);
  // burn_factor x budget saturates above 1 for loose budgets, which would
  // make the fast gate untrippable; cap it halfway to certain failure.
  return std::min(config_.burn_factor * budget, 0.5 * (1.0 + budget));
}

void GuarantyAuditor::Observe(const AuditOutcome& outcome) {
  EventState& state = State(outcome.event);
  ++outcomes_;
  total_outcomes_->Add(1);
  state.outcomes->Add(1);

  if (outcome.truth_present) {
    total_positives_->Add(1);
    state.positives->Add(1);
    const bool missed = !outcome.predicted_present;
    if (missed) {
      total_misses_->Add(1, outcome.decision_id);
      state.misses->Add(1, outcome.decision_id);
    }
    ObserveTrack(state, &state.miss, AuditGuarantee::kMiss, missed,
                 outcome.sim_time, outcome.decision_id);
  }

  if (outcome.truth_present && outcome.predicted_present) {
    // Two endpoint samples per scored interval (Theorem 5.2 bounds each
    // endpoint separately).
    for (const bool covered : {outcome.start_covered, outcome.end_covered}) {
      total_endpoints_->Add(1);
      state.endpoints->Add(1);
      if (!covered) {
        total_miscovered_->Add(1, outcome.decision_id);
        state.miscovered->Add(1, outcome.decision_id);
      }
      ObserveTrack(state, &state.coverage, AuditGuarantee::kMiscoverage,
                   !covered, outcome.sim_time, outcome.decision_id);
    }
  }
}

void GuarantyAuditor::Finalize(int64_t end_sim_time) {
  if (finalized_) return;
  finalized_ = true;
  if (trace_ == nullptr) return;
  const double us_per_tick = 1e6 / config_.stream_fps;
  for (const auto& [event, state] : events_) {
    (void)event;
    for (const Track* track : {&state.miss, &state.coverage}) {
      if (!track->breached) continue;
      const int64_t start_us =
          static_cast<int64_t>(std::llround(track->breach_time * us_per_tick));
      const int64_t end_us =
          static_cast<int64_t>(std::llround(end_sim_time * us_per_tick));
      RecordSimulatedSpan(trace_, names::kSpanAuditBreach, "simulated",
                          start_us, std::max<int64_t>(0, end_us - start_us),
                          config_.sim_tid);
    }
  }
}

int64_t GuarantyAuditor::positives(int event) const {
  auto it = events_.find(event);
  return it == events_.end() ? 0 : it->second.miss.n;
}

int64_t GuarantyAuditor::misses(int event) const {
  auto it = events_.find(event);
  return it == events_.end() ? 0 : it->second.miss.fails;
}

int64_t GuarantyAuditor::endpoints(int event) const {
  auto it = events_.find(event);
  return it == events_.end() ? 0 : it->second.coverage.n;
}

int64_t GuarantyAuditor::miscovered(int event) const {
  auto it = events_.find(event);
  return it == events_.end() ? 0 : it->second.coverage.fails;
}

int64_t GuarantyAuditor::total_positives() const {
  int64_t total = 0;
  for (const auto& [event, state] : events_) total += state.miss.n;
  return total;
}

int64_t GuarantyAuditor::total_misses() const {
  int64_t total = 0;
  for (const auto& [event, state] : events_) total += state.miss.fails;
  return total;
}

int64_t GuarantyAuditor::total_endpoints() const {
  int64_t total = 0;
  for (const auto& [event, state] : events_) total += state.coverage.n;
  return total;
}

int64_t GuarantyAuditor::total_miscovered() const {
  int64_t total = 0;
  for (const auto& [event, state] : events_) total += state.coverage.fails;
  return total;
}

double GuarantyAuditor::MissRate(int event) const {
  auto it = events_.find(event);
  if (it == events_.end() || it->second.miss.n == 0) return 0.0;
  return static_cast<double>(it->second.miss.fails) /
         static_cast<double>(it->second.miss.n);
}

double GuarantyAuditor::MiscoverageRate(int event) const {
  auto it = events_.find(event);
  if (it == events_.end() || it->second.coverage.n == 0) return 0.0;
  return static_cast<double>(it->second.coverage.fails) /
         static_cast<double>(it->second.coverage.n);
}

bool GuarantyAuditor::breached(int event, AuditGuarantee guarantee) const {
  auto it = events_.find(event);
  if (it == events_.end()) return false;
  return guarantee == AuditGuarantee::kMiss ? it->second.miss.breached
                                            : it->second.coverage.breached;
}

int64_t GuarantyAuditor::breach_time(int event,
                                     AuditGuarantee guarantee) const {
  auto it = events_.find(event);
  if (it == events_.end()) return -1;
  return guarantee == AuditGuarantee::kMiss ? it->second.miss.breach_time
                                            : it->second.coverage.breach_time;
}

}  // namespace eventhit::obs
