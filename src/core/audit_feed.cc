#include "core/audit_feed.h"

#include "common/check.h"

namespace eventhit::core {

void AppendAuditOutcomes(const std::vector<data::EventLabel>& labels,
                         const MarshalDecision& decision, int64_t sim_time,
                         int64_t decision_id,
                         std::vector<obs::AuditOutcome>* out) {
  EVENTHIT_CHECK_EQ(decision.exists.size(), labels.size());
  for (size_t k = 0; k < labels.size(); ++k) {
    const data::EventLabel& label = labels[k];
    obs::AuditOutcome outcome;
    outcome.sim_time = sim_time;
    outcome.event = static_cast<int>(k);
    outcome.truth_present = label.present;
    outcome.predicted_present = decision.exists[k];
    outcome.decision_id = decision_id;
    if (label.present && decision.exists[k]) {
      outcome.start_covered = decision.intervals[k].start <= label.start;
      outcome.end_covered = decision.intervals[k].end >= label.end;
    }
    out->push_back(outcome);
  }
}

}  // namespace eventhit::core
