// The one truth → guarantee-audit feed, shared by the stream pipeline,
// eval's offline replay and the drift lab.
#ifndef EVENTHIT_CORE_AUDIT_FEED_H_
#define EVENTHIT_CORE_AUDIT_FEED_H_

#include <cstdint>
#include <vector>

#include "core/prediction.h"
#include "data/record.h"
#include "obs/audit.h"

namespace eventhit::core {

/// Appends one outcome per event of `decision` against its truth `labels`,
/// at `sim_time`, tagged with `decision_id` (-1 without a ledger). An
/// interval covers the start when interval.start <= label.start and the
/// end when interval.end >= label.end (C-REGRESS).
void AppendAuditOutcomes(const std::vector<data::EventLabel>& labels,
                         const MarshalDecision& decision, int64_t sim_time,
                         int64_t decision_id,
                         std::vector<obs::AuditOutcome>* out);

}  // namespace eventhit::core

#endif  // EVENTHIT_CORE_AUDIT_FEED_H_
