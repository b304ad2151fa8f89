#include "eval/metrics.h"

#include "common/check.h"

namespace eventhit::eval {

double FrameRecall(const data::EventLabel& label, bool predicted_present,
                   const sim::Interval& predicted) {
  EVENTHIT_CHECK(label.present);
  if (!predicted_present || predicted.empty()) return 0.0;
  const sim::Interval truth{label.start, label.end};
  const int64_t overlap = Intersect(predicted, truth).length();
  return static_cast<double>(overlap) / static_cast<double>(truth.length());
}

Metrics ComputeMetrics(const std::vector<data::Record>& records,
                       const std::vector<core::MarshalDecision>& decisions,
                       int horizon) {
  EVENTHIT_CHECK_EQ(records.size(), decisions.size());
  EVENTHIT_CHECK_GT(horizon, 0);
  Metrics metrics;
  metrics.records = static_cast<int64_t>(records.size());

  double rec_num = 0.0;       // Sum of eta over positive pairs.
  int64_t rec_den = 0;        // Positive pairs.
  double spl_sum = 0.0;       // Eq. 13 summand over all pairs.
  int64_t pair_count = 0;
  int64_t hits = 0;           // Positive pairs predicted positive.
  double rec_r_num = 0.0;     // Sum of eta over hits.
  int64_t predicted_pairs = 0;       // Pairs predicted positive.
  int64_t relayed_event_frames = 0;  // Relayed frames inside true intervals.
  int64_t relayed_pair_frames = 0;   // Relayed frames, summed per pair.

  for (size_t i = 0; i < records.size(); ++i) {
    const data::Record& record = records[i];
    const core::MarshalDecision& decision = decisions[i];
    EVENTHIT_CHECK_EQ(decision.exists.size(), record.labels.size());
    EVENTHIT_CHECK_EQ(decision.intervals.size(), record.labels.size());
    metrics.horizon_frames += horizon;

    for (size_t k = 0; k < record.labels.size(); ++k) {
      const data::EventLabel& label = record.labels[k];
      const bool predicted = decision.exists[k];
      const sim::Interval& interval = decision.intervals[k];
      if (predicted) {
        EVENTHIT_CHECK(!interval.empty());
        EVENTHIT_CHECK_GE(interval.start, 1);
        EVENTHIT_CHECK_LE(interval.end, horizon);
      } else {
        EVENTHIT_CHECK(interval.empty());
      }
      ++pair_count;
      if (predicted) {
        ++predicted_pairs;
        relayed_pair_frames += interval.length();
        if (label.present) {
          relayed_event_frames +=
              Intersect(interval, sim::Interval{label.start, label.end})
                  .length();
        }
      }

      if (label.present) {
        ++rec_den;
        const double eta = FrameRecall(label, predicted, interval);
        rec_num += eta;
        if (predicted) {
          ++hits;
          rec_r_num += eta;
          const sim::Interval truth{label.start, label.end};
          const int64_t excess = DifferenceLength(interval, truth);
          const int64_t non_event = horizon - truth.length();
          if (non_event > 0) {
            spl_sum += static_cast<double>(excess) /
                       static_cast<double>(non_event);
          }
        }
      } else if (predicted) {
        spl_sum += static_cast<double>(interval.length()) /
                   static_cast<double>(horizon);
      }
    }

    // Cloud billing counts each relayed frame once per record.
    std::vector<sim::Interval> intervals = decision.intervals;
    metrics.relayed_frames += sim::UnionLength(intervals);
  }

  metrics.positives = rec_den;
  metrics.rec = rec_den > 0 ? rec_num / static_cast<double>(rec_den) : 0.0;
  metrics.spl =
      pair_count > 0 ? spl_sum / static_cast<double>(pair_count) : 0.0;
  metrics.rec_c =
      rec_den > 0 ? static_cast<double>(hits) / static_cast<double>(rec_den)
                  : 0.0;
  metrics.rec_r = hits > 0 ? rec_r_num / static_cast<double>(hits) : 0.0;
  metrics.pre_c = predicted_pairs > 0
                      ? static_cast<double>(hits) /
                            static_cast<double>(predicted_pairs)
                      : 0.0;
  metrics.pre_f = relayed_pair_frames > 0
                      ? static_cast<double>(relayed_event_frames) /
                            static_cast<double>(relayed_pair_frames)
                      : 0.0;
  return metrics;
}

}  // namespace eventhit::eval
