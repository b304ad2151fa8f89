// Seeded, replayable drift-recovery rig: the end-to-end harness behind
// `eventhit_cli evaluate --drift-profile=...`, tests/drift_recovery_test.cc
// and bench/bench_recovery.cc.
//
// One run: generate a single-event stream that shifts regimes at a known
// frame (sim/drift_scenario.h), train + conformally calibrate EventHit on
// the stationary prefix, then stream the remainder through one
// StreamPipeline, the loop every fleet stream runs, with its recalibration
// loop either armed or disarmed. The report pins the full causal chain on
// the simulated clock:
//
//   breach (or drift alarm) → recalibration trigger → hot swap →
//   coverage restored
//
// "Restored" means the auditor's own fast-burn criterion has cleared: over
// the trailing restore window of each guarantee track, collected strictly
// after the last swap, the empirical failure rate is back at or under the
// same burn threshold whose violation defines a breach. With the loop
// disarmed the drifted stream must instead stay breached to the end — the
// recal=off control of the acceptance tests.
//
// Everything is seeded and the pipeline is driven inline (RunInline), so a
// run is byte-identical across repeats and across `threads` (the thread
// count only parallelises conformal calibration, which is deterministic by
// contract); `decision_digest` folds every completed decision for exact
// replay comparisons.
#ifndef EVENTHIT_FLEET_RECOVERY_LAB_H_
#define EVENTHIT_FLEET_RECOVERY_LAB_H_

#include <cstdint>
#include <string>

#include "adapt/recal_loop.h"
#include "common/status.h"

namespace eventhit::fleet {

struct RecoveryLabConfig {
  /// One of sim::DriftScenarioNames().
  std::string scenario = "precursor-shift";
  uint64_t seed = 42;
  /// Arms the recalibration loop (RunRecovery; RunRecoveryControl streams
  /// both arms regardless).
  bool recal = true;
  /// The armed loop's adapt::RecalConfig::breach_trigger. Disarm to stream
  /// a martingale-only recovery (the drift alarm is always armed); the
  /// auditor still scores every boundary either way.
  bool breach_trigger = true;
  /// Calibration parallelism; the result is thread-count invariant.
  int threads = 1;
  /// Guarantees under audit.
  double confidence = 0.9;  // c: miss budget 1 - c.
  double coverage = 0.9;    // alpha: miscoverage budget 1 - alpha.
};

/// Per-phase guarantee accounting. Phases split the streamed boundaries at
/// the shift frame and at the first hot swap.
struct RecoveryPhase {
  int64_t boundaries = 0;
  int64_t positives = 0;
  int64_t misses = 0;
  int64_t endpoints = 0;
  int64_t miscovered = 0;
  int64_t relayed_frames = 0;

  double MissRate() const {
    return positives > 0 ? static_cast<double>(misses) / positives : 0.0;
  }
  double MiscoverRate() const {
    return endpoints > 0 ? static_cast<double>(miscovered) / endpoints
                         : 0.0;
  }
  double SpillPerBoundary() const {
    return boundaries > 0
               ? static_cast<double>(relayed_frames) / boundaries
               : 0.0;
  }
};

/// Everything one streamed run produced. Times are video frames (the
/// pipeline's stream clock plus stream_begin); -1 means "never happened".
struct RecoveryReport {
  std::string scenario;
  bool recal_enabled = false;
  int64_t shift_frame = 0;
  int64_t stream_begin = 0;
  int64_t stream_end = 0;

  /// First auditor breach latch.
  int64_t breach_time = -1;
  /// First martingale drift alarm (only with the loop armed — the
  /// detector lives inside it).
  int64_t alarm_time = -1;
  int64_t first_swap_time = -1;
  int64_t swap_count = 0;
  /// First boundary at/after the last swap where both guarantee tracks'
  /// trailing windows are back under the fast-burn threshold.
  int64_t restore_time = -1;
  /// restore_time minus the earliest of breach_time/alarm_time.
  int64_t time_to_restore = -1;
  /// Relayed frames per boundary after the swap, relative to the pre-shift
  /// rate (> 1: the recalibrated thresholds buy coverage with extra
  /// spillage). Falls back to the post-shift phase when no swap happened.
  double spill_overshoot = 0.0;
  bool end_breached = false;

  adapt::RecalStats recal;   // Zero-valued when the loop was disarmed.
  RecoveryPhase pre_shift;   // Boundaries before the shift.
  RecoveryPhase post_shift;  // Shift to first swap (or end).
  RecoveryPhase post_swap;   // First swap to end (empty when no swap).

  /// FNV-1a over every completed (anchor, decision) — byte-identical
  /// replays compare equal here.
  uint64_t decision_digest = 0;
};

/// Trains the rig and streams it once with the loop armed per
/// `config.recal`. InvalidArgument on unknown scenario names.
Result<RecoveryReport> RunRecovery(const RecoveryLabConfig& config);

struct RecoveryControl {
  RecoveryReport with_recal;
  RecoveryReport without_recal;
};

/// Trains the rig once and streams it twice — loop armed and disarmed —
/// so the recal=off control shares the exact model and calibration.
Result<RecoveryControl> RunRecoveryControl(const RecoveryLabConfig& config);

}  // namespace eventhit::fleet

#endif  // EVENTHIT_FLEET_RECOVERY_LAB_H_
