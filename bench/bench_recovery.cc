// Drift-recovery benchmark (DESIGN.md §5j): runs the seeded recovery lab
// for every deterministic drift scenario with the recalibration loop armed
// and disarmed, prints the causal chain, and emits BENCH_recovery.json
// (gated in CI next to BENCH_fleet.json):
//   <scenario>_time_to_restore_seconds  breach -> restored, stream seconds
//                                       at 30 FPS               (lower-better)
//   <scenario>_overshoot                post-swap spill per boundary over
//                                       the pre-shift rate      (informational)
//   recal_off_restored_diff             scenarios whose recal=off control
//                                       restored (must stay 0)  (lower-better)
//   recal_on_unrestored_diff            scenarios whose armed arm failed to
//                                       restore (must stay 0)   (lower-better)
//
// Every key is deterministic — the rig is seeded, the streaming loop is
// serial, and the report is thread-count invariant — so the CI gate can
// hold the restore times exactly; there is no machine noise to tolerate.
// The lab rig is already bench-sized (~120k frames per scenario, well
// under a second each), so EVENTHIT_FAST does not shrink it further: fast
// and full runs produce identical numbers.

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/check.h"
#include "common/table_printer.h"
#include "fleet/recovery_lab.h"
#include "sim/drift_scenario.h"

namespace {

using ::eventhit::Fmt;
using ::eventhit::TablePrinter;
namespace bench = ::eventhit::bench;
namespace fleet = ::eventhit::fleet;
namespace sim = ::eventhit::sim;

constexpr double kStreamFps = 30.0;

std::string JsonKeyName(const std::string& scenario) {
  std::string key = scenario;
  for (char& c : key) {
    if (c == '-') c = '_';
  }
  return key;
}

}  // namespace

int main() {
  const int threads = bench::ThreadsFromEnv();

  struct Row {
    std::string scenario;
    fleet::RecoveryControl control;
  };
  std::vector<Row> rows;
  for (const std::string& scenario : sim::DriftScenarioNames()) {
    fleet::RecoveryLabConfig config;
    config.scenario = scenario;
    config.threads = threads;
    auto control = fleet::RunRecoveryControl(config);
    EVENTHIT_CHECK(control.ok());
    rows.push_back({scenario, std::move(control).value()});
  }

  TablePrinter table({"scenario", "breach", "swap", "restore", "ttr (s)",
                      "overshoot", "off restored?"});
  int off_restored = 0;
  int on_unrestored = 0;
  for (const Row& row : rows) {
    const fleet::RecoveryReport& on = row.control.with_recal;
    const fleet::RecoveryReport& off = row.control.without_recal;
    if (off.restore_time >= 0 || !off.end_breached) ++off_restored;
    if (on.restore_time < 0) ++on_unrestored;
    table.AddRow({row.scenario, Fmt(on.breach_time), Fmt(on.first_swap_time),
                  Fmt(on.restore_time),
                  Fmt(static_cast<double>(on.time_to_restore) / kStreamFps, 1),
                  Fmt(on.spill_overshoot, 2),
                  off.restore_time >= 0 ? "YES (bad)" : "no"});
  }
  table.Print(std::cout);

  std::ofstream json("BENCH_recovery.json");
  json << "{\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"recal_off_restored_diff\": " << off_restored << ",\n"
       << "  \"recal_on_unrestored_diff\": " << on_unrestored << ",\n";
  for (const Row& row : rows) {
    const fleet::RecoveryReport& on = row.control.with_recal;
    const std::string key = JsonKeyName(row.scenario);
    json << "  \"" << key << "_time_to_restore_seconds\": "
         << static_cast<double>(on.time_to_restore) / kStreamFps << ",\n"
         << "  \"" << key << "_overshoot\": " << on.spill_overshoot << ",\n"
         << "  \"" << key << "_swaps\": " << on.swap_count << ",\n";
  }
  json << "  \"fast_mode\": " << (bench::FastMode() ? "true" : "false")
       << "\n}\n";
  std::cout << "wrote BENCH_recovery.json\n";

  if (off_restored != 0 || on_unrestored != 0) {
    std::cout << "ACCEPTANCE FAILURE: " << off_restored
              << " control arm(s) restored, " << on_unrestored
              << " armed arm(s) stayed broken\n";
    return 1;
  }
  return 0;
}
