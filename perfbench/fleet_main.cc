// Untraced fleet benchmark: the end-to-end metrics of fleet::StreamFleet.
//
//   perfbench_fleet --workload <name> --seed <n> --seconds <s>
//
// The fleet is built (environment, training, calibration) and warmed up
// with one untimed Run(). Then, for `--seconds`, each cycle moves to the
// next CPU and times one Run() of the built fleet; every few cycles it also
// builds and drops one more fleet, a set-up sample. Set-up reports the
// median sample; each Run() timing reports the fastest repetition, since
// contention from other tenants of the host only ever slows a run.
// Every repetition must reproduce the warm-up's per-stream results, a few
// streams must match their solo replay, and the accounting identities must
// hold; any violation makes the run incorrect and the exit code nonzero.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::SecondsSince;
namespace fleet = ::eventhit::fleet;

constexpr int kMinReps = 3;
constexpr double kSetupSamples = 8;
constexpr int kGateStreams = 4;

bool SameRun(const fleet::FleetRunResult& a, const fleet::FleetRunResult& b) {
  if (a.streams.size() != b.streams.size()) return false;
  for (size_t i = 0; i < a.streams.size(); ++i) {
    if (!fleet::SameStreamResult(a.streams[i], b.streams[i])) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  perfbench::Workload w;
  if (!perfbench::ParseArgs(argc, argv, &args, &w)) return 2;
  const fleet::FleetConfig& config = w.config;

  // Fleet-level telemetry goes to a private registry, not the global one.
  eventhit::obs::MetricsRegistry metrics;
  std::vector<double> setup_s;
  auto build_fleet = [&]() {
    perfbench::PinToNextCpu();
    const auto start = std::chrono::steady_clock::now();
    auto built = std::make_unique<fleet::StreamFleet>(w.task, config, &metrics);
    setup_s.push_back(SecondsSince(start));
    return built;
  };
  const std::unique_ptr<fleet::StreamFleet> runner = build_fleet();
  const fleet::FleetRunResult reference = runner->Run();  // Warm-up.

  // Each cycle times one Run() of the built fleet and, every few cycles,
  // one set-up (a throwaway fleet), so both kinds of sample spread over
  // the whole measured window.
  std::vector<double> walls;
  std::vector<double> p50s;
  std::vector<double> p99s;
  int mismatched_reps = 0;
  const auto timing_start = std::chrono::steady_clock::now();
  while (static_cast<int>(walls.size()) < kMinReps ||
         SecondsSince(timing_start) < args.seconds) {
    // About kSetupSamples more set-up samples, spread over the window.
    if (static_cast<double>(setup_s.size()) <
        1.0 + kSetupSamples * SecondsSince(timing_start) / args.seconds) {
      build_fleet();
    }
    perfbench::PinToNextCpu();
    const auto start = std::chrono::steady_clock::now();
    const fleet::FleetRunResult run = runner->Run();
    walls.push_back(SecondsSince(start));
    p50s.push_back(run.stats.p50_tick_us);
    p99s.push_back(run.stats.p99_tick_us);
    if (!SameRun(run, reference)) ++mismatched_reps;
  }

  // Correctness gate.
  std::vector<std::string> failures;
  if (mismatched_reps > 0) {
    failures.push_back(std::to_string(mismatched_reps) +
                       " repetition(s) differ from the warm-up run");
  }
  for (const int s : perfbench::GateStreams(config.num_streams,
                                            kGateStreams)) {
    if (!fleet::SameStreamResult(reference.streams[static_cast<size_t>(s)],
                                 runner->RunStreamSolo(s))) {
      failures.push_back("stream " + std::to_string(s) +
                         ": fleet result differs from its solo run");
    }
  }
  if (const std::string error = perfbench::CheckAccounting(*runner, reference);
      !error.empty()) {
    failures.push_back(error);
  }
  const perfbench::Schedule schedule = perfbench::ReplaySchedule(*runner);
  if (!perfbench::ScheduleMatches(schedule, reference.stats)) {
    failures.push_back("flush schedule replay disagrees with Run()'s counts");
  }

  // Guardrails: decisions and accounting, exact for a given seed.
  int64_t positives = 0;
  int64_t misses = 0;
  int64_t frames_relayed = 0;
  int64_t orders_submitted = 0;
  int64_t orders_delivered = 0;
  int64_t orders_dropped = 0;
  int64_t boundaries = 0;
  for (const fleet::FleetStreamResult& r : reference.streams) {
    boundaries += r.marshaller.horizons_predicted;
    positives += r.audit_positives;
    misses += r.audit_misses;
    frames_relayed += r.marshaller.frames_relayed;
    orders_submitted += r.relay.orders_submitted;
    orders_delivered += r.relay.orders_delivered;
    orders_dropped += r.relay.orders_dropped;
  }
  const fleet::FleetRunStats& stats = reference.stats;
  const double best_wall = *std::min_element(walls.begin(), walls.end());
  const double flush_share = static_cast<double>(schedule.flush_ticks) /
                             static_cast<double>(std::max<int64_t>(1, stats.ticks));
  // Ticks ranked above p99 that are flush ticks: the p99 sits inside the
  // flush population only when this is comfortably positive.
  const double flush_beyond_p99 =
      static_cast<double>(schedule.flush_ticks) -
      0.01 * static_cast<double>(stats.ticks);

  std::printf("repetitions %zu (+1 warm-up), Run() wall s:", walls.size());
  for (const double v : walls) std::printf(" %.4f", v);
  std::printf("\ntick p50 us:");
  for (const double v : p50s) std::printf(" %.3f", v);
  std::printf("\ntick p99 us:");
  for (const double v : p99s) std::printf(" %.1f", v);
  std::printf("\nsetup s:");
  for (const double v : setup_s) std::printf(" %.4f", v);
  std::printf("\ntick percentiles: n=%lld ticks per repetition, flush ticks "
              "%lld, flush_tick_share=%.4f, %.0f flush ticks above the p99 "
              "rank%s\n",
              static_cast<long long>(stats.ticks),
              static_cast<long long>(schedule.flush_ticks), flush_share,
              flush_beyond_p99,
              flush_beyond_p99 < 10.0 ? "  WARNING: p99 near the flush/push"
                                        " boundary"
                                      : "");
  std::printf("batches %lld (full %lld, deadline %lld, final %lld), "
              "requests %lld, frames %lld, relay orders %lld (dropped %lld)\n",
              static_cast<long long>(stats.batches),
              static_cast<long long>(stats.flush_full),
              static_cast<long long>(stats.flush_deadline),
              static_cast<long long>(stats.flush_final),
              static_cast<long long>(stats.requests),
              static_cast<long long>(stats.frames_pushed),
              static_cast<long long>(orders_submitted),
              static_cast<long long>(orders_dropped));
  for (const std::string& failure : failures) {
    std::printf("GATE FAILED: %s\n", failure.c_str());
  }

  std::vector<double> sorted_setup = setup_s;
  std::sort(sorted_setup.begin(), sorted_setup.end());
  const std::vector<Metric> out = {
      {"frames_per_s", static_cast<double>(stats.frames_pushed) / best_wall,
       "1/s"},
      {"tick_p50_us", *std::min_element(p50s.begin(), p50s.end()), "us"},
      {"tick_p99_us", *std::min_element(p99s.begin(), p99s.end()), "us"},
      {"setup_s", sorted_setup[sorted_setup.size() / 2], "s"},
      {"peak_rss_mb", perfbench::PeakRssMb(), "MiB"},
      {"rec",
       positives > 0 ? 1.0 - static_cast<double>(misses) /
                                 static_cast<double>(positives)
                     : 1.0,
       "ratio"},
      {"relayed_share",
       static_cast<double>(frames_relayed) /
           static_cast<double>(std::max<int64_t>(1, stats.frames_pushed)),
       "ratio"},
      {"delivered_share",
       orders_submitted > 0 ? static_cast<double>(orders_delivered) /
                                  static_cast<double>(orders_submitted)
                            : 1.0,
       "ratio"},
  };
  // An operation is one marshalling boundary decided by the fleet; the
  // failed ones are the gate's violations. Relay orders the injected
  // faults drop are a modelled outcome, reported as delivered_share.
  const bool correct = failures.empty();
  perfbench::PrintResult(correct, boundaries,
                         static_cast<int64_t>(failures.size()), out);
  return correct ? 0 : 1;
}
