// Local-FLOPs-vs-REC Pareto curve of the collection scheduling policies
// (src/sched/, DESIGN.md §5i) on TA10: duty cycles {1.0, 0.5, 0.25} and
// the adaptive hysteresis policy, each with its conformal thresholds
// calibrated under the same policy used at test time, and each replayed
// over the test range through the marshaller (eval::WalkPolicy), one
// prediction boundary every H frames.
//
// Expected shape: every policy cuts frames scored ≥ (H / M)x against the
// legacy full-rate path (scored boundaries only extract their M window
// frames); fixed duty cycles additionally trade REC away roughly linearly
// with the skipped fraction, while adaptive holds REC at the full-rate
// point and only skips boundaries its hysteresis band proves quiet. The
// online guarantee auditor replays every policy's decisions; breaches
// must stay zero at every duty cycle.
//
// Emits BENCH_pareto.json (gated in CI next to BENCH_fleet.json):
//   speedup_frames_<p>       frames-scored reduction vs full (higher-better)
//   speedup_mflops_<p>       local-FLOPs reduction vs full   (higher-better)
//   pareto_rec_diff_<p>      |REC(policy) - REC(full)|       (lower-better)
//   pareto_audit_breach_diff summed auditor breaches         (lower-better)
// plus informational rows (rec/frames/mflops per policy).
//
// Exit status is the acceptance self-check: nonzero when any auditor
// budget breaches, or when no throttled policy reaches a ≥2x reduction in
// both frames scored and estimated FLOPs with REC within 1 point of full.

#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table_printer.h"
#include "core/eventhit_model.h"
#include "core/strategies.h"
#include "data/tasks.h"
#include "eval/metrics.h"
#include "eval/runner.h"
#include "obs/audit.h"
#include "sched/collect_policy.h"

namespace {

using ::eventhit::ExecutionContext;
using ::eventhit::Fmt;
using ::eventhit::TablePrinter;
namespace bench = ::eventhit::bench;
namespace core = ::eventhit::core;
namespace data = ::eventhit::data;
namespace eval = ::eventhit::eval;
namespace obs = ::eventhit::obs;
namespace sched = ::eventhit::sched;

constexpr double kConfidence = 0.9;
constexpr double kCoverage = 0.5;

struct Leg {
  std::string key;   // JSON key suffix (full/duty50/duty25/adaptive).
  sched::CollectPolicySpec spec;
  core::MarshallerStats walk;
  eval::Metrics metrics;
  int64_t audit_breaches = 0;
};

}  // namespace

int main() {
  const bool fast = bench::FastMode();
  const int threads = bench::ThreadsFromEnv();
  const data::Task task = data::FindTask("TA10").value();
  const eval::RunnerConfig base_config = bench::DefaultRunnerConfig(4242);
  const ExecutionContext ctx(threads, base_config.seed);

  // The environment (stream + splits) is policy-independent; training is
  // too, but conformal calibration is not — TrainEventHit recalibrates
  // the thresholds under each leg's policy, so every leg is evaluated the
  // way it would actually deploy.
  const eval::TaskEnvironment env =
      eval::TaskEnvironment::Build(task, base_config);

  std::cout << "=== Local-compute vs REC Pareto: collection policies on "
            << task.name << " (" << threads
            << " thread(s), marshaller walks of the test range) ===\n";

  std::vector<Leg> legs;
  legs.push_back({"full", sched::CollectPolicySpec{}, {}, {}, 0});
  {
    sched::CollectPolicySpec duty50;
    duty50.kind = sched::CollectPolicyKind::kDuty;
    duty50.duty = 0.5;
    legs.push_back({"duty50", duty50, {}, {}, 0});
    sched::CollectPolicySpec duty25 = duty50;
    duty25.duty = 0.25;
    legs.push_back({"duty25", duty25, {}, {}, 0});
    sched::CollectPolicySpec adaptive;
    adaptive.kind = sched::CollectPolicyKind::kAdaptive;
    legs.push_back({"adaptive", adaptive, {}, {}, 0});
  }

  for (Leg& leg : legs) {
    eval::RunnerConfig config = base_config;
    config.collect_policy = leg.spec;
    std::cout << "\ntraining + calibrating under "
              << sched::CollectPolicyName(leg.spec) << "...\n";
    const eval::TrainedEventHit trained =
        eval::TrainEventHit(env, config, kCoverage, ctx);

    core::EventHitStrategyOptions options;
    options.use_cclassify = true;
    options.use_cregress = true;
    options.confidence = kConfidence;
    options.coverage = kCoverage;
    const core::EventHitStrategy strategy(
        trained.model.get(), trained.cclassify.get(), trained.cregress.get(),
        options);

    const eval::PolicyWalk walk =
        eval::WalkPolicy(env, env.splits().test, strategy, leg.spec);
    leg.walk = walk.stats;
    leg.metrics =
        eval::ComputeMetrics(walk.records, walk.decisions, env.horizon());

    obs::AuditConfig audit_config;
    audit_config.confidence = kConfidence;
    audit_config.coverage = kCoverage;
    obs::GuarantyAuditor auditor(audit_config);
    for (const obs::AuditOutcome& outcome :
         eval::BuildAuditOutcomes(walk.records, walk.decisions)) {
      auditor.Observe(outcome);
    }
    auditor.Finalize(static_cast<int64_t>(walk.records.size()));
    leg.audit_breaches = auditor.breach_count();
  }

  const Leg& full = legs.front();
  auto speedup = [](double full_value, double policy_value) {
    return policy_value > 0.0 ? full_value / policy_value : 0.0;
  };

  TablePrinter table({"Policy", "Scored", "Reused", "FramesScored",
                      "LocalMFLOPs", "FramesX", "MFLOPsX", "REC", "RECdiff",
                      "SPL", "Breaches"});
  int64_t total_breaches = 0;
  bool throttled_ok = false;
  for (const Leg& leg : legs) {
    const double frames_x =
        speedup(static_cast<double>(full.walk.frames_scored),
                static_cast<double>(leg.walk.frames_scored));
    const double mflops_x =
        speedup(static_cast<double>(full.walk.local_mflops),
                static_cast<double>(leg.walk.local_mflops));
    const double rec_diff = std::abs(leg.metrics.rec - full.metrics.rec);
    table.AddRow({sched::CollectPolicyName(leg.spec),
                  Fmt(leg.walk.horizons_predicted - leg.walk.horizons_reused),
                  Fmt(leg.walk.horizons_reused),
                  Fmt(leg.walk.frames_scored), Fmt(leg.walk.local_mflops),
                  Fmt(frames_x, 2), Fmt(mflops_x, 2), Fmt(leg.metrics.rec),
                  Fmt(rec_diff, 4), Fmt(leg.metrics.spl),
                  Fmt(leg.audit_breaches)});
    total_breaches += leg.audit_breaches;
    if ((leg.key == "duty50" || leg.key == "adaptive") && frames_x >= 2.0 &&
        mflops_x >= 2.0 && rec_diff <= 0.01) {
      throttled_ok = true;
    }
  }
  table.Print(std::cout);

  std::ofstream json("BENCH_pareto.json");
  json << "{\n"
       << "  \"task\": \"" << task.name << "\",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"test_boundaries\": " << full.walk.horizons_predicted << ",\n"
       << "  \"pareto_audit_breach_diff\": " << total_breaches << ",\n";
  for (const Leg& leg : legs) {
    json << "  \"pareto_rec_" << leg.key << "\": " << leg.metrics.rec
         << ",\n"
         << "  \"pareto_frames_scored_" << leg.key
         << "\": " << leg.walk.frames_scored << ",\n"
         << "  \"pareto_local_mflops_" << leg.key
         << "\": " << static_cast<double>(leg.walk.local_mflops) << ",\n";
    if (leg.key == "full") continue;
    json << "  \"speedup_frames_" << leg.key << "\": "
         << speedup(static_cast<double>(full.walk.frames_scored),
                    static_cast<double>(leg.walk.frames_scored))
         << ",\n"
         << "  \"speedup_mflops_" << leg.key << "\": "
         << speedup(static_cast<double>(full.walk.local_mflops),
                    static_cast<double>(leg.walk.local_mflops))
         << ",\n"
         << "  \"pareto_rec_diff_" << leg.key << "\": "
         << std::abs(leg.metrics.rec - full.metrics.rec) << ",\n";
  }
  json << "  \"fast_mode\": " << (fast ? "true" : "false") << "\n}\n";
  std::cout << "wrote BENCH_pareto.json\n";

  if (total_breaches != 0) {
    std::cerr << "FAIL: " << total_breaches
              << " auditor budget breach(es) across the policy legs\n";
    return 1;
  }
  if (!throttled_ok) {
    std::cerr << "FAIL: no throttled policy reached >=2x frames+FLOPs "
                 "reduction with REC within 1 point of full\n";
    return 1;
  }
  return 0;
}
