// Command-line front end for the library.
//
//   eventhit_cli stats   [--dataset=VIRAT|THUMOS|Breakfast] [--seed=N]
//                         [--load=PATH]
//   eventhit_cli generate --dataset=... --out=PATH [--frames=N] [--seed=N]
//   eventhit_cli evaluate --task=TA1 [--confidence=0.9] [--coverage=0.5]
//                         [--seed=N] [--model-out=path]
//   eventhit_cli evaluate --drift-profile=precursor-shift --recal=on|off
//                         [--seed=N]   (drift-recovery lab; ignores --task)
//   eventhit_cli sweep    --task=TA1 [--seed=N] [--csv=path]
//   eventhit_cli hypersearch --task=TA10 [--seed=N] [--samples=N]
//   eventhit_cli fleet    --task=TA10 [--streams=N] [--seed=N] [--frames=N]
//                         [--batch=B] [--max-delay=T] [--wave=W]
//                         [--threads=N] [--verify-solo=K]
//
// Every subcommand builds the synthetic environment for the chosen task,
// so results are reproducible from the seed alone.
//
// Telemetry (docs/TELEMETRY.md) works on every subcommand:
//   --metrics-out=PATH   write the metrics snapshot as JSON
//   --trace-out=PATH     write trace spans as Chrome trace-event JSON
//                        (loads in chrome://tracing / Perfetto)
//   --openmetrics-out=PATH  write the final snapshot as OpenMetrics text
//   --log-out=PATH       write the structured log as JSONL
//   --log-level=LVL      debug|info|warn|error (default info)
//   --print-metrics      pretty-print the metrics snapshot on exit
// `stats` additionally prints a telemetry section by default, and
// `evaluate` emits the simulated per-stage horizon spans of its EHCR
// operating point, from which Fig. 10-style shares can be re-derived.
// `evaluate` also runs the online guarantee auditor over the EHCR
// decisions (audit.* metrics, breach spans) and, with --metrics-jsonl,
// writes a labeled time series of per-record metric deltas.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>

#include "baselines/oracle.h"
#include "cloud/cost_model.h"
#include "cloud/relay.h"
#include "common/csv_writer.h"
#include "sim/fault_injector.h"
#include "common/flags.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "core/strategies.h"
#include "data/tasks.h"
#include "eval/curves.h"
#include "fleet/recovery_lab.h"
#include "fleet/stream_fleet.h"
#include "fleet/stream_pipeline.h"
#include "eval/hyper_search.h"
#include "eval/runner.h"
#include "nn/backend.h"
#include "obs/audit.h"
#include "obs/export.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"
#include "obs/schema.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sched/collect_policy.h"
#include "sim/datasets.h"
#include "sim/drift_scenario.h"
#include "sim/video_io.h"

namespace {

using ::eventhit::Flags;
using ::eventhit::Fmt;
using ::eventhit::FmtSig;
using ::eventhit::TablePrinter;
namespace cloud = ::eventhit::cloud;
namespace obs = ::eventhit::obs;
namespace eval = ::eventhit::eval;
namespace core = ::eventhit::core;
namespace data = ::eventhit::data;
namespace sim = ::eventhit::sim;
namespace fleet = ::eventhit::fleet;
namespace nn = ::eventhit::nn;
namespace sched = ::eventhit::sched;

// The full flag reference. Kept in sync with the implemented flags by
// tests/cli_help_sync_test.cc: every Get*("flag") in this file must appear
// below as --flag, and every --flag below must be implemented.
void PrintUsage(std::ostream& os) {
  os <<
      "usage: eventhit_cli "
      "<stats|generate|evaluate|sweep|hypersearch|fleet|explain|help> "
      "[flags]\n"
      "  stats        --dataset=VIRAT|THUMOS|Breakfast [--seed=N]\n"
      "               [--load=PATH]  dataset statistics (Table I); --load\n"
      "               reads a stream written by `generate` instead of\n"
      "               generating one\n"
      "  generate     --dataset=... --out=PATH [--frames=N] [--seed=N]\n"
      "               generate a synthetic stream and save it to --out\n"
      "  evaluate     --task=TA1 [--confidence=C] [--coverage=A] [--seed=N]\n"
      "               [--model-out=PATH] [--threads=N] [--predict-batch=B]\n"
      "               [--nn-backend=K] [--collect-policy=P]\n"
      "               [--drift-profile=NAME --recal=on|off]  drift-recovery\n"
      "               lab (DESIGN.md 5j; ignores --task): stream a seeded\n"
      "               regime shift (precursor-shift, duration-shift or\n"
      "               detector-degrade) through a live marshaller and\n"
      "               auditor with the breach-triggered recalibration loop\n"
      "               armed (on) or disarmed (off), and print the breach ->\n"
      "               hot swap -> coverage-restored chain with recal.*\n"
      "               accounting\n"
      "  sweep        --task=TA1 [--seed=N] [--csv=PATH] [--threads=N]\n"
      "               [--predict-batch=B] [--nn-backend=K]\n"
      "  hypersearch  --task=TA10 [--samples=N] [--seed=N] [--threads=N]\n"
      "  fleet        --task=TA10 [--streams=N] [--seed=N] [--frames=N]\n"
      "               [--batch=B] [--max-delay=T] [--wave=W] [--threads=N]\n"
      "               [--confidence=C] [--coverage=A] [--nn-backend=K]\n"
      "               [--fault-profile=NAME] [--fault-seed=N]\n"
      "               [--degraded-mode=drop|buffer] [--collect-policy=P]\n"
      "               [--budget-cap-usd=X] [--verify-solo=K] [--recal=on|off]\n"
      "               run N tenant streams through the cross-stream\n"
      "               dynamic batcher (DESIGN.md 5g); --verify-solo=K\n"
      "               re-runs the first K streams solo and checks\n"
      "               bit-exact digests against the fleet run;\n"
      "               --recal=on arms a per-stream recalibration loop\n"
      "               (breach/drift triggered conformal rebuilds hot-swap\n"
      "               into that stream's private strategy only)\n"
      "               [--provenance=on|off]  arm the per-stream decision\n"
      "               provenance ledger (default on; docs/TELEMETRY.md)\n"
      "               [--health-report] print the per-tenant fleet health\n"
      "               rollup (worst streams first: breaches, breaker state,\n"
      "               duty cycle, miss/miscoverage rates, relay drops,\n"
      "               batch residency p50/p99, spend)\n"
      "               [--health-out=PATH] write one JSON health row per\n"
      "               stream as JSONL\n"
      "  explain      --decision=ID | --frame=F [--stream=S] [--task=TA10]\n"
      "               [--seed=N] [--frames=N] [--confidence=C]\n"
      "               [--coverage=A] [--nn-backend=K] [--collect-policy=P]\n"
      "               [--fault-profile=NAME] [--fault-seed=N]\n"
      "               [--degraded-mode=drop|buffer] [--recal=on|off]\n"
      "               [--json-out=PATH]  replay one stream deterministically\n"
      "               and print the full causal chain of one marshalling\n"
      "               boundary: collect-policy verdict, batch placement,\n"
      "               inference backend + conformal generation, decision,\n"
      "               relay/breaker outcome, and the auditor's verdict.\n"
      "               --decision takes the decision id carried by metric\n"
      "               exemplars (audit.misses et al.); --frame resolves the\n"
      "               boundary whose horizon covers frame F on --stream.\n"
      "               Pass the same task/seed/knobs as the fleet run being\n"
      "               explained — the replay is bit-identical to it.\n"
      "  help         print this reference and exit 0\n"
      "  --threads=N  worker threads for evaluation/calibration/search\n"
      "               (default 1; 0 = all hardware threads). Results are\n"
      "               identical for every N.\n"
      "  --predict-batch=B  records per batch for the batched GEMM\n"
      "               inference path (default 32; scores are identical\n"
      "               for every B >= 1)\n"
      "  --nn-backend=scalar|blocked|simd|auto  inference kernel\n"
      "               backend (default blocked; docs/BACKENDS.md). simd\n"
      "               needs AVX2+FMA and falls back to blocked elsewhere;\n"
      "               auto picks simd when available. Scores differ\n"
      "               across backends within documented bounds; all\n"
      "               backends are deterministic and batch-invariant.\n"
      "  --collect-policy=full|duty:<d>|adaptive  collection scheduling\n"
      "               policy (evaluate + fleet; DESIGN.md 5i). full scores\n"
      "               every prediction boundary (default; byte-identical\n"
      "               to the legacy path). duty:<d> scores a fixed\n"
      "               fraction d in (0,1] of boundaries; adaptive drops\n"
      "               cadence while recent existence scores stay below a\n"
      "               hysteresis band and snaps back the moment they\n"
      "               rise. Skipped boundaries reuse the last decision\n"
      "               without feature extraction or a model forward;\n"
      "               conformal thresholds are calibrated under the same\n"
      "               policy. evaluate replays the test range through\n"
      "               the marshaller under the policy and at full rate\n"
      "               and prints both with sched.* accounting; fleet\n"
      "               installs the policy in every stream's marshaller.\n"
      "  resilience (evaluate + fleet; see DESIGN.md 5f):\n"
      "  --fault-profile=none|flaky|latency|blackout  replay the test\n"
      "               slice through the resilient cloud relay under the\n"
      "               named deterministic fault schedule\n"
      "  --fault-seed=N      seed of the fault schedule (default 1234)\n"
      "  --degraded-mode=drop|buffer  outage policy: drop-with-accounting\n"
      "               or buffer-and-replay within the horizon\n"
      "  --budget-cap-usd=X  fleet only: stop relaying once the summed\n"
      "               cloud spend crosses X dollars (0 = no cap)\n"
      "  telemetry (all subcommands; see docs/TELEMETRY.md):\n"
      "  --metrics-out=PATH  write the metrics snapshot as JSON\n"
      "  --trace-out=PATH    write Chrome trace-event JSON for\n"
      "                      chrome://tracing / Perfetto\n"
      "  --openmetrics-out=PATH  write the snapshot as OpenMetrics text\n"
      "  --log-out=PATH      write the structured log as JSONL\n"
      "  --log-level=LVL     debug|info|warn|error (default info)\n"
      "  --print-metrics     pretty-print the metrics snapshot on exit\n"
      "  auditing / time series (evaluate only):\n"
      "  --metrics-jsonl=PATH  write per-record metric-delta JSONL while\n"
      "                      the guarantee auditor replays the test slice\n"
      "  --metrics-every=N   records between JSONL snapshots (default 25)\n";
}

int Usage() {
  PrintUsage(std::cerr);
  return 2;
}

// Display names per task event: paper numbering ("E5") when the task
// carries it, else the auditor's "event<k>" fallback.
std::vector<std::string> EventLabels(const data::Task& task) {
  std::vector<std::string> labels;
  labels.reserve(task.global_events.size());
  for (const int global : task.global_events) {
    labels.emplace_back("E") += std::to_string(global);
  }
  return labels;
}

// --threads=N: N >= 2 enables the worker pool, 0 resolves to the hardware
// thread count (or EVENTHIT_THREADS), 1 (the default) stays serial.
eventhit::Result<eventhit::ExecutionContext> ParseThreads(const Flags& flags,
                                                          uint64_t seed) {
  const auto threads = flags.GetInt("threads", 1);
  if (!threads.ok()) return threads.status();
  if (threads.value() < 0) {
    return eventhit::InvalidArgumentError("--threads must be >= 0");
  }
  const int resolved = threads.value() == 0
                           ? eventhit::ThreadPool::DefaultThreads()
                           : static_cast<int>(threads.value());
  return eventhit::ExecutionContext(resolved, seed);
}

eventhit::Result<sim::DatasetId> ParseDataset(const std::string& name) {
  if (name == "VIRAT") return sim::DatasetId::kVirat;
  if (name == "THUMOS") return sim::DatasetId::kThumos;
  if (name == "Breakfast") return sim::DatasetId::kBreakfast;
  return eventhit::InvalidArgumentError("unknown dataset: " + name);
}

int RunStats(const Flags& flags) {
  const std::string load_path = flags.GetString("load", "");
  sim::SyntheticVideo video = [&] {
    obs::TraceSpan span(obs::names::kSpanCliGenerateStream);
    if (!load_path.empty()) {
      auto loaded = sim::LoadVideo(load_path);
      if (!loaded.ok()) {
        std::cerr << loaded.status() << "\n";
        std::exit(1);
      }
      return std::move(loaded).value();
    }
    const auto dataset = ParseDataset(flags.GetString("dataset", "VIRAT"));
    if (!dataset.ok()) {
      std::cerr << dataset.status() << "\n";
      std::exit(1);
    }
    const auto seed =
        static_cast<uint64_t>(flags.GetInt("seed", 42).value_or(42));
    return sim::SyntheticVideo::Generate(
        sim::MakeDatasetSpec(dataset.value()), seed);
  }();
  const sim::DatasetSpec& spec = video.spec();
  TablePrinter table({"Event", "Occurrences", "DurMean", "DurStd"});
  for (const auto& stats : sim::ComputeEventStats(video)) {
    table.AddRow({stats.name, Fmt(stats.occurrences),
                  Fmt(stats.duration_mean, 1), Fmt(stats.duration_std, 1)});
  }
  std::cout << spec.name << " (" << spec.num_frames << " frames, D="
            << spec.FeatureDim() << ", M=" << spec.collection_window
            << ", H=" << spec.horizon << ")\n";
  table.Print(std::cout);

  // Telemetry snapshot of this run (spans so far + any counters).
  std::cout << "\n=== Telemetry snapshot ===\n";
  obs::PrintMetricsTable(obs::MetricsRegistry::Global().Snapshot(),
                         std::cout);
  TablePrinter spans({"Span", "Count", "TotalMs"});
  for (const auto& aggregate :
       obs::TraceBuffer::Global().AggregateByName()) {
    spans.AddRow({aggregate.name, Fmt(aggregate.count),
                  Fmt(static_cast<double>(aggregate.total_us) / 1000.0, 2)});
  }
  if (spans.num_rows() > 0) {
    std::cout << "\n";
    spans.Print(std::cout);
  }
  return 0;
}

int RunGenerate(const Flags& flags) {
  const auto dataset = ParseDataset(flags.GetString("dataset", "VIRAT"));
  if (!dataset.ok()) {
    std::cerr << dataset.status() << "\n";
    return 1;
  }
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::cerr << "--out is required\n";
    return 1;
  }
  sim::DatasetSpec spec = sim::MakeDatasetSpec(dataset.value());
  const auto frames = flags.GetInt("frames", 0).value_or(0);
  if (frames > 0) spec.num_frames = frames;
  const auto seed =
      static_cast<uint64_t>(flags.GetInt("seed", 42).value_or(42));
  std::cerr << "generating " << spec.num_frames << " frames of " << spec.name
            << "...\n";
  const sim::SyntheticVideo video = sim::SyntheticVideo::Generate(spec, seed);
  if (const auto status = sim::SaveVideo(video, out); !status.ok()) {
    std::cerr << status << "\n";
    return 1;
  }
  std::cout << "wrote " << out << "\n";
  return 0;
}

struct TrainedTask {
  eval::TaskEnvironment env;
  eval::TrainedEventHit trained;
  eventhit::ExecutionContext exec;
};

eventhit::Result<TrainedTask> BuildAndTrain(const Flags& flags) {
  const std::string task_name = flags.GetString("task", "");
  if (task_name.empty()) {
    return eventhit::InvalidArgumentError("--task is required");
  }
  auto task = data::FindTask(task_name);
  if (!task.ok()) return task.status();
  eval::RunnerConfig config;
  const auto seed = flags.GetInt("seed", 42);
  if (!seed.ok()) return seed.status();
  config.seed = static_cast<uint64_t>(seed.value());
  const auto predict_batch =
      flags.GetInt("predict-batch",
                   static_cast<int64_t>(core::kDefaultPredictBatch));
  if (!predict_batch.ok()) return predict_batch.status();
  if (predict_batch.value() < 1) {
    return eventhit::InvalidArgumentError("--predict-batch must be >= 1");
  }
  config.predict_batch = static_cast<size_t>(predict_batch.value());
  const auto backend =
      nn::ParseBackendKind(flags.GetString("nn-backend", "blocked"));
  if (!backend.ok()) return backend.status();
  config.nn_backend = backend.value();
  const auto policy =
      sched::ParseCollectPolicy(flags.GetString("collect-policy", "full"));
  if (!policy.ok()) return policy.status();
  config.collect_policy = policy.value();
  auto exec = ParseThreads(flags, config.seed);
  if (!exec.ok()) return exec.status();
  std::cerr << "building environment + training on " << task_name << " ("
            << exec.value().threads() << " thread(s), "
            << nn::GetBackend(config.nn_backend).name << " backend)...\n";
  eval::TaskEnvironment env = eval::TaskEnvironment::Build(task.value(), config);
  eval::TrainedEventHit trained =
      eval::TrainEventHit(env, config, 0.5, exec.value());
  return TrainedTask{std::move(env), std::move(trained), exec.value()};
}

// Flags of every subcommand that drives stream pipelines (fleet, explain
// and the evaluate fault replay): stream seed and length, conformal knobs,
// fault schedule, degraded mode, recal, kernel backend and collect policy.
eventhit::Status ParseStreamFlags(const Flags& flags,
                                  fleet::FleetConfig* config) {
  const auto seed = flags.GetInt("seed", 42);
  const auto frames = flags.GetInt("frames", 0);
  const auto confidence = flags.GetDouble("confidence", 0.9);
  const auto coverage = flags.GetDouble("coverage", 0.5);
  const auto fault_seed = flags.GetInt("fault-seed", 1234);
  for (const auto* status : {&seed.status(), &frames.status(),
                             &confidence.status(), &coverage.status(),
                             &fault_seed.status()}) {
    if (!status->ok()) return *status;
  }
  const std::string mode_name = flags.GetString("degraded-mode", "drop");
  if (mode_name != "drop" && mode_name != "buffer") {
    return eventhit::InvalidArgumentError(
        "--degraded-mode must be drop or buffer");
  }
  const std::string recal_name = flags.GetString("recal", "off");
  if (recal_name != "on" && recal_name != "off") {
    return eventhit::InvalidArgumentError("--recal must be on or off");
  }
  const auto backend =
      nn::ParseBackendKind(flags.GetString("nn-backend", "blocked"));
  if (!backend.ok()) return backend.status();
  const auto policy =
      sched::ParseCollectPolicy(flags.GetString("collect-policy", "full"));
  if (!policy.ok()) return policy.status();
  const std::string profile_name = flags.GetString("fault-profile", "none");
  const auto profile = sim::MakeFaultProfile(
      profile_name, static_cast<uint64_t>(fault_seed.value()));
  if (!profile.ok()) return profile.status();
  config->base_seed = static_cast<uint64_t>(seed.value());
  config->frames_per_stream = frames.value();
  config->confidence = confidence.value();
  config->coverage = coverage.value();
  config->fault_profile = profile_name;
  config->fault_seed = static_cast<uint64_t>(fault_seed.value());
  config->degraded_mode = mode_name == "buffer"
                              ? cloud::DegradedMode::kBufferAndReplay
                              : cloud::DegradedMode::kDropWithAccounting;
  config->recal = recal_name == "on";
  config->runner.seed = config->base_seed;
  config->runner.nn_backend = backend.value();
  config->runner.collect_policy = policy.value();
  return eventhit::OkStatus();
}

// `--fault-profile=NAME`: streams the test slice through one
// fleet::StreamPipeline — the marshaller under the run's --collect-policy
// and the resilient cloud relay under a deterministic fault schedule — and
// prints the relay/breaker accounting next to what an ideal (fault-free)
// link would have delivered. Reproducible from (--seed, --fault-seed).
int RunFaultReplay(const Flags& flags, fleet::FleetConfig config,
                   const eval::TaskEnvironment& env,
                   const eval::TrainedEventHit& trained) {
  if (flags.GetString("fault-profile", "").empty()) return 0;
  const uint64_t seed = config.fault_seed;
  config.recal = false;  // evaluate's --recal arms the drift lab only.
  config.record_transcripts = true;  // The deliveries' detections.
  fleet::StreamSettings settings;
  settings.stream_index = 0;
  settings.cloud_seed = seed + 1;
  settings.relay_seed = seed;
  settings.fault_seed = seed;
  settings.spec = env.video().spec();
  settings.spec.collection_window = env.collection_window();
  settings.spec.horizon = env.horizon();
  const int64_t base_frame = env.splits().test.start;
  settings.push_frames = env.splits().test.end - env.horizon() - base_frame;
  fleet::PipelineSinks sinks;
  sinks.trace = &obs::TraceBuffer::Global();
  sinks.event_labels = EventLabels(env.task());
  fleet::StreamPipeline pipeline(config, settings, env.task(), trained,
                                 env.video(), base_frame, sinks);
  const fleet::FleetStreamResult result =
      fleet::RunInline(pipeline, *trained.model);
  int64_t detected_event_frames = 0;
  for (const auto& delivery : result.transcript.deliveries) {
    for (const uint8_t hit : delivery.detections) detected_event_frames += hit;
  }
  const cloud::CircuitBreaker& breaker = pipeline.relay().breaker();

  const cloud::RelayStats& stats = result.relay;
  std::cout << "\n=== Fault replay (profile=" << config.fault_profile
            << ", mode=" << flags.GetString("degraded-mode", "drop")
            << ") ===\n";
  TablePrinter table({"Quantity", "Value"});
  table.AddRow({"orders submitted", Fmt(stats.orders_submitted)});
  table.AddRow({"orders delivered", Fmt(stats.orders_delivered)});
  table.AddRow({"orders replayed", Fmt(stats.orders_replayed)});
  table.AddRow({"orders dropped", Fmt(stats.orders_dropped)});
  table.AddRow({"frames submitted", Fmt(stats.frames_submitted)});
  table.AddRow({"frames delivered", Fmt(stats.frames_delivered)});
  table.AddRow({"frames dropped", Fmt(stats.frames_dropped)});
  table.AddRow({"attempts / retries",
                Fmt(stats.attempts) + " / " + Fmt(stats.retries)});
  table.AddRow({"injected errors", Fmt(stats.injected_errors)});
  table.AddRow({"injected latency spikes",
                Fmt(stats.injected_latency_spikes)});
  table.AddRow({"breaker opens", Fmt(breaker.opens())});
  table.AddRow({"breaker transitions", Fmt(breaker.transitions())});
  table.AddRow({"detected event frames", Fmt(detected_event_frames)});
  table.AddRow({"cloud cost (USD)", Fmt(result.invoice.total_cost_usd, 3)});
  const double delivered_fraction =
      stats.frames_submitted > 0
          ? static_cast<double>(stats.frames_delivered) /
                static_cast<double>(stats.frames_submitted)
          : 1.0;
  table.AddRow({"delivered fraction", Fmt(delivered_fraction, 4)});
  table.Print(std::cout);
  return 0;
}

// `evaluate --drift-profile=NAME`: the seeded drift-recovery lab
// (fleet/recovery_lab.h). Builds its own single-event drifting rig —
// --task is ignored — then streams the regime shift through a
// StreamPipeline with the recalibration loop armed or disarmed and
// prints the breach → swap → restore chain. Fully reproducible from
// --seed; recal.* metrics land in the global registry for --metrics-out.
int RunDriftRecovery(const Flags& flags) {
  fleet::RecoveryLabConfig config;
  config.scenario = flags.GetString("drift-profile", "");
  const std::string recal_name = flags.GetString("recal", "on");
  if (recal_name != "on" && recal_name != "off") {
    std::cerr << "--recal must be on or off\n";
    return 1;
  }
  config.recal = recal_name == "on";
  const auto seed = flags.GetInt("seed", 42);
  const auto threads = flags.GetInt("threads", 1);
  const auto confidence = flags.GetDouble("confidence", config.confidence);
  const auto coverage = flags.GetDouble("coverage", config.coverage);
  for (const auto* status : {&seed.status(), &threads.status(),
                             &confidence.status(), &coverage.status()}) {
    if (!status->ok()) {
      std::cerr << *status << "\n";
      return 1;
    }
  }
  if (threads.value() < 0) {
    std::cerr << "--threads must be >= 0\n";
    return 1;
  }
  config.seed = static_cast<uint64_t>(seed.value());
  config.threads = threads.value() == 0
                       ? eventhit::ThreadPool::DefaultThreads()
                       : static_cast<int>(threads.value());
  config.confidence = confidence.value();
  config.coverage = coverage.value();

  std::cerr << "streaming drift scenario " << config.scenario
            << " (recal=" << recal_name << ", seed=" << config.seed
            << ")...\n";
  const auto run = fleet::RunRecovery(config);
  if (!run.ok()) {
    std::cerr << run.status() << "\n";
    return 1;
  }
  const fleet::RecoveryReport& r = run.value();

  std::cout << "=== Drift recovery (" << r.scenario
            << ", recal=" << (r.recal_enabled ? "on" : "off") << ") ===\n";
  TablePrinter table({"Quantity", "Value"});
  table.AddRow({"shift frame", Fmt(r.shift_frame)});
  table.AddRow({"stream range",
                Fmt(r.stream_begin) + ".." + Fmt(r.stream_end)});
  table.AddRow({"breach time", Fmt(r.breach_time)});
  table.AddRow({"drift alarm time", Fmt(r.alarm_time)});
  table.AddRow({"first swap time", Fmt(r.first_swap_time)});
  table.AddRow({"swaps", Fmt(r.swap_count)});
  table.AddRow({"restore time", Fmt(r.restore_time)});
  table.AddRow({"time to restore (frames)", Fmt(r.time_to_restore)});
  table.AddRow({"spill overshoot", Fmt(r.spill_overshoot, 3)});
  table.AddRow({"end breached (sticky latch)",
                r.end_breached ? "yes" : "no"});
  table.AddRow({"pre-shift miss/miscover",
                Fmt(r.pre_shift.MissRate(), 3) + "/" +
                    Fmt(r.pre_shift.MiscoverRate(), 3)});
  table.AddRow({"post-shift miss/miscover",
                Fmt(r.post_shift.MissRate(), 3) + "/" +
                    Fmt(r.post_shift.MiscoverRate(), 3)});
  table.AddRow({"post-swap miss/miscover",
                Fmt(r.post_swap.MissRate(), 3) + "/" +
                    Fmt(r.post_swap.MiscoverRate(), 3)});
  if (r.recal_enabled) {
    table.AddRow({"triggers breach/drift",
                  Fmt(r.recal.triggers_breach) + "/" +
                      Fmt(r.recal.triggers_drift)});
    table.AddRow({"refusals cooldown/min-samples",
                  Fmt(r.recal.refusals_cooldown) + "/" +
                      Fmt(r.recal.refusals_min_samples)});
    table.AddRow({"records observed", Fmt(r.recal.records_observed)});
  }
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(r.decision_digest));
  table.AddRow({"decision digest", digest});
  table.Print(std::cout);
  return 0;
}

int RunEvaluate(const Flags& flags) {
  if (!flags.GetString("drift-profile", "").empty()) {
    return RunDriftRecovery(flags);
  }
  auto built = BuildAndTrain(flags);
  if (!built.ok()) {
    std::cerr << built.status() << "\n";
    return 1;
  }
  const auto& [env, trained, exec] = built.value();
  fleet::FleetConfig stream_config;
  if (const auto status = ParseStreamFlags(flags, &stream_config);
      !status.ok()) {
    std::cerr << status << "\n";
    return 1;
  }
  const double confidence = stream_config.confidence;
  const double coverage = stream_config.coverage;

  const std::string model_out = flags.GetString("model-out", "");
  if (!model_out.empty()) {
    if (const auto status = trained.model->Save(model_out); !status.ok()) {
      std::cerr << status << "\n";
      return 1;
    }
    std::cerr << "model saved to " << model_out << "\n";
  }

  TablePrinter table({"Strategy", "REC", "SPL", "REC_c", "REC_r"});
  eval::Metrics ehcr_metrics;
  for (const bool use_cc : {false, true}) {
    for (const bool use_cr : {false, true}) {
      core::EventHitStrategyOptions options;
      options.use_cclassify = use_cc;
      options.use_cregress = use_cr;
      options.confidence = confidence;
      options.coverage = coverage;
      const core::EventHitStrategy strategy(
          trained.model.get(), trained.cclassify.get(),
          trained.cregress.get(), options);
      const eval::Metrics metrics = eval::EvaluateFromScores(
          strategy, trained.test_scores, env.test_records(), env.horizon(),
          exec);
      if (use_cc && use_cr) ehcr_metrics = metrics;
      table.AddRow({strategy.name(), Fmt(metrics.rec), Fmt(metrics.spl),
                    Fmt(metrics.rec_c), Fmt(metrics.rec_r)});
    }
  }
  const eventhit::baselines::OptStrategy opt;
  const eval::Metrics opt_metrics =
      eval::EvaluateStrategy(opt, env.test_records(), env.horizon(), exec);
  table.AddRow({"OPT", Fmt(opt_metrics.rec), Fmt(opt_metrics.spl), "1.000",
                "1.000"});
  table.Print(std::cout);

  core::EventHitStrategyOptions ehcr_options;
  ehcr_options.use_cclassify = true;
  ehcr_options.use_cregress = true;
  ehcr_options.confidence = confidence;
  ehcr_options.coverage = coverage;
  const core::EventHitStrategy ehcr(trained.model.get(),
                                    trained.cclassify.get(),
                                    trained.cregress.get(), ehcr_options);

  obs::AuditConfig audit_config;
  audit_config.confidence = confidence;
  audit_config.coverage = coverage;
  audit_config.event_labels = EventLabels(env.task());

  // Replay the EHCR decisions through the online guarantee auditor on the
  // record clock: audit.* metrics, breach spans, and (with
  // --metrics-jsonl) a labeled time series of per-record metric deltas.
  {
    const std::vector<core::MarshalDecision> decisions =
        eval::DecisionsFromScores(ehcr, trained.test_scores, exec);
    const std::vector<obs::AuditOutcome> outcomes =
        eval::BuildAuditOutcomes(env.test_records(), decisions);
    obs::GuarantyAuditor auditor(audit_config, /*metrics=*/nullptr,
                                 &obs::TraceBuffer::Global());

    const std::string jsonl_path = flags.GetString("metrics-jsonl", "");
    const int64_t metrics_every =
        std::max<int64_t>(1, flags.GetInt("metrics-every", 25).value_or(25));
    std::ofstream jsonl;
    std::unique_ptr<obs::MetricsDeltaWriter> writer;
    if (!jsonl_path.empty()) {
      jsonl.open(jsonl_path);
      if (!jsonl) {
        std::cerr << "cannot open " << jsonl_path << "\n";
        return 1;
      }
      writer = std::make_unique<obs::MetricsDeltaWriter>(&jsonl);
      // Baseline line at t=-1: everything accumulated before the audit
      // replay, so the first windowed delta starts clean.
      writer->Emit(obs::MetricsRegistry::Global().Snapshot(), -1);
    }
    const int64_t records = static_cast<int64_t>(env.test_records().size());
    size_t next = 0;
    for (int64_t i = 0; i < records; ++i) {
      while (next < outcomes.size() && outcomes[next].sim_time == i) {
        auditor.Observe(outcomes[next]);
        ++next;
      }
      if (writer != nullptr && (i + 1) % metrics_every == 0) {
        writer->Emit(obs::MetricsRegistry::Global().Snapshot(), i);
      }
    }
    auditor.Finalize(records);
    if (writer != nullptr) {
      writer->Emit(obs::MetricsRegistry::Global().Snapshot(), records);
      std::cerr << "metric deltas written to " << jsonl_path << "\n";
    }

    std::cout << "\n=== Guarantee audit (c=" << Fmt(confidence, 2)
              << ", alpha=" << Fmt(coverage, 2) << ") ===\n";
    TablePrinter audit_table({"Event", "Pos", "Miss", "MissRate",
                              "MissBudget", "Endp", "Miscov", "MiscovRate",
                              "MiscovBudget", "Breach"});
    const double miss_budget = 1.0 - confidence;
    const double miscov_budget = 1.0 - coverage;
    const std::vector<std::string>& labels = audit_config.event_labels;
    for (size_t k = 0; k < env.task().event_indices.size(); ++k) {
      const int event = static_cast<int>(k);
      std::string breach;
      if (auditor.breached(event, obs::AuditGuarantee::kMiss)) {
        breach = "miss";
      }
      if (auditor.breached(event, obs::AuditGuarantee::kMiscoverage)) {
        breach += breach.empty() ? "miscoverage" : ",miscoverage";
      }
      if (breach.empty()) breach = "-";
      audit_table.AddRow(
          {k < labels.size() ? labels[k] : "event" + std::to_string(k),
           Fmt(auditor.positives(event)), Fmt(auditor.misses(event)),
           Fmt(auditor.MissRate(event), 4), Fmt(miss_budget, 4),
           Fmt(auditor.endpoints(event)), Fmt(auditor.miscovered(event)),
           Fmt(auditor.MiscoverageRate(event), 4), Fmt(miscov_budget, 4),
           breach});
    }
    audit_table.Print(std::cout);
    if (auditor.any_breach()) {
      std::cout << "BREACH: " << auditor.breach_count()
                << " guarantee breach(es) latched; see audit.breach.* "
                   "metrics and audit.breach trace spans\n";
    }
  }

  // --collect-policy: the uniform test records above have no temporal
  // adjacency, so the policy section walks the test range through the
  // marshaller (eval::WalkPolicy) twice, under the policy and at full
  // rate, and compares the two on the identical boundary sequence with
  // sched.* local-compute accounting and an auditor pass over the policy
  // decisions.
  {
    const sched::CollectPolicySpec& policy =
        stream_config.runner.collect_policy;
    if (policy.kind != sched::CollectPolicyKind::kFull) {
      const eval::PolicyWalk walk =
          eval::WalkPolicy(env, env.splits().test, ehcr, policy);
      const eval::PolicyWalk full_walk = eval::WalkPolicy(
          env, env.splits().test, ehcr, sched::CollectPolicySpec{});
      const eval::Metrics policy_metrics =
          eval::ComputeMetrics(walk.records, walk.decisions, env.horizon());
      const eval::Metrics full_metrics = eval::ComputeMetrics(
          full_walk.records, full_walk.decisions, env.horizon());

      obs::GuarantyAuditor auditor(audit_config);
      for (const obs::AuditOutcome& outcome :
           eval::BuildAuditOutcomes(walk.records, walk.decisions)) {
        auditor.Observe(outcome);
      }
      auditor.Finalize(static_cast<int64_t>(walk.records.size()));

      const core::MarshallerStats& ps = walk.stats;
      const core::MarshallerStats& fs = full_walk.stats;
      std::cout << "\n=== Collection policy ("
                << sched::CollectPolicyName(policy)
                << ", stream-cadence sweep of the test range) ===\n";
      TablePrinter policy_table({"Quantity", "Policy", "Full"});
      policy_table.AddRow(
          {"boundaries scored", Fmt(ps.horizons_predicted - ps.horizons_reused),
           Fmt(fs.horizons_predicted - fs.horizons_reused)});
      policy_table.AddRow({"boundaries reused", Fmt(ps.horizons_reused),
                           Fmt(fs.horizons_reused)});
      policy_table.AddRow(
          {"frames scored", Fmt(ps.frames_scored), Fmt(fs.frames_scored)});
      policy_table.AddRow(
          {"frames skipped", Fmt(ps.frames_skipped), Fmt(fs.frames_skipped)});
      policy_table.AddRow(
          {"local MFLOPs", Fmt(ps.local_mflops), Fmt(fs.local_mflops)});
      policy_table.AddRow(
          {"saved MFLOPs", Fmt(ps.saved_mflops), Fmt(fs.saved_mflops)});
      policy_table.AddRow(
          {"REC", Fmt(policy_metrics.rec), Fmt(full_metrics.rec)});
      policy_table.AddRow(
          {"SPL", Fmt(policy_metrics.spl), Fmt(full_metrics.spl)});
      policy_table.AddRow({"audit breaches", Fmt(auditor.breach_count()),
                           "-"});
      policy_table.Print(std::cout);
      if (auditor.any_breach()) {
        std::cout << "BREACH: the policy walk breached "
                  << auditor.breach_count() << " guarantee budget(s)\n";
      }
    }
  }

  // Emit the EHCR operating point onto the simulated timeline: one
  // stage.feature_extraction / stage.predictor / stage.ci span triple for
  // an average horizon, so --trace-out re-derives the Fig. 10 shares.
  if (ehcr_metrics.records > 0) {
    const int64_t relayed_per_horizon =
        ehcr_metrics.relayed_frames / ehcr_metrics.records;
    obs::MetricsRegistry::Global()
        .GetGauge(obs::names::kPipelineRelayedFramesPerHorizon)
        ->Set(static_cast<double>(relayed_per_horizon));
    const cloud::StageBreakdown breakdown = cloud::HorizonTiming(
        cloud::PipelineCostModel{}, cloud::PredictorKind::kEventHit,
        env.collection_window(), env.horizon(), relayed_per_horizon);
    cloud::EmitHorizonSpans(&obs::TraceBuffer::Global(), breakdown,
                            /*start_us=*/0);
  }
  return RunFaultReplay(flags, stream_config, env, trained);
}

int RunSweep(const Flags& flags) {
  auto built = BuildAndTrain(flags);
  if (!built.ok()) {
    std::cerr << built.status() << "\n";
    return 1;
  }
  const auto& [env, trained, exec] = built.value();
  (void)exec;  // Sweeps reuse precomputed scores; see eval/curves.
  const auto points = eval::ParetoFrontier(eval::SweepJoint(
      trained, env, eval::LinearGrid(0.05, 1.0, 12),
      eval::LinearGrid(0.05, 0.95, 8)));

  TablePrinter table({"c", "alpha", "REC", "SPL"});
  eventhit::CsvWriter csv({"c", "alpha", "rec", "spl"});
  for (const auto& point : points) {
    table.AddRow({Fmt(point.confidence, 2), Fmt(point.coverage, 2),
                  Fmt(point.metrics.rec), Fmt(point.metrics.spl)});
    csv.AddRow({Fmt(point.confidence, 3), Fmt(point.coverage, 3),
                Fmt(point.metrics.rec, 6), Fmt(point.metrics.spl, 6)});
  }
  table.Print(std::cout);
  const std::string csv_path = flags.GetString("csv", "");
  if (!csv_path.empty()) {
    if (const auto status = csv.WriteFile(csv_path); !status.ok()) {
      std::cerr << status << "\n";
      return 1;
    }
    std::cerr << "frontier written to " << csv_path << "\n";
  }
  return 0;
}

int RunHyperSearch(const Flags& flags) {
  const std::string task_name = flags.GetString("task", "TA10");
  auto task = data::FindTask(task_name);
  if (!task.ok()) {
    std::cerr << task.status() << "\n";
    return 1;
  }
  eval::RunnerConfig config;
  config.seed =
      static_cast<uint64_t>(flags.GetInt("seed", 42).value_or(42));
  // A light environment: hyper-search trains one model per candidate.
  config.train_records = 500;
  config.test_records = 300;
  std::cerr << "building environment for " << task_name << "...\n";
  const auto env = eval::TaskEnvironment::Build(task.value(), config);

  core::EventHitConfig base = config.model_template;
  base.collection_window = env.collection_window();
  base.horizon = env.horizon();
  base.feature_dim = env.video().feature_dim();
  base.num_events = env.task().event_indices.size();
  base.epochs = 10;

  const auto samples = flags.GetInt("samples", 6).value_or(6);
  auto exec = ParseThreads(flags, config.seed);
  if (!exec.ok()) {
    std::cerr << exec.status() << "\n";
    return 1;
  }
  eval::HyperSearchOptions options;
  options.exec = exec.value();
  eventhit::Rng rng(config.seed + 1);
  std::cerr << "random search over " << samples << " candidates ("
            << options.exec.threads() << " thread(s))...\n";
  const auto results = eval::RandomSearch(
      base, eval::HyperGrid{}, static_cast<size_t>(samples),
      env.train_records(), env.calib_records(), rng, options);

  TablePrinter table({"lstm", "hidden", "lr", "beta", "gamma", "REC", "SPL",
                      "objective"});
  for (const auto& result : results) {
    table.AddRow({Fmt(static_cast<int64_t>(result.config.lstm_hidden)),
                  Fmt(static_cast<int64_t>(result.config.event_hidden)),
                  Fmt(result.config.learning_rate, 4),
                  Fmt(result.config.beta.empty() ? 1.0
                                                 : result.config.beta[0],
                      2),
                  Fmt(result.config.gamma.empty() ? 1.0
                                                  : result.config.gamma[0],
                      2),
                  Fmt(result.validation.rec), Fmt(result.validation.spl),
                  Fmt(result.objective)});
  }
  table.Print(std::cout);
  return 0;
}

// `fleet`: multiplexes N tenant streams through the cross-stream dynamic
// batcher (DESIGN.md 5g) and prints aggregate throughput, per-frame
// latency percentiles and settled accounting. `--verify-solo=K` re-runs
// the first K streams solo (no batching) and checks that every digest is
// bit-identical to the fleet run — the determinism contract, on demand.
int RunFleet(const Flags& flags) {
  const std::string task_name = flags.GetString("task", "TA10");
  const auto task = data::FindTask(task_name);
  if (!task.ok()) {
    std::cerr << task.status() << "\n";
    return 1;
  }
  fleet::FleetConfig config;
  if (const auto status = ParseStreamFlags(flags, &config); !status.ok()) {
    std::cerr << status << "\n";
    return 1;
  }
  const auto streams = flags.GetInt("streams", 100);
  const auto batch = flags.GetInt("batch", 64);
  const auto max_delay = flags.GetInt("max-delay", 4);
  const auto wave = flags.GetInt("wave", 256);
  const auto threads = flags.GetInt("threads", 1);
  const auto budget_cap = flags.GetDouble("budget-cap-usd", 0.0);
  const auto verify_solo = flags.GetInt("verify-solo", 0);
  for (const auto* status :
       {&streams.status(), &batch.status(), &max_delay.status(),
        &wave.status(), &threads.status(), &budget_cap.status(),
        &verify_solo.status()}) {
    if (!status->ok()) {
      std::cerr << *status << "\n";
      return 1;
    }
  }
  if (streams.value() < 1 || batch.value() < 1 || max_delay.value() < 0 ||
      wave.value() < 1 || threads.value() < 0 ||
      config.frames_per_stream < 0 || verify_solo.value() < 0) {
    std::cerr << "fleet: --streams/--batch/--wave must be >= 1, "
                 "--max-delay/--threads/--frames/--verify-solo >= 0\n";
    return 1;
  }
  const std::string provenance_name = flags.GetString("provenance", "on");
  if (provenance_name != "on" && provenance_name != "off") {
    std::cerr << "--provenance must be on or off\n";
    return 1;
  }
  const bool health_report =
      flags.GetBool("health-report", false).value_or(false);
  const std::string health_out = flags.GetString("health-out", "");
  config.num_streams = static_cast<int>(streams.value());
  config.batch_size = static_cast<size_t>(batch.value());
  config.max_batch_delay_ticks = max_delay.value();
  config.wave_size = static_cast<int>(wave.value());
  config.threads = static_cast<int>(threads.value());
  config.budget_cap_microusd =
      static_cast<int64_t>(budget_cap.value() * 1e6);
  config.provenance = provenance_name == "on";

  std::cerr << "training the shared fleet model on " << task_name << " ("
            << nn::GetBackend(config.runner.nn_backend).name
            << " backend)...\n";
  fleet::StreamFleet fleet_run(task.value(), config);
  std::cerr << "running " << config.num_streams << " stream(s), batch "
            << config.batch_size << ", max delay "
            << config.max_batch_delay_ticks << " tick(s), wave "
            << config.wave_size << "...\n";
  const fleet::FleetRunResult result = fleet_run.Run();
  const fleet::FleetRunStats& stats = result.stats;

  int64_t delivered = 0, dropped = 0, submitted = 0;
  int64_t relayed_frames = 0, positives = 0, misses = 0, breaches = 0;
  int64_t frames_scored = 0, frames_skipped = 0, horizons_reused = 0;
  int64_t local_mflops = 0, saved_mflops = 0;
  int64_t recal_swaps = 0, recal_triggers = 0, recal_refusals = 0;
  int64_t streams_with_swaps = 0;
  for (const auto& stream : result.streams) {
    delivered += stream.relay.orders_delivered;
    dropped += stream.relay.orders_dropped;
    submitted += stream.relay.orders_submitted;
    relayed_frames += stream.marshaller.frames_relayed;
    positives += stream.audit_positives;
    misses += stream.audit_misses;
    breaches += stream.audit_breaches;
    frames_scored += stream.marshaller.frames_scored;
    frames_skipped += stream.marshaller.frames_skipped;
    horizons_reused += stream.marshaller.horizons_reused;
    local_mflops += stream.marshaller.local_mflops;
    saved_mflops += stream.marshaller.saved_mflops;
    recal_swaps += stream.recal_swaps;
    recal_triggers +=
        stream.recal_triggers_breach + stream.recal_triggers_drift;
    recal_refusals +=
        stream.recal_refusals_cooldown + stream.recal_refusals_min_samples;
    if (stream.recal_swaps > 0) ++streams_with_swaps;
  }
  TablePrinter table({"Metric", "Value"});
  table.AddRow({"streams", Fmt(stats.streams)});
  table.AddRow({"ticks", Fmt(stats.ticks)});
  table.AddRow({"idle ticks (no push phase)", Fmt(stats.idle_ticks)});
  table.AddRow({"frames pushed", Fmt(stats.frames_pushed)});
  table.AddRow({"inference requests", Fmt(stats.requests)});
  table.AddRow({"batches (full/deadline/final)",
                Fmt(stats.flush_full) + "/" + Fmt(stats.flush_deadline) +
                    "/" + Fmt(stats.flush_final)});
  table.AddRow({"batch fill mean", Fmt(stats.batch_fill_mean, 2)});
  table.AddRow({"elapsed seconds", Fmt(stats.elapsed_seconds, 3)});
  table.AddRow({"streams/sec", Fmt(stats.streams_per_sec, 1)});
  table.AddRow({"frames/sec", Fmt(stats.frames_per_sec, 0)});
  table.AddRow({"p50/p99 frame us",
                FmtSig(stats.p50_frame_us) + "/" + FmtSig(stats.p99_frame_us)});
  table.AddRow({"relay delivered/dropped/submitted",
                Fmt(delivered) + "/" + Fmt(dropped) + "/" + Fmt(submitted)});
  table.AddRow({"relayed frames", Fmt(relayed_frames)});
  table.AddRow({"audit positives/misses", Fmt(positives) + "/" + Fmt(misses)});
  table.AddRow({"audit breaches", Fmt(breaches)});
  if (config.runner.collect_policy.kind != sched::CollectPolicyKind::kFull) {
    table.AddRow({"collect policy",
                  sched::CollectPolicyName(config.runner.collect_policy)});
    table.AddRow({"frames scored/skipped",
                  Fmt(frames_scored) + "/" + Fmt(frames_skipped)});
    table.AddRow({"horizons reused", Fmt(horizons_reused)});
    table.AddRow({"local/saved MFLOPs",
                  Fmt(local_mflops) + "/" + Fmt(saved_mflops)});
  }
  if (config.recal) {
    table.AddRow({"recal triggers/refusals/swaps",
                  Fmt(recal_triggers) + "/" + Fmt(recal_refusals) + "/" +
                      Fmt(recal_swaps)});
    table.AddRow({"streams with swaps", Fmt(streams_with_swaps)});
  }
  table.AddRow({"total cost USD", Fmt(stats.total_cost_usd, 4)});
  if (config.budget_cap_microusd > 0) {
    table.AddRow({"budget breach tick", Fmt(stats.budget_breach_tick)});
  }
  table.Print(std::cout);

  if (health_report || !health_out.empty()) {
    const fleet::FleetHealthReport report = fleet::BuildHealthReport(result);
    if (health_report) {
      std::cout << "\n" << fleet::HealthReportText(report, 10);
    }
    if (!health_out.empty()) {
      std::ofstream out(health_out);
      for (const fleet::StreamHealth& health : report.streams) {
        out << fleet::StreamHealthJson(health) << "\n";
      }
      if (!out) {
        std::cerr << "cannot write " << health_out << "\n";
        return 1;
      }
      std::cerr << "health report written to " << health_out << "\n";
    }
  }

  const int verify = static_cast<int>(
      std::min<int64_t>(verify_solo.value(), config.num_streams));
  if (verify > 0) {
    std::cerr << "verifying " << verify << " stream(s) against solo runs...\n";
    for (int s = 0; s < verify; ++s) {
      const fleet::FleetStreamResult solo = fleet_run.RunStreamSolo(s);
      if (!fleet::SameStreamResult(result.streams[static_cast<size_t>(s)],
                                   solo)) {
        std::cerr << "stream " << s
                  << ": fleet result DIFFERS from solo run\n";
        return 1;
      }
    }
    std::cout << "verify-solo: " << verify
              << " stream(s) bit-identical to solo runs\n";
  }
  return 0;
}

// `explain`: deterministically replays one stream (the solo path of the
// fleet state machine, bit-identical to the batched run by the DESIGN.md
// §5g contract) with a provenance ring large enough to hold every
// boundary, then prints the causal chain of the requested decision.
int RunExplain(const Flags& flags) {
  const std::string task_name = flags.GetString("task", "TA10");
  const auto task = data::FindTask(task_name);
  if (!task.ok()) {
    std::cerr << task.status() << "\n";
    return 1;
  }
  fleet::FleetConfig config;
  if (const auto status = ParseStreamFlags(flags, &config); !status.ok()) {
    std::cerr << status << "\n";
    return 1;
  }
  const auto decision = flags.GetInt("decision", -1);
  const auto frame = flags.GetInt("frame", -1);
  const auto stream_flag = flags.GetInt("stream", 0);
  for (const auto* status :
       {&decision.status(), &frame.status(), &stream_flag.status()}) {
    if (!status->ok()) {
      std::cerr << *status << "\n";
      return 1;
    }
  }
  if (decision.value() < 0 && frame.value() < 0) {
    std::cerr << "explain: pass --decision=ID (from a metric exemplar or "
                 "breach log) or --frame=F\n";
    return 1;
  }

  const int64_t stream_index =
      decision.value() >= 0
          ? obs::StreamProvenance::StreamOfId(decision.value())
          : stream_flag.value();
  if (stream_index < 0 || stream_index > 1000000) {
    std::cerr << "explain: implausible stream index " << stream_index
              << " (bad --decision id?)\n";
    return 1;
  }

  config.num_streams = static_cast<int>(stream_index) + 1;
  // A solo replay must retain every boundary: one ring slot per possible
  // anchor of the stream (boundaries are spaced >= 1 frame apart).
  sim::DatasetSpec spec = sim::MakeDatasetSpec(task.value().dataset);
  const int64_t spec_frames =
      config.frames_per_stream > 0 ? config.frames_per_stream
                                   : spec.num_frames;
  config.provenance = true;
  config.provenance_ring = static_cast<size_t>(spec_frames) + 2;
  config.collect_provenance_records = true;

  std::cerr << "replaying stream " << stream_index << " of " << task_name
            << " at seed " << config.base_seed << "...\n";
  fleet::StreamFleet fleet_run(task.value(), config);
  const fleet::FleetStreamResult result =
      fleet_run.RunStreamSolo(static_cast<int>(stream_index));

  const fleet::StreamSettings settings =
      fleet_run.DeriveStreamSettings(static_cast<int>(stream_index));
  obs::StreamProvenance ids(stream_index, settings.spec.collection_window,
                            settings.spec.horizon, 2);
  const int64_t want_boundary =
      decision.value() >= 0
          ? obs::StreamProvenance::BoundaryOfId(decision.value())
          : ids.BoundaryForFrame(frame.value());

  const obs::ProvenanceRecord* hit = nullptr;
  for (const obs::ProvenanceRecord& record : result.provenance_records) {
    if (record.boundary_index == want_boundary) hit = &record;
  }
  if (hit == nullptr) {
    std::cerr << "explain: boundary " << want_boundary << " of stream "
              << stream_index << " was never marshalled (the stream has "
              << result.provenance_boundaries
              << " boundaries; check --task/--seed/--frames match the run "
                 "being explained)\n";
    return 1;
  }
  std::cout << ProvenanceRecordText(*hit);
  const std::string json_out = flags.GetString("json-out", "");
  if (!json_out.empty()) {
    std::ofstream out(json_out);
    out << ProvenanceRecordJson(*hit) << "\n";
    if (!out) {
      std::cerr << "cannot write " << json_out << "\n";
      return 1;
    }
    std::cerr << "decision JSON written to " << json_out << "\n";
  }
  return 0;
}

// Writes/prints the telemetry collected by the subcommand. Returns 1 on
// I/O failure (over the subcommand's own exit code only when it succeeded).
int FlushTelemetry(const Flags& flags) {
  int rc = 0;
  const std::string metrics_out = flags.GetString("metrics-out", "");
  if (!metrics_out.empty()) {
    const auto status = obs::WriteMetricsJson(
        obs::MetricsRegistry::Global().Snapshot(), metrics_out);
    if (!status.ok()) {
      std::cerr << status << "\n";
      rc = 1;
    } else {
      std::cerr << "metrics written to " << metrics_out << "\n";
    }
  }
  const std::string trace_out = flags.GetString("trace-out", "");
  if (!trace_out.empty()) {
    const auto status =
        obs::WriteTraceJson(obs::TraceBuffer::Global(), trace_out);
    if (!status.ok()) {
      std::cerr << status << "\n";
      rc = 1;
    } else {
      std::cerr << "trace written to " << trace_out << "\n";
    }
  }
  const std::string openmetrics_out = flags.GetString("openmetrics-out", "");
  if (!openmetrics_out.empty()) {
    const auto status = obs::WriteOpenMetrics(
        obs::MetricsRegistry::Global().Snapshot(), openmetrics_out);
    if (!status.ok()) {
      std::cerr << status << "\n";
      rc = 1;
    } else {
      std::cerr << "OpenMetrics written to " << openmetrics_out << "\n";
    }
  }
  const std::string log_out = flags.GetString("log-out", "");
  if (!log_out.empty()) {
    std::ofstream out(log_out);
    if (out) out << obs::Logger::Global().ToJsonl();
    if (!out) {
      std::cerr << "cannot write " << log_out << "\n";
      rc = 1;
    } else {
      std::cerr << "structured log written to " << log_out << "\n";
    }
  }
  if (flags.GetBool("print-metrics", false).value_or(false)) {
    std::cout << "\n=== Telemetry snapshot ===\n";
    obs::PrintMetricsTable(obs::MetricsRegistry::Global().Snapshot(),
                           std::cout);
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    PrintUsage(std::cout);
    return 0;
  }
  const auto flags = Flags::Parse(argc - 2, argv + 2);
  if (!flags.ok()) {
    std::cerr << flags.status() << "\n";
    return 2;
  }
  const std::string log_level = flags.value().GetString("log-level", "info");
  obs::LogLevel min_level = obs::LogLevel::kInfo;
  if (!obs::ParseLogLevel(log_level, &min_level)) {
    std::cerr << "bad --log-level: " << log_level
              << " (want debug|info|warn|error)\n";
    return 2;
  }
  obs::Logger::Global().set_min_level(min_level);
  // Rate-limited suppressions surface as the log.suppressed counter (per
  // component) in every metrics export.
  obs::Logger::Global().set_metrics(&obs::MetricsRegistry::Global());
  int rc = -1;
  if (command == "stats") rc = RunStats(flags.value());
  if (command == "generate") rc = RunGenerate(flags.value());
  if (command == "evaluate") rc = RunEvaluate(flags.value());
  if (command == "sweep") rc = RunSweep(flags.value());
  if (command == "hypersearch") rc = RunHyperSearch(flags.value());
  if (command == "fleet") rc = RunFleet(flags.value());
  if (command == "explain") rc = RunExplain(flags.value());
  if (rc < 0) return Usage();
  const int telemetry_rc = FlushTelemetry(flags.value());
  return rc != 0 ? rc : telemetry_rc;
}
