#include "golden_corpus.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <unistd.h>
#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

#include "common/check.h"
#include "common/fnv.h"
#include "core/strategies.h"
#include "data/tasks.h"
#include "eval/runner.h"
#include "fleet/recovery_lab.h"
#include "fleet/stream_fleet.h"
#include "fleet/stream_pipeline.h"
#include "nn/backend.h"
#include "sched/collect_policy.h"
#include "sim/datasets.h"
#include "sim/drift_scenario.h"
#include "sim/synthetic_video.h"

namespace eventhit::golden {
namespace {

namespace lab = ::eventhit::fleet;

constexpr const char* kTasks[] = {"TA10", "TA13", "TA9"};
constexpr const char* kPolicies[] = {"full", "duty:0.25", "adaptive"};
constexpr const char* kFaults[] = {"none", "flaky", "blackout"};
constexpr nn::BackendKind kBackends[] = {nn::BackendKind::kScalar,
                                         nn::BackendKind::kBlocked};

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

sched::CollectPolicySpec Policy(const std::string& name) {
  auto spec = sched::ParseCollectPolicy(name);
  EVENTHIT_CHECK_OK(spec.status());
  return spec.value();
}

// A small model, trained just enough that C-REGRESS widens intervals by
// varying amounts (at fleet_test's 80 records every interval is [1, H]).
eval::RunnerConfig Runner(nn::BackendKind backend, const std::string& policy) {
  eval::RunnerConfig runner;
  runner.stream_frames_override = 30000;
  runner.train_records = 200;
  runner.calib_records = 120;
  runner.test_records = 60;
  runner.model_template.epochs = 4;
  runner.nn_backend = backend;
  runner.collect_policy = Policy(policy);
  runner.seed = 11;
  return runner;
}

std::string TrainedDigests(const eval::TrainedEventHit& trained) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("eventhit_golden_" + std::to_string(getpid()) + ".bin");
  EVENTHIT_CHECK_OK(trained.model->Save(path.string()));
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  std::filesystem::remove(path);
  EVENTHIT_CHECK(!bytes.empty());
  uint64_t scores = kFnvOffset;
  for (const core::EventScores& s : trained.test_scores) {
    scores = FnvBytes(scores, s.existence.data(),
                      s.existence.size() * sizeof(s.existence[0]));
    for (const std::vector<float>& theta : s.occupancy) {
      scores = FnvBytes(scores, theta.data(), theta.size() * sizeof(float));
    }
  }
  return " model=" + Hex(FnvBytes(kFnvOffset, bytes.data(), bytes.size())) +
         " scores=" + Hex(scores);
}

std::string StreamDigests(const std::vector<fleet::FleetStreamResult>& streams) {
  uint64_t decision = kFnvOffset;
  uint64_t delivery = kFnvOffset;
  uint64_t provenance = kFnvOffset;
  uint64_t state = kFnvOffset;
  for (const fleet::FleetStreamResult& s : streams) {
    decision = FnvU64(decision, s.decision_digest);
    delivery = FnvU64(delivery, s.delivery_digest);
    provenance = FnvU64(provenance, s.provenance_digest);
    state = FnvU64(state, s.state_digest);
  }
  return " decision=" + Hex(decision) + " delivery=" + Hex(delivery) +
         " provenance=" + Hex(provenance) + " state=" + Hex(state);
}

// Three streams in two waves at batch 4, so flushes cross streams and
// waves. Recal rows use fleet_test's hair trigger, so most loops swap.
fleet::FleetConfig FleetRow(nn::BackendKind backend, const std::string& policy,
                            const std::string& fault, bool recal,
                            int64_t frames) {
  fleet::FleetConfig config;
  config.num_streams = 3;
  config.wave_size = 2;
  config.base_seed = 11;
  config.frames_per_stream = frames;
  config.batch_size = 4;
  config.max_batch_delay_ticks = 3;
  config.fault_profile = fault;
  config.recal = recal;
  config.recal_config.window_capacity = 32;
  config.recal_config.min_records = 1;
  config.recal_config.min_positives = 1;
  config.recal_config.cooldown_frames = 400;
  config.recal_config.drift.epsilon = 0.5;
  config.recal_config.drift.log_threshold = 0.01;
  config.runner = Runner(backend, policy);
  return config;
}

// The model and test-score digests of the model a fleet with `runner`
// trains: the fleet's own training, repeated (same environment, tau2 and
// seed).
std::string FleetModelDigests(const data::Task& task,
                              const eval::RunnerConfig& runner) {
  const eval::TaskEnvironment env = eval::TaskEnvironment::Build(task, runner);
  return TrainedDigests(eval::TrainEventHit(env, runner, 0.5,
                                            ExecutionContext(1, runner.seed)));
}

std::string FleetDigests(const data::Task& task,
                         const fleet::FleetConfig& config) {
  fleet::StreamFleet fleet(task, config);
  return StreamDigests(fleet.Run().streams);
}

std::vector<std::string> FleetSection(const std::string& section,
                                      const std::string& task_name,
                                      nn::BackendKind backend) {
  const data::Task task = data::FindTask(task_name).value();
  const int64_t frames = 24 * sim::MakeDatasetSpec(task.dataset).horizon;
  std::vector<std::string> lines;
  for (const char* policy : kPolicies) {
    const std::string model =
        FleetModelDigests(task, Runner(backend, policy));
    for (const char* fault : kFaults) {
      for (const bool recal : {false, true}) {
        lines.push_back(
            section + " " + policy + " " + fault +
            (recal ? " recal" : " -") + model +
            FleetDigests(task,
                         FleetRow(backend, policy, fault, recal, frames)));
      }
    }
  }
  return lines;
}

std::vector<std::string> EdgeSection() {
  std::vector<std::string> lines;
  // TA10 (H = 200) at a frame count no multiple of H: the last boundary
  // and the last scored window fall short of the stream's end.
  const data::Task task = data::FindTask("TA10").value();
  for (const char* policy : kPolicies) {
    const fleet::FleetConfig config =
        FleetRow(nn::BackendKind::kBlocked, policy, "flaky", false, 4937);
    lines.push_back(std::string("edge TA10 frames=4937 ") + policy +
                    FleetModelDigests(task, config.runner) +
                    FleetDigests(task, config));
  }
  // M = H = 10 under duty:0.5, the edge of a policy's M <= H rule: one
  // stream, a pipeline replayed inline over a TA10 model trained at
  // H = 10. (Written when fleet streams took their shape from the dataset
  // alone; they now honour the runner's overrides, and the row keeps its
  // hand-built stream so its digests stay as committed.)
  fleet::FleetConfig config =
      FleetRow(nn::BackendKind::kBlocked, "duty:0.5", "none", false, 3000);
  config.runner.horizon_override = 10;
  const eval::TaskEnvironment env =
      eval::TaskEnvironment::Build(task, config.runner);
  const eval::TrainedEventHit trained =
      eval::TrainEventHit(env, config.runner);
  fleet::StreamSettings settings;
  settings.stream_index = 0;
  settings.cloud_seed = 1;
  settings.relay_seed = 2;
  settings.spec = sim::MakeDatasetSpec(task.dataset);
  settings.spec.num_frames = config.frames_per_stream;
  settings.spec.horizon = 10;
  EVENTHIT_CHECK_EQ(settings.spec.collection_window, settings.spec.horizon);
  settings.push_frames = settings.spec.num_frames - settings.spec.horizon;
  const sim::SyntheticVideo video =
      sim::SyntheticVideo::Generate(settings.spec, 11);
  fleet::StreamPipeline pipeline(config, settings, task, trained, video,
                                 /*first_frame=*/0, fleet::PipelineSinks{});
  const fleet::FleetStreamResult result =
      fleet::RunInline(pipeline, *trained.model);
  lines.push_back("edge TA10 M=H=10 duty:0.5" + TrainedDigests(trained) +
                  StreamDigests({result}));
  return lines;
}

std::string LabLine(const lab::RecoveryReport& r) {
  return "lab " + r.scenario + (r.recal_enabled ? " recal" : " -") +
         " breach=" + std::to_string(r.breach_time) +
         " alarm=" + std::to_string(r.alarm_time) +
         " swap=" + std::to_string(r.first_swap_time) +
         " swaps=" + std::to_string(r.swap_count) +
         " restore=" + std::to_string(r.restore_time) +
         " ttr=" + std::to_string(r.time_to_restore) +
         " end_breached=" + std::to_string(r.end_breached ? 1 : 0) +
         " digest=" + Hex(r.decision_digest);
}

std::vector<std::string> LabSection() {
  std::vector<std::string> lines;
  for (const std::string& scenario : sim::DriftScenarioNames()) {
    lab::RecoveryLabConfig config;
    config.scenario = scenario;
    const auto control = lab::RunRecoveryControl(config);
    EVENTHIT_CHECK_OK(control.status());
    lines.push_back(LabLine(control.value().with_recal));
    lines.push_back(LabLine(control.value().without_recal));
  }
  return lines;
}

std::vector<std::string> WalkSection() {
  std::vector<std::string> lines;
  for (const char* task_name : kTasks) {
    const data::Task task = data::FindTask(task_name).value();
    for (const char* policy : kPolicies) {
      const eval::RunnerConfig runner =
          Runner(nn::BackendKind::kBlocked, policy);
      const eval::TaskEnvironment env =
          eval::TaskEnvironment::Build(task, runner);
      const eval::TrainedEventHit trained = eval::TrainEventHit(env, runner);
      core::EventHitStrategyOptions options;
      options.use_cclassify = true;
      options.use_cregress = true;
      const core::EventHitStrategy strategy(trained.model.get(),
                                            trained.cclassify.get(),
                                            trained.cregress.get(), options);
      const eval::PolicyWalk walk = eval::WalkPolicy(
          env, env.splits().test, strategy, runner.collect_policy);
      uint64_t decisions = kFnvOffset;
      for (size_t i = 0; i < walk.decisions.size(); ++i) {
        decisions = FnvU64(decisions, static_cast<uint64_t>(
                                          walk.records[i].frame));
        decisions = FnvU64(decisions, walk.reused[i] ? 1 : 0);
        const core::MarshalDecision& d = walk.decisions[i];
        for (size_t k = 0; k < d.exists.size(); ++k) {
          decisions = FnvU64(decisions, d.exists[k] ? 1 : 0);
          decisions = FnvU64(decisions,
                             static_cast<uint64_t>(d.intervals[k].start));
          decisions = FnvU64(decisions,
                             static_cast<uint64_t>(d.intervals[k].end));
        }
      }
      const core::MarshallerStats& m = walk.stats;
      uint64_t stats = kFnvOffset;
      for (const int64_t v :
           {m.frames_seen, m.horizons_predicted, m.frames_relayed,
            m.relay_orders, m.horizons_reused, m.frames_scored,
            m.frames_skipped, m.local_mflops, m.saved_mflops}) {
        stats = FnvU64(stats, static_cast<uint64_t>(v));
      }
      lines.push_back("walk " + std::string(task_name) + " " + policy +
                      " boundaries=" + std::to_string(walk.decisions.size()) +
                      " decisions=" + Hex(decisions) + " stats=" + Hex(stats));
    }
  }
  return lines;
}

}  // namespace

std::string ToolchainFingerprint() {
  std::string out = "toolchain";
#if defined(__clang__)
  out += " clang " + std::string(__clang_version__);
#elif defined(__GNUC__)
  out += " gcc " + std::string(__VERSION__);
#else
  out += " unknown-compiler";
#endif
#if defined(__GLIBC__)
  out += " glibc " + std::string(gnu_get_libc_version());
#else
  out += " unknown-libc";
#endif
  return out;
}

std::vector<std::string> SectionNames() {
  std::vector<std::string> names;
  for (const char* task : kTasks) {
    for (const nn::BackendKind backend : kBackends) {
      names.push_back(std::string("fleet-") + task + "-" +
                      nn::BackendKindName(backend));
    }
  }
  for (const char* name : {"edge", "lab", "walk"}) names.push_back(name);
  return names;
}

std::vector<std::string> SectionLines(const std::string& section) {
  if (section == "edge") return EdgeSection();
  if (section == "lab") return LabSection();
  if (section == "walk") return WalkSection();
  for (const char* task : kTasks) {
    for (const nn::BackendKind backend : kBackends) {
      if (section == std::string("fleet-") + task + "-" +
                         nn::BackendKindName(backend)) {
        return FleetSection(section, task, backend);
      }
    }
  }
  EVENTHIT_CHECK(false && "unknown corpus section");
  return {};
}

}  // namespace eventhit::golden
