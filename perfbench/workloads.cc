#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "cloud/relay.h"
#include "common/check.h"
#include "fleet/dynamic_batcher.h"
#include "obs/schema.h"
#include "sched/collect_policy.h"

namespace perfbench {

bool ParseArgs(int argc, char** argv, Args* args, Workload* workload) {
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n", flag.c_str());
      return false;
    }
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (!MakeWorkload(args->workload, args->seed, workload)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
    return false;
  }
  const fleet::FleetConfig& c = workload->config;
  std::printf("workload %s seed %llu: %s, %d streams x %lld frames, batch "
              "%zu, delay %lld ticks, threads %d\n",
              workload->name.c_str(),
              static_cast<unsigned long long>(args->seed),
              workload->task.name.c_str(), c.num_streams,
              static_cast<long long>(c.frames_per_stream), c.batch_size,
              static_cast<long long>(c.max_batch_delay_ticks), c.threads);
  return true;
}

void PinToNextCpu() {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) allowed.push_back(cpu);
      }
    }
    return allowed;
  }();
  static size_t next = 0;
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[next++ % cpus.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);  // Best effort.
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  Workload w;
  w.name = name;
  fleet::FleetConfig& c = w.config;
  c.threads = 1;
  c.wave_size = 256;
  c.max_batch_delay_ticks = 4;
  c.frames_per_stream = 4200;
  // The tenant streams and their fault schedules come from the seed; the
  // shared model is trained on a fixed world, so set-up does the same work
  // for every seed.
  c.base_seed = seed;
  c.fault_seed = seed ^ 0x5eed5eedULL;
  c.runner.seed = 42;
  c.runner.stream_frames_override = 60000;
  c.runner.train_records = 400;
  c.runner.calib_records = 400;
  c.runner.test_records = 100;
  c.runner.model_template.epochs = 6;
  std::string task = "TA10";
  if (name == "steady") {
    // Full collection, no faults, default batching, three waves.
    c.num_streams = 768;
    c.frames_per_stream = 1200;
    c.batch_size = 64;
  } else if (name == "long-window") {
    // Breakfast (M=50, H=500): the GEMM-heavy path. Batch 24 puts flush
    // ticks at about 2% of all ticks, so p99 sits near the median flush
    // tick rather than in its slowest third.
    task = "TA13";
    c.num_streams = 256;
    c.frames_per_stream = 2700;
    c.batch_size = 24;
  } else if (name == "duty-flaky") {
    // Three in four boundaries replay the last decision; the relay retries,
    // buffers, replays and drops under the flaky fault profile.
    c.num_streams = 256;
    c.batch_size = 8;
    c.runner.collect_policy.kind = eventhit::sched::CollectPolicyKind::kDuty;
    c.runner.collect_policy.duty = 0.25;
    c.fault_profile = "flaky";
    c.degraded_mode = eventhit::cloud::DegradedMode::kBufferAndReplay;
  } else {
    return false;
  }
  auto found = eventhit::data::FindTask(task);
  if (!found.ok()) return false;
  w.task = found.value();
  *out = std::move(w);
  return true;
}

Schedule ReplaySchedule(const fleet::StreamFleet& fleet) {
  const fleet::FleetConfig& config = fleet.config();
  const eventhit::sched::CollectPolicySpec& policy_spec =
      config.runner.collect_policy;
  // Only policies whose schedule ignores the scores can be replayed.
  EVENTHIT_CHECK(policy_spec.kind !=
                 eventhit::sched::CollectPolicyKind::kAdaptive);
  const auto policy = eventhit::sched::MakeCollectPolicy(policy_spec);

  Schedule out;
  for (int wave_start = 0; wave_start < config.num_streams;
       wave_start += config.wave_size) {
    const int wave_n =
        std::min(config.wave_size, config.num_streams - wave_start);
    int64_t max_ticks = 0;
    // (tick, slot) of every request in the wave; sorted, this is the
    // canonical order in which Run() hands requests to the batcher.
    std::vector<std::pair<int64_t, int>> issued;
    for (int i = 0; i < wave_n; ++i) {
      const fleet::StreamSettings s = fleet.DeriveStreamSettings(wave_start + i);
      max_ticks = std::max(max_ticks, s.phase + s.push_frames);
      const int64_t first = s.spec.collection_window - 1;
      int64_t boundary = 0;
      for (int64_t frame = first; frame < s.push_frames;
           frame += s.spec.horizon, ++boundary) {
        // The marshaller always scores its first boundary.
        if (boundary == 0 || policy->ShouldScore(boundary)) {
          issued.emplace_back(s.phase + frame, i);
        }
      }
    }
    std::sort(issued.begin(), issued.end());

    fleet::DynamicBatcher batcher(config.batch_size,
                                  config.max_batch_delay_ticks);
    size_t next = 0;
    for (int64_t tick = 0; tick < max_ticks; ++tick) {
      for (; next < issued.size() && issued[next].first == tick; ++next) {
        fleet::InferenceRequest request;
        request.shard_slot = issued[next].second;
        request.enqueue_tick = tick;
        batcher.Enqueue(std::move(request));
        ++out.requests;
      }
      const auto flushes = batcher.TakeReady(tick, tick == max_ticks - 1);
      if (!flushes.empty()) ++out.flush_ticks;
      for (const fleet::BatchFlush& flush : flushes) {
        ++out.batches;
        switch (flush.reason) {
          case fleet::FlushReason::kFull: ++out.flush_full; break;
          case fleet::FlushReason::kDeadline: ++out.flush_deadline; break;
          case fleet::FlushReason::kFinal: ++out.flush_final; break;
        }
      }
      ++out.ticks;
    }
  }
  return out;
}

bool ScheduleMatches(const Schedule& schedule,
                     const fleet::FleetRunStats& stats) {
  return schedule.ticks == stats.ticks &&
         schedule.requests == stats.requests &&
         schedule.batches == stats.batches &&
         schedule.flush_full == stats.flush_full &&
         schedule.flush_deadline == stats.flush_deadline &&
         schedule.flush_final == stats.flush_final;
}

std::string CheckAccounting(fleet::StreamFleet& fleet,
                            const fleet::FleetRunResult& run) {
  for (const fleet::FleetStreamResult& r : run.streams) {
    const eventhit::cloud::RelayStats& relay = r.relay;
    if (relay.frames_delivered + relay.frames_dropped + relay.frames_pending +
            relay.frames_in_flight !=
        relay.frames_submitted) {
      return "stream " + std::to_string(r.stream_index) +
             ": relay delivered + dropped + pending + in_flight != submitted";
    }
  }
  namespace names = eventhit::obs::names;
  eventhit::obs::MetricsRegistry& registry = fleet.stream_metrics();
  const int64_t relayed =
      registry.GetCounter(names::kMarshallerFramesRelayed)->Value();
  const int64_t filtered =
      registry.GetCounter(names::kMarshallerFramesFiltered)->Value();
  const int64_t total =
      registry.GetCounter(names::kMarshallerFramesTotal)->Value();
  if (relayed + filtered != total) {
    return "registry: marshaller.frames.relayed + filtered != total";
  }
  return "";
}

std::vector<int> GateStreams(int num_streams, int count) {
  std::vector<int> out;
  for (int k = 0; k < count; ++k) {
    const int index = static_cast<int>(
        (static_cast<int64_t>(k) * (num_streams - 1)) /
        std::max(1, count - 1));
    if (out.empty() || out.back() != index) out.push_back(index);
  }
  return out;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    // JSON has no NaN or infinity; a non-finite value is a benchmark bug.
    EVENTHIT_CHECK(std::isfinite(metrics[i].value));
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
