// Traced fleet benchmark: the per-layer split of the fleet's work.
//
//   perfbench_trace --workload <name> --seed <n> --seconds <s>
//                   [--trace-out <chrome-trace.json>]
//
// Builds the workload's StreamFleet and times its untraced Run() (best of
// a few, after a warm-up). Then trains the same model again through
// eval::TrainEventHit and drives every stream through FleetMirror — the
// fleet's tick loop rebuilt from the public layer calls, each bracketed by
// a span. Traced passes repeat for `--seconds`; metrics come from the
// fastest pass. Every pass must reproduce Run()'s per-stream results and
// allocate exactly what the first traced pass allocated.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "eval/runner.h"
#include "fleet_mirror.h"
#include "obs/metrics.h"
#include "sched/cost_model.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
// Defined by counting_new.cc, the counting operator new of this binary.
void ReadAllocCounts(uint64_t* count, uint64_t* bytes);
}  // namespace perfbench

namespace {

using perfbench::Metric;
using perfbench::MirrorRun;
using perfbench::SecondsSince;
using perfbench::Tracer;
namespace eval = ::eventhit::eval;
namespace fleet = ::eventhit::fleet;

constexpr int kUntracedReps = 3;
constexpr int kMinTracedPasses = 2;
constexpr size_t kRawSpans = 50000;

// Everything kept from one traced pass.
struct Pass {
  MirrorRun run;
  std::vector<Tracer::Totals> totals;
  std::vector<int64_t> predict_ns;
};

// Appends to `failures` every way `run` differs from the fleet's Run().
void CheckAgainstFleet(const MirrorRun& run,
                       const fleet::FleetRunResult& reference,
                       const char* label, std::vector<std::string>* failures) {
  int differing = 0;
  for (size_t i = 0; i < run.streams.size(); ++i) {
    if (!perfbench::SameAsFleet(run.streams[i], reference.streams[i])) {
      ++differing;
    }
  }
  if (differing > 0) {
    failures->push_back(std::string(label) + ": " +
                        std::to_string(differing) +
                        " stream(s) differ from Run()");
  }
  const fleet::FleetRunStats& s = reference.stats;
  if (run.ticks != s.ticks || run.requests != s.requests ||
      run.batches != s.batches || run.flush_full != s.flush_full ||
      run.flush_deadline != s.flush_deadline ||
      run.flush_final != s.flush_final ||
      run.frames_pushed != s.frames_pushed) {
    failures->push_back(std::string(label) +
                        ": tick/flush counts differ from Run()");
  }
}

double Per(double value, double count) {
  return value / std::max(1.0, count);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  perfbench::Workload w;
  if (!perfbench::ParseArgs(argc, argv, &args, &w)) return 2;
  const fleet::FleetConfig& config = w.config;

  eventhit::obs::MetricsRegistry metrics;
  fleet::StreamFleet runner(w.task, config, &metrics);
  const fleet::FleetRunResult reference = runner.Run();  // Warm-up.
  double untraced_wall = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kUntracedReps; ++rep) {
    perfbench::PinToNextCpu();
    const auto start = std::chrono::steady_clock::now();
    runner.Run();
    untraced_wall = std::min(untraced_wall, SecondsSince(start));
  }

  // The same deterministic training the fleet's constructor runs.
  auto start = std::chrono::steady_clock::now();
  const eval::TaskEnvironment env =
      eval::TaskEnvironment::Build(w.task, config.runner);
  const double build_env_s = SecondsSince(start);
  start = std::chrono::steady_clock::now();
  const eventhit::ExecutionContext train_ctx(config.threads,
                                             config.runner.seed);
  const eval::TrainedEventHit trained =
      eval::TrainEventHit(env, config.runner, 0.5, train_ctx);
  const double train_s = SecondsSince(start);

  std::vector<std::string> failures;
  perfbench::FleetMirror mirror(runner, trained);
  // Untraced warm-up pass: also registers every metric series, so traced
  // passes allocate only what the fleet's steady state allocates.
  CheckAgainstFleet(mirror.Run(nullptr), reference, "untraced mirror",
                    &failures);

  Tracer tracer(perfbench::SpanNames(), &perfbench::ReadAllocCounts,
                kRawSpans);
  tracer.KeepSamples(perfbench::kSpanPredict);
  Pass best;
  best.run.wall_s = std::numeric_limits<double>::infinity();
  std::vector<int64_t> first_allocs;
  int passes = 0;
  const auto timing_start = std::chrono::steady_clock::now();
  while (passes < kMinTracedPasses || SecondsSince(timing_start) < args.seconds) {
    tracer.Reset();
    perfbench::PinToNextCpu();
    MirrorRun run = mirror.Run(&tracer);
    CheckAgainstFleet(run, reference, "traced pass", &failures);
    std::vector<int64_t> allocs;
    for (int id = 0; id < perfbench::kNumSpans; ++id) {
      allocs.push_back(tracer.totals(id).self_allocs);
      allocs.push_back(tracer.totals(id).self_alloc_bytes);
    }
    if (passes == 0) {
      first_allocs = allocs;
      if (!args.trace_out.empty() && !tracer.WriteChromeTrace(args.trace_out)) {
        std::fprintf(stderr, "could not write %s\n", args.trace_out.c_str());
      }
    } else if (allocs != first_allocs) {
      failures.push_back("traced pass " + std::to_string(passes) +
                         ": allocation counts differ from the first pass");
    }
    if (run.wall_s < best.run.wall_s) {
      best.run = std::move(run);
      best.totals.clear();
      for (int id = 0; id < perfbench::kNumSpans; ++id) {
        best.totals.push_back(tracer.totals(id));
      }
      best.predict_ns = tracer.samples(perfbench::kSpanPredict);
    }
    ++passes;
  }

  // Work counts of the fastest pass.
  const MirrorRun& run = best.run;
  const auto& t = best.totals;
  auto total_ns = [&](int id) { return static_cast<double>(t[id].total_ns); };
  auto self_ns = [&](int id) { return static_cast<double>(t[id].self_ns); };
  auto count = [&](int id) { return static_cast<double>(t[id].count); };
  auto self_allocs = [&](int id) {
    return static_cast<double>(t[id].self_allocs);
  };
  auto self_bytes = [&](int id) {
    return static_cast<double>(t[id].self_alloc_bytes);
  };
  int64_t boundaries = 0;
  int64_t reused = 0;
  int64_t frames_scored = 0;
  int64_t frames_skipped = 0;
  int64_t orders = 0;
  int64_t attempts = 0;
  int64_t dropped = 0;
  int64_t replayed = 0;
  for (const perfbench::MirrorStream& s : run.streams) {
    boundaries += s.marshaller.horizons_predicted;
    reused += s.marshaller.horizons_reused;
    frames_scored += s.marshaller.frames_scored;
    frames_skipped += s.marshaller.frames_skipped;
    orders += s.relay.orders_submitted;
    attempts += s.relay.attempts;
    dropped += s.relay.orders_dropped;
    replayed += s.relay.orders_replayed;
  }
  const double records = static_cast<double>(run.requests);
  const double flushes = static_cast<double>(run.batches);
  const double frames = static_cast<double>(run.frames_pushed);
  const double wall_ns = run.wall_s * 1e9;
  const fleet::StreamSettings s0 = runner.DeriveStreamSettings(0);
  const auto& model = config.runner.model_template;
  const double mflops_per_record = eventhit::sched::EstimateForwardMflops(
      s0.spec.collection_window, static_cast<int>(s0.spec.FeatureDim()),
      static_cast<int>(model.lstm_hidden), static_cast<int>(model.shared_dim),
      static_cast<int>(model.event_hidden),
      static_cast<int>(w.task.event_indices.size()), s0.spec.horizon);
  std::vector<double> predict_us;
  for (const int64_t ns : best.predict_ns) {
    predict_us.push_back(static_cast<double>(ns) / 1e3);
  }

  // The span table: self times sum to the pass wall; the root's own self
  // time is the part no layer span covers.
  std::printf("traced passes %d; fastest %.4f s vs untraced Run() %.4f s\n",
              passes, run.wall_s, untraced_wall);
  std::printf("%-22s %9s %11s %11s %7s %11s %13s\n", "span", "count",
              "total ms", "self ms", "self%", "self allocs", "self bytes");
  double layer_self_ns = 0.0;
  for (int id = 0; id < perfbench::kNumSpans; ++id) {
    if (id != perfbench::kSpanRun) layer_self_ns += self_ns(id);
    std::printf("%-22s %9lld %11.3f %11.3f %6.2f%% %11lld %13lld\n",
                tracer.names()[static_cast<size_t>(id)].c_str(),
                static_cast<long long>(t[id].count), total_ns(id) / 1e6,
                self_ns(id) / 1e6, 100.0 * self_ns(id) / wall_ns,
                static_cast<long long>(t[id].self_allocs),
                static_cast<long long>(t[id].self_alloc_bytes));
  }
  std::printf("layer self times cover %.2f%% of the pass wall\n",
              100.0 * layer_self_ns / wall_ns);
  for (const std::string& failure : failures) {
    std::printf("GATE FAILED: %s\n", failure.c_str());
  }

  using namespace perfbench;  // Span ids.
  const double audited = count(kSpanTruthLookup);
  const std::vector<Metric> out = {
      {"sim.generate_s", total_ns(kSpanSimGenerate) / 1e9, "s"},
      {"sim.generate_share", total_ns(kSpanSimGenerate) / wall_ns, "ratio"},
      {"fleet.stream_init_us", Per(self_ns(kSpanStreamInit), count(kSpanStreamInit)) / 1e3, "us"},
      {"fleet.handoff_ns_per_request", Per(total_ns(kSpanHandoff), records), "ns"},
      {"fleet.handoff_allocs_per_request", Per(self_allocs(kSpanHandoff), records), "count"},
      {"fleet.flush_assembly_us", Per(total_ns(kSpanFlushAssembly), flushes) / 1e3, "us"},
      {"fleet.flush_assembly_allocs_per_flush", Per(self_allocs(kSpanFlushAssembly), flushes), "count"},
      {"fleet.batch_fill", Per(records, flushes), "count"},
      {"fleet.flush_full", static_cast<double>(run.flush_full), "count"},
      {"fleet.flush_deadline", static_cast<double>(run.flush_deadline), "count"},
      {"fleet.flush_final", static_cast<double>(run.flush_final), "count"},
      {"fleet.flush_tick_share", Per(static_cast<double>(run.flush_ticks), static_cast<double>(run.ticks)), "ratio"},
      {"fleet.request_wait_ticks_p50", perfbench::Percentile(run.wait_ticks, 0.50), "ticks"},
      {"fleet.request_wait_ticks_p99", perfbench::Percentile(run.wait_ticks, 0.99), "ticks"},
      {"fleet.allocs_per_boundary", Per(static_cast<double>(t[kSpanTick].total_allocs), static_cast<double>(boundaries)), "count"},
      {"fleet.alloc_bytes_per_boundary", Per(static_cast<double>(t[kSpanTick].total_alloc_bytes), static_cast<double>(boundaries)), "B"},
      {"marshaller.push_ns_per_frame", Per(self_ns(kSpanPush), frames), "ns"},
      {"marshaller.push_allocs_per_frame", Per(self_allocs(kSpanPush), frames), "count"},
      {"marshaller.complete_us_per_boundary", Per(self_ns(kSpanComplete), count(kSpanComplete)) / 1e3, "us"},
      {"marshaller.complete_allocs_per_boundary", Per(self_allocs(kSpanComplete), count(kSpanComplete)), "count"},
      {"sched.reused_share", Per(static_cast<double>(reused), static_cast<double>(boundaries)), "ratio"},
      {"sched.frames_skipped_share", Per(static_cast<double>(frames_skipped), static_cast<double>(frames_scored + frames_skipped)), "ratio"},
      {"nn.predict_us_per_record", Per(total_ns(kSpanPredict), records) / 1e3, "us"},
      {"nn.predict_us_per_flush_p50", perfbench::Percentile(predict_us, 0.50), "us"},
      {"nn.predict_us_per_flush_p99", perfbench::Percentile(predict_us, 0.99), "us"},
      {"nn.predict_allocs_per_flush", Per(self_allocs(kSpanPredict), flushes), "count"},
      // Computed from the model's MFLOP estimate: MFLOP per ns = 1e6 GFLOP/s.
      {"nn.gflops_achieved", 1e6 * Per(mflops_per_record * records, total_ns(kSpanPredict)), "GFLOP/s"},
      {"strategy.decide_us_per_boundary", Per(total_ns(kSpanDecide), count(kSpanDecide)) / 1e3, "us"},
      {"strategy.decide_allocs_per_boundary", Per(self_allocs(kSpanDecide), count(kSpanDecide)), "count"},
      {"relay.submit_us_per_order", Per(self_ns(kSpanRelaySubmit), count(kSpanRelaySubmit)) / 1e3, "us"},
      {"relay.submit_allocs_per_order", Per(self_allocs(kSpanRelaySubmit), count(kSpanRelaySubmit)), "count"},
      {"relay.advance_us_per_boundary", Per(total_ns(kSpanRelayAdvance), count(kSpanRelayAdvance)) / 1e3, "us"},
      {"relay.attempts_per_order", Per(static_cast<double>(attempts), static_cast<double>(orders)), "count"},
      {"relay.dropped_share", Per(static_cast<double>(dropped), static_cast<double>(orders)), "ratio"},
      {"relay.replayed_share", Per(static_cast<double>(replayed), static_cast<double>(orders)), "ratio"},
      {"truth.lookup_us_per_boundary", Per(total_ns(kSpanTruthLookup), audited) / 1e3, "us"},
      {"truth.allocs_per_boundary", Per(self_allocs(kSpanTruthLookup), audited), "count"},
      {"truth.alloc_bytes_per_boundary", Per(self_bytes(kSpanTruthLookup), audited), "B"},
      {"audit.observe_us_per_boundary", Per(self_ns(kSpanAuditObserve), count(kSpanAuditObserve)) / 1e3, "us"},
      {"audit.allocs_per_boundary", Per(self_allocs(kSpanAuditObserve), count(kSpanAuditObserve)), "count"},
      {"setup.build_env_s", build_env_s, "s"},
      {"setup.train_s", train_s, "s"},
      {"trace.untraced_wall_s", untraced_wall, "s"},
      {"trace.traced_wall_s", run.wall_s, "s"},
      {"trace.overhead_share", (run.wall_s - untraced_wall) / untraced_wall, "ratio"},
      {"trace.residual_share", self_ns(kSpanRun) / wall_ns, "ratio"},
  };
  const bool correct = failures.empty();
  perfbench::PrintResult(correct, boundaries,
                         static_cast<int64_t>(failures.size()), out);
  return correct ? 0 : 1;
}
