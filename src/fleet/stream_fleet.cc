#include "fleet/stream_fleet.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/check.h"
#include "common/fnv.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "fleet/dynamic_batcher.h"
#include "fleet/shard_arena.h"
#include "fleet/stream_pipeline.h"
#include "obs/schema.h"
#include "sim/datasets.h"
#include "sim/skip_kernels.h"
#include "sim/synthetic_video.h"

namespace eventhit::fleet {
namespace {

// Seed-split salts for the per-stream component streams.
constexpr uint64_t kVideoSalt = 1;
constexpr uint64_t kCloudSalt = 2;
constexpr uint64_t kRelaySalt = 3;
constexpr uint64_t kPhaseSalt = 5;
constexpr uint64_t kMixSalt = 6;

// Digest-fold / comparison bits of one listed field.
template <typename T>
uint64_t FieldBits(T v) {
  if constexpr (std::is_floating_point_v<T>) {
    return std::bit_cast<uint64_t>(v);
  } else {
    return static_cast<uint64_t>(v);
  }
}

std::vector<uint64_t> ResultFieldBits(const FleetStreamResult& r) {
  std::vector<uint64_t> bits;
  ForEachResultField(r, [&bits](auto v) { bits.push_back(FieldBits(v)); });
  return bits;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

}  // namespace

// The marshaller's windows and the boundary truth lookups (audit, recal)
// both read the M frames ending at a boundary; the cloud reads the
// timeline.
sim::FrameSelection StreamVideoSelection(const StreamSettings& s) {
  const int64_t m = s.spec.collection_window;
  const int64_t h = s.spec.horizon;
  return sim::FrameSelection{m, h, m + (s.push_frames - m) / h * h};
}

// A resident stream of a wave: its video, its pipeline and the request it
// hands to the batcher. Lives in a ShardArena slot so adjacent streams
// never share a cache line while parallel phases mutate them.
struct StreamFleet::Shard {
  std::unique_ptr<sim::SyntheticVideo> video;
  std::optional<StreamPipeline> pipeline;
  data::Record pending_record;  // Scratch between push and enqueue.
};

uint64_t StateDigest(const FleetStreamResult& result) {
  uint64_t h = kFnvOffset;
  ForEachResultField(result,
                     [&h](auto v) { h = FnvU64(h, FieldBits(v)); });
  return h;
}

bool SameStreamResult(const FleetStreamResult& a, const FleetStreamResult& b) {
  return a.stream_index == b.stream_index &&
         a.state_digest == b.state_digest &&
         ResultFieldBits(a) == ResultFieldBits(b);
}

StreamFleet::StreamFleet(const data::Task& task, const FleetConfig& config,
                         obs::MetricsRegistry* metrics,
                         obs::TraceBuffer* trace)
    : task_(task),
      config_(config),
      metrics_(metrics != nullptr ? metrics
                                  : &obs::MetricsRegistry::Global()),
      trace_(trace) {
  EVENTHIT_CHECK_GT(config_.num_streams, 0);
  EVENTHIT_CHECK_GT(config_.wave_size, 0);
  threads_ = config_.threads <= 0 ? ThreadPool::DefaultThreads()
                                  : config_.threads;

  stream_metrics_ = std::make_unique<obs::MetricsRegistry>();
  stream_log_ = std::make_unique<obs::Logger>();
  stream_log_->set_min_level(obs::LogLevel::kError);

  // One shared model for the whole fleet, trained on the task's canonical
  // environment (training is independent of the per-stream specs).
  env_ = std::make_unique<eval::TaskEnvironment>(
      eval::TaskEnvironment::Build(task_, config_.runner));
  const ExecutionContext train_ctx(threads_, config_.runner.seed);
  trained_ = std::make_unique<eval::TrainedEventHit>(
      eval::TrainEventHit(*env_, config_.runner, 0.5, train_ctx));

  streams_completed_metric_ =
      metrics_->GetCounter(obs::names::kFleetStreamsCompleted);
  frames_pushed_metric_ =
      metrics_->GetCounter(obs::names::kFleetFramesPushed);
  requests_metric_ =
      metrics_->GetCounter(obs::names::kFleetRequestsSubmitted);
  batches_metric_ = metrics_->GetCounter(obs::names::kFleetBatchesFlushed);
  flush_full_metric_ =
      metrics_->GetCounter(obs::names::kFleetBatchesFlushFull);
  flush_deadline_metric_ =
      metrics_->GetCounter(obs::names::kFleetBatchesFlushDeadline);
  flush_final_metric_ =
      metrics_->GetCounter(obs::names::kFleetBatchesFlushFinal);
  budget_breaches_metric_ =
      metrics_->GetCounter(obs::names::kFleetBudgetBreaches);
  streams_active_metric_ =
      metrics_->GetGauge(obs::names::kFleetStreamsActive);
  budget_spend_metric_ =
      metrics_->GetGauge(obs::names::kFleetBudgetSpendUsd);
  batch_fill_metric_ = metrics_->GetHistogram(obs::names::kFleetBatchFill,
                                              obs::BatchSizeBounds());
  request_delay_metric_ = metrics_->GetHistogram(
      obs::names::kFleetRequestDelayTicks, obs::DelayTickBounds());
}

StreamFleet::~StreamFleet() = default;

StreamSettings StreamFleet::DeriveStreamSettings(int stream_index) const {
  EVENTHIT_CHECK_GE(stream_index, 0);
  EVENTHIT_CHECK_LT(stream_index, config_.num_streams);
  StreamSettings s;
  s.stream_index = stream_index;
  s.stream_seed =
      SplitSeed(config_.base_seed, static_cast<uint64_t>(stream_index) + 1);
  s.video_seed = SplitSeed(s.stream_seed, kVideoSalt);
  s.cloud_seed = SplitSeed(s.stream_seed, kCloudSalt);
  s.relay_seed = SplitSeed(s.stream_seed, kRelaySalt);
  s.fault_seed =
      SplitSeed(config_.fault_seed, static_cast<uint64_t>(stream_index));
  s.phase = config_.stagger_phases
                ? static_cast<int64_t>(SplitSeed(s.stream_seed, kPhaseSalt) %
                                       static_cast<uint64_t>(kStaggerWindow))
                : 0;
  // A seed-derived scale of the event mean gaps gives tenants distinct
  // event mixes.
  static constexpr double kGapScales[] = {0.75, 1.0, 1.5};
  s.gap_scale = kGapScales[SplitSeed(s.stream_seed, kMixSalt) % 3];
  s.spec = sim::MakeDatasetSpec(task_.dataset);
  if (config_.frames_per_stream > 0) {
    s.spec.num_frames = config_.frames_per_stream;
  }
  for (auto& event : s.spec.events) {
    event.mean_gap *= s.gap_scale;
  }
  const int64_t margin = static_cast<int64_t>(s.spec.horizon) +
                         static_cast<int64_t>(s.spec.collection_window);
  EVENTHIT_CHECK_GT(s.spec.num_frames, margin);
  s.push_frames = s.spec.num_frames - s.spec.horizon;
  return s;
}

FleetRunResult StreamFleet::Run() {
  const auto run_start = std::chrono::steady_clock::now();
  const ExecutionContext ctx(threads_, config_.base_seed);
  // The accountant belongs to this run: earlier Run()/RunStreamSolo calls
  // on the same fleet must not carry their spend into it.
  budget_spend_microusd_.store(0, std::memory_order_relaxed);

  FleetRunResult run;
  run.streams.resize(static_cast<size_t>(config_.num_streams));
  FleetRunStats& stats = run.stats;
  stats.streams = config_.num_streams;

  std::vector<double> tick_us;
  std::vector<double> frame_us;
  int64_t batch_fill_sum = 0;
  PipelineSinks sinks;
  sinks.metrics = stream_metrics_.get();
  sinks.log = stream_log_.get();
  sinks.spend_microusd = &budget_spend_microusd_;
  // Flush scratch, reused across every flush of the run. `scores` only
  // grows, so a warm entry's existence/occupancy vectors keep their
  // capacity and PredictBatched fills them without allocating; `records`
  // is emptied after each PredictBatched.
  std::vector<data::Record> records;
  std::vector<core::EventScores> scores;
  std::vector<std::pair<size_t, size_t>> groups;  // [begin, end) per shard

  for (int wave_start = 0; wave_start < config_.num_streams;
       wave_start += config_.wave_size) {
    const int wave_n =
        std::min(config_.wave_size, config_.num_streams - wave_start);
    ShardArena<Shard> arena(static_cast<size_t>(wave_n));
    // One work item generates the videos of up to sim::kSkipLanes streams
    // together, so their skipped frames step in one set of lanes.
    const size_t wave_groups =
        (static_cast<size_t>(wave_n) + sim::kSkipLanes - 1) / sim::kSkipLanes;
    ctx.ParallelFor(wave_groups, [&](size_t g) {
      const size_t first = g * sim::kSkipLanes;
      const size_t last =
          std::min(static_cast<size_t>(wave_n), first + sim::kSkipLanes);
      std::vector<StreamSettings> settings;
      std::vector<sim::VideoSource> sources;  // Point into `settings`.
      settings.reserve(last - first);
      sources.reserve(last - first);
      for (size_t i = first; i < last; ++i) {
        const int stream = wave_start + static_cast<int>(i);
        settings.push_back(DeriveStreamSettings(stream));
        sources.push_back({&settings.back().spec, settings.back().video_seed});
        // Per-tenant Perfetto track on the simulated timeline.
        if (trace_ != nullptr) {
          trace_->SetThreadName(obs::kSimulatedPid, stream,
                                "tenant" + std::to_string(stream));
        }
      }
      const sim::FrameSelection selection = StreamVideoSelection(settings[0]);
      std::vector<sim::SyntheticVideo> videos =
          sim::SyntheticVideo::GenerateGroup(sources, selection);
      for (size_t j = 0; j < settings.size(); ++j) {
        EVENTHIT_CHECK(StreamVideoSelection(settings[j]) == selection);
        Shard& shard = arena[first + j];
        // A copy, not a move: the copy allocates the video's rows next to
        // the pipeline's allocations that follow. Moved, a group's four
        // videos stay together, away from their pipelines, and the tick
        // loop's window pushes, which read both, ran about 4% slower
        // (perfbench tick_p50_us).
        shard.video = std::make_unique<sim::SyntheticVideo>(videos[j]);
        shard.pipeline.emplace(config_, std::move(settings[j]), task_,
                               *trained_, *shard.video, /*first_frame=*/0,
                               sinks);
      }
    });

    // Tick bounds and per-tick active-stream counts (difference array).
    int64_t max_ticks = 0;
    for (size_t i = 0; i < arena.size(); ++i) {
      const StreamSettings& s = arena[i].pipeline->settings();
      max_ticks = std::max(max_ticks, s.phase + s.push_frames);
    }
    std::vector<int64_t> active_delta(static_cast<size_t>(max_ticks) + 1, 0);
    for (size_t i = 0; i < arena.size(); ++i) {
      const StreamSettings& s = arena[i].pipeline->settings();
      active_delta[static_cast<size_t>(s.phase)] += 1;
      active_delta[static_cast<size_t>(s.phase + s.push_frames)] -= 1;
    }

    DynamicBatcher batcher(config_.batch_size,
                           config_.max_batch_delay_ticks);
    // fresh[i] != 0: this tick's push left a window in shard i. The flags
    // live outside the shards so the serial scan reads wave_n bytes, not
    // one cache line per shard.
    std::vector<uint8_t> fresh(static_cast<size_t>(wave_n), 0);

    int64_t active = 0;
    for (int64_t tick = 0; tick < max_ticks; ++tick) {
      const auto tick_start = std::chrono::steady_clock::now();
      active += active_delta[static_cast<size_t>(tick)];
      streams_active_metric_->Set(static_cast<double>(active));

      // Push phase: every resident stream advances one local frame; a
      // prediction boundary leaves its window in the shard.
      ctx.ParallelFor(static_cast<size_t>(wave_n), [&](size_t i) {
        Shard& shard = arena[i];
        StreamPipeline& pipeline = *shard.pipeline;
        const int64_t frame = tick - pipeline.settings().phase;
        if (frame < 0 || frame >= pipeline.settings().push_frames) return;
        EVENTHIT_CHECK_EQ(frame, pipeline.next_frame());
        if (pipeline.PushFrame(&shard.pending_record)) fresh[i] = 1;
      });

      // Batching phase (serial): the push barrier published every shard;
      // enqueueing in slot order makes the batch order canonical.
      int64_t enqueued = 0;
      for (size_t i = 0; i < fresh.size(); ++i) {
        if (fresh[i] == 0) continue;
        fresh[i] = 0;
        Shard& shard = arena[i];
        InferenceRequest request;
        request.shard_slot = static_cast<int>(i);
        request.anchor_frame = shard.pending_record.frame;
        request.enqueue_tick = tick;
        request.record = std::move(shard.pending_record);
        batcher.Enqueue(std::move(request));
        ++enqueued;
      }
      requests_metric_->Add(enqueued);
      stats.requests += enqueued;

      const bool final_tick = tick == max_ticks - 1;
      for (BatchFlush& flush : batcher.TakeReady(tick, final_tick)) {
        obs::TraceSpan span(trace_, obs::names::kSpanFleetBatch, "fleet");
        const size_t n = flush.requests.size();
        // Batch ordinal within this run — stamped onto every member's
        // provenance record (never the digest: batch placement is a fleet
        // scheduling artifact, not part of the clock-pure chain).
        BatchPlacement placement;
        placement.batch_id = stats.batches++;
        batches_metric_->Add(1);
        batch_fill_metric_->Observe(static_cast<double>(n));
        batch_fill_sum += static_cast<int64_t>(n);
        switch (flush.reason) {
          case FlushReason::kFull:
            placement.flush_reason = obs::kProvFlushFull;
            flush_full_metric_->Add(1);
            ++stats.flush_full;
            break;
          case FlushReason::kDeadline:
            placement.flush_reason = obs::kProvFlushDeadline;
            flush_deadline_metric_->Add(1);
            ++stats.flush_deadline;
            break;
          case FlushReason::kFinal:
            placement.flush_reason = obs::kProvFlushFinal;
            flush_final_metric_->Add(1);
            ++stats.flush_final;
            break;
        }
        for (auto& request : flush.requests) {
          request_delay_metric_->Observe(
              static_cast<double>(tick - request.enqueue_tick));
          records.push_back(std::move(request.record));
        }
        if (scores.size() < n) scores.resize(n);
        trained_->model->PredictBatched(records.data(), n, scores.data(),
                                        ws_);
        records.clear();  // frees the scored windows; keeps the capacity
        // Group completions by shard (order within a shard is preserved),
        // then apply shard groups concurrently: different groups touch
        // disjoint pipelines, and each decides with its own strategy.
        groups.clear();
        for (size_t j = 0; j < n;) {
          size_t end = j + 1;
          while (end < n && flush.requests[end].shard_slot ==
                                flush.requests[j].shard_slot) {
            ++end;
          }
          groups.emplace_back(j, end);
          j = end;
        }
        ctx.ParallelFor(groups.size(), [&](size_t g) {
          for (size_t j = groups[g].first; j < groups[g].second; ++j) {
            const InferenceRequest& request = flush.requests[j];
            BatchPlacement member = placement;
            member.residency_ticks = tick - request.enqueue_tick;
            arena[static_cast<size_t>(request.shard_slot)]
                .pipeline->Complete(request.anchor_frame, scores[j], member);
          }
        });
      }

      // Serial tick boundary: frame accounting and the budget accountant.
      frames_pushed_metric_->Add(active);
      stats.frames_pushed += active;
      const int64_t spend =
          budget_spend_microusd_.load(std::memory_order_relaxed);
      budget_spend_metric_->Set(static_cast<double>(spend) * 1e-6);
      if (config_.budget_cap_microusd > 0 &&
          spend >= config_.budget_cap_microusd &&
          stats.budget_breach_tick < 0) {
        stats.budget_breach_tick = tick;
        budget_breaches_metric_->Add(1);
      }

      ++stats.ticks;
      const double us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - tick_start)
                            .count();
      tick_us.push_back(us);
      frame_us.push_back(us /
                         static_cast<double>(std::max<int64_t>(1, active)));
    }

    EVENTHIT_CHECK_EQ(batcher.pending(), 0u);
    ctx.ParallelFor(static_cast<size_t>(wave_n), [&](size_t i) {
      run.streams[static_cast<size_t>(wave_start) + i] =
          arena[i].pipeline->Finish();
    });
    streams_completed_metric_->Add(wave_n);
    streams_active_metric_->Set(0.0);
  }

  // Fold the per-tenant audit totals into the exported registry, serially
  // in stream order so the snapshot (values AND exemplars — the last
  // offending stream's last offending decision id) is deterministic at any
  // thread count. The per-stream auditors themselves write to the private
  // stream registry; this is the fleet-wide aggregate a scrape sees.
  obs::Counter* fleet_audit_misses =
      metrics_->GetCounter(obs::names::kAuditMisses);
  obs::Counter* fleet_audit_miscovered =
      metrics_->GetCounter(obs::names::kAuditMiscovered);
  obs::Counter* fleet_audit_breaches =
      metrics_->GetCounter(obs::names::kAuditBreaches);
  for (const FleetStreamResult& result : run.streams) {
    stats.total_cost_usd += result.invoice.total_cost_usd;
    if (result.audit_breaches > 0) ++stats.streams_with_breaches;
    // A stream's last offending id is -1 exactly when it has no offence
    // (or no ledger), so the exemplar is only recorded where one exists.
    fleet_audit_misses->Add(result.audit_misses, result.last_miss_decision);
    fleet_audit_miscovered->Add(result.audit_miscovered,
                                result.last_miscover_decision);
    fleet_audit_breaches->Add(result.audit_breaches,
                              result.last_breach_decision);
  }
  stats.budget_spend_microusd =
      budget_spend_microusd_.load(std::memory_order_relaxed);
  stats.batch_fill_mean =
      stats.batches > 0
          ? static_cast<double>(batch_fill_sum) /
                static_cast<double>(stats.batches)
          : 0.0;
  stats.elapsed_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - run_start)
                              .count();
  if (stats.elapsed_seconds > 0.0) {
    stats.streams_per_sec =
        static_cast<double>(stats.streams) / stats.elapsed_seconds;
    stats.frames_per_sec =
        static_cast<double>(stats.frames_pushed) / stats.elapsed_seconds;
  }
  stats.p50_tick_us = Percentile(tick_us, 0.50);
  stats.p99_tick_us = Percentile(tick_us, 0.99);
  stats.p50_frame_us = Percentile(frame_us, 0.50);
  stats.p99_frame_us = Percentile(frame_us, 0.99);
  return run;
}

FleetStreamResult StreamFleet::RunStreamSolo(int stream_index) {
  const StreamSettings settings = DeriveStreamSettings(stream_index);
  const sim::SyntheticVideo video = sim::SyntheticVideo::Generate(
      settings.spec, settings.video_seed, StreamVideoSelection(settings));
  PipelineSinks sinks;
  sinks.metrics = stream_metrics_.get();
  sinks.log = stream_log_.get();
  StreamPipeline pipeline(config_, settings, task_, *trained_, video,
                          /*first_frame=*/0, sinks);
  return RunInline(pipeline, *trained_->model);
}

namespace {

std::string Fixed(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

}  // namespace

FleetHealthReport BuildHealthReport(const FleetRunResult& run) {
  FleetHealthReport report;
  report.streams_total = static_cast<int64_t>(run.streams.size());
  report.streams.reserve(run.streams.size());
  for (const FleetStreamResult& result : run.streams) {
    StreamHealth h;
    h.stream_index = result.stream_index;
    h.boundaries = result.provenance_boundaries;
    const int64_t scored = result.marshaller.horizons_predicted;
    const int64_t total = scored + result.marshaller.horizons_reused;
    h.duty_cycle = total > 0
                       ? static_cast<double>(scored) /
                             static_cast<double>(total)
                       : 1.0;
    h.miss_rate = result.audit_positives > 0
                      ? static_cast<double>(result.audit_misses) /
                            static_cast<double>(result.audit_positives)
                      : 0.0;
    h.miscover_rate =
        result.audit_endpoints > 0
            ? static_cast<double>(result.audit_miscovered) /
                  static_cast<double>(result.audit_endpoints)
            : 0.0;
    h.breaches = result.audit_breaches;
    h.recal_swaps = result.recal_swaps;
    h.relay_dropped_orders = result.relay.orders_dropped;
    h.relay_drop_rate =
        result.relay.orders_submitted > 0
            ? static_cast<double>(result.relay.orders_dropped) /
                  static_cast<double>(result.relay.orders_submitted)
            : 0.0;
    h.breaker_state = result.provenance_rollup.last_breaker_state;
    h.residency_p50 = result.provenance_rollup.ResidencyPercentile(0.50);
    h.residency_p99 = result.provenance_rollup.ResidencyPercentile(0.99);
    h.spend_usd = result.invoice.total_cost_usd;
    // Triage score: a latched breach outranks everything, a non-closed
    // breaker outranks rate pressure, and the continuous terms order the
    // remainder. Every input is deterministic, so the sort is too.
    h.badness = 1e6 * static_cast<double>(h.breaches) +
                1e5 * (h.breaker_state != 0 ? 1.0 : 0.0) +
                1e4 * h.miss_rate + 1e4 * h.miscover_rate +
                1e3 * h.relay_drop_rate + h.residency_p99;

    report.streams_with_breaches += h.breaches > 0 ? 1 : 0;
    report.streams_breaker_open += h.breaker_state != 0 ? 1 : 0;
    report.total_breaches += h.breaches;
    report.total_relay_dropped += h.relay_dropped_orders;
    report.total_recal_swaps += h.recal_swaps;
    report.total_spend_usd += h.spend_usd;
    report.mean_duty_cycle += h.duty_cycle;
    report.worst_miss_rate = std::max(report.worst_miss_rate, h.miss_rate);
    report.worst_miscover_rate =
        std::max(report.worst_miscover_rate, h.miscover_rate);
    report.streams.push_back(h);
  }
  if (report.streams_total > 0) {
    report.mean_duty_cycle /= static_cast<double>(report.streams_total);
  }
  std::sort(report.streams.begin(), report.streams.end(),
            [](const StreamHealth& a, const StreamHealth& b) {
              if (a.badness != b.badness) return a.badness > b.badness;
              return a.stream_index < b.stream_index;
            });
  return report;
}

std::string HealthReportText(const FleetHealthReport& report, int top_n) {
  std::string out;
  out += "fleet health: " + std::to_string(report.streams_total) +
         " streams, " + std::to_string(report.streams_with_breaches) +
         " with breaches, " + std::to_string(report.streams_breaker_open) +
         " with breaker not closed\n";
  out += "  total breaches " + std::to_string(report.total_breaches) +
         ", relay orders dropped " +
         std::to_string(report.total_relay_dropped) + ", recal swaps " +
         std::to_string(report.total_recal_swaps) + "\n";
  out += "  mean duty cycle " + Fixed(report.mean_duty_cycle, 3) +
         ", worst miss rate " + Fixed(report.worst_miss_rate, 3) +
         ", worst miscoverage " + Fixed(report.worst_miscover_rate, 3) +
         ", spend $" + Fixed(report.total_spend_usd, 4) + "\n";
  const size_t rows = std::min<size_t>(
      report.streams.size(),
      static_cast<size_t>(std::max(0, top_n)));
  if (rows == 0) return out;
  out += "  worst " + std::to_string(rows) + " streams:\n";
  out += "    stream  breach  brk        duty   miss   miscov  drop   "
         "res_p99  swaps\n";
  for (size_t i = 0; i < rows; ++i) {
    const StreamHealth& h = report.streams[i];
    char line[160];
    std::snprintf(line, sizeof(line),
                  "    %-7d %-7lld %-10s %-6.3f %-6.3f %-7.3f %-6.3f "
                  "%-8.1f %lld\n",
                  h.stream_index, static_cast<long long>(h.breaches),
                  obs::ProvenanceBreakerName(h.breaker_state), h.duty_cycle,
                  h.miss_rate, h.miscover_rate, h.relay_drop_rate,
                  h.residency_p99, static_cast<long long>(h.recal_swaps));
    out += line;
  }
  return out;
}

std::string StreamHealthJson(const StreamHealth& h) {
  std::string out = "{";
  auto field = [&out](const char* key, const std::string& value) {
    if (out.size() > 1) out += ',';
    out += '"';
    out += key;
    out += "\":";
    out += value;
  };
  field("stream", std::to_string(h.stream_index));
  field("boundaries", std::to_string(h.boundaries));
  field("duty_cycle", Fixed(h.duty_cycle, 6));
  field("miss_rate", Fixed(h.miss_rate, 6));
  field("miscover_rate", Fixed(h.miscover_rate, 6));
  field("breaches", std::to_string(h.breaches));
  field("recal_swaps", std::to_string(h.recal_swaps));
  field("relay_dropped_orders", std::to_string(h.relay_dropped_orders));
  field("relay_drop_rate", Fixed(h.relay_drop_rate, 6));
  field("breaker_state",
        "\"" + std::string(obs::ProvenanceBreakerName(h.breaker_state)) +
            "\"");
  field("residency_p50", Fixed(h.residency_p50, 1));
  field("residency_p99", Fixed(h.residency_p99, 1));
  field("spend_usd", Fixed(h.spend_usd, 6));
  field("badness", Fixed(h.badness, 3));
  out += '}';
  return out;
}

}  // namespace eventhit::fleet
