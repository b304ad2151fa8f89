#include "fleet/stream_fleet.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/check.h"
#include "common/fnv.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/vector_fifo.h"
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

constexpr int64_t kNoWake = std::numeric_limits<int64_t>::max();

// The fleet tick of the stream's next frame whose push does more than
// count, or kNoWake when every frame it has left is idle.
int64_t WakeTick(const StreamPipeline& pipeline) {
  const StreamSettings& s = pipeline.settings();
  const int64_t frame = pipeline.next_frame() + pipeline.IdleFramesAhead();
  return frame < s.push_frames ? s.phase + frame : kNoWake;
}

}  // namespace

// The marshaller's windows and the recal truth records read the M frames
// ending at a scored boundary; the audit and the cloud read the timeline.
sim::FrameSelection StreamVideoSelection(
    const StreamSettings& s, const sched::CollectPolicySpec& policy) {
  const int64_t m = s.spec.collection_window;
  const int64_t stride =
      std::max<int64_t>(1, sched::MakeCollectPolicy(policy)->FixedStride());
  const int64_t period = stride * s.spec.horizon;
  return sim::FrameSelection{m, period,
                             m + (s.push_frames - m) / period * period};
}

// A resident stream of a wave: its video and its pipeline. Lives in a
// ShardArena slot so adjacent streams never share a cache line while
// parallel phases mutate them.
struct StreamFleet::Shard {
  std::unique_ptr<sim::SyntheticVideo> video;
  std::optional<StreamPipeline> pipeline;
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
  // Every series the streams report is registered here, once: Run() and
  // RunStreamSolo() then build pipelines without a by-name lookup.
  StreamPipeline::ResolveMetrics(config_, task_, StreamSinks());

  // One shared model for the whole fleet, trained on the task's canonical
  // environment (training is independent of the per-stream specs). Nothing
  // reads that world after calibration, so it is freed here rather than
  // held for the fleet's life, and its test split is never scored
  // (DESIGN.md §5g).
  {
    const eval::TaskEnvironment env =
        eval::TaskEnvironment::Build(task_, config_.runner);
    const ExecutionContext train_ctx(threads_, config_.runner.seed);
    trained_ = std::make_unique<eval::TrainedEventHit>(
        eval::TrainAndCalibrate(env, config_.runner, 0.5, train_ctx));
  }

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
  idle_ticks_metric_ = metrics_->GetCounter(obs::names::kFleetTicksIdle);
  streams_active_metric_ =
      metrics_->GetGauge(obs::names::kFleetStreamsActive);
  budget_spend_metric_ =
      metrics_->GetGauge(obs::names::kFleetBudgetSpendUsd);
  batch_fill_metric_ = metrics_->GetHistogram(obs::names::kFleetBatchFill,
                                              obs::BatchSizeBounds());
  request_delay_metric_ = metrics_->GetHistogram(
      obs::names::kFleetRequestDelayTicks, obs::DelayTickBounds());
  audit_misses_metric_ = metrics_->GetCounter(obs::names::kAuditMisses);
  audit_miscovered_metric_ =
      metrics_->GetCounter(obs::names::kAuditMiscovered);
  audit_breaches_metric_ = metrics_->GetCounter(obs::names::kAuditBreaches);
}

PipelineSinks StreamFleet::StreamSinks() {
  PipelineSinks sinks;
  sinks.metrics = stream_metrics_.get();
  sinks.log = stream_log_.get();
  return sinks;
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
  // The stream marshals at the M and H the shared model was trained at
  // (TaskEnvironment::Build honours the same overrides).
  if (config_.runner.collection_window_override > 0) {
    s.spec.collection_window = config_.runner.collection_window_override;
  }
  if (config_.runner.horizon_override > 0) {
    s.spec.horizon = config_.runner.horizon_override;
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
  PipelineSinks sinks = StreamSinks();
  sinks.spend_microusd = &budget_spend_microusd_;
  const core::EventHitModel& model = *trained_->model;
  const size_t hd = model.config().lstm_hidden;
  const size_t d = model.config().feature_dim;
  // Flush scratch, reused across every flush of the run. `scores` only
  // grows, so a warm entry's existence/occupancy vectors keep their
  // capacity and PredictHeads fills them without allocating.
  std::vector<core::EventScores> scores;
  std::vector<std::pair<size_t, size_t>> groups;  // [begin, end) per shard
  // Each waiting request's encoded window, a row of h then the last
  // frame, in enqueue order: the batcher flushes in that order, so a
  // flush's requests are the front rows. Requests are numbered (seq) in
  // the same order.
  const size_t row_width = hd + d;
  VectorFifo<float> encoded;
  int64_t enqueued_total = 0;
  int64_t flushed_total = 0;
  std::vector<size_t> stepping;  // Slots that step this tick, in order.

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
      const sched::CollectPolicySpec& policy = config_.runner.collect_policy;
      const sim::FrameSelection selection =
          StreamVideoSelection(settings[0], policy);
      std::vector<sim::SyntheticVideo> videos =
          sim::SyntheticVideo::GenerateGroup(sources, selection);
      for (size_t j = 0; j < settings.size(); ++j) {
        EVENTHIT_CHECK(StreamVideoSelection(settings[j], policy) == selection);
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
    tick_us.reserve(tick_us.size() + static_cast<size_t>(max_ticks));
    frame_us.reserve(frame_us.size() + static_cast<size_t>(max_ticks));
    // pushed[i]: what stream i's push did this tick (nothing unless it
    // pushed a window frame). wake[i]: the tick of its next frame whose
    // push does more than count. state_h/state_c: every stream's open
    // window LSTM state, batch-minor by slot ([hd x slots], column i is
    // stream i's). All live outside the shards so the serial phase reads
    // flat arrays, not one cache line per shard.
    const size_t slots = static_cast<size_t>(wave_n);
    std::vector<StreamPipeline::Push> pushed(slots);
    std::vector<int64_t> wake(slots);
    std::vector<float> state_h(hd * slots);
    std::vector<float> state_c(hd * slots);
    int64_t next_wake = kNoWake;
    for (size_t i = 0; i < slots; ++i) {
      wake[i] = WakeTick(*arena[i].pipeline);
      next_wake = std::min(next_wake, wake[i]);
    }
    stepping.reserve(slots);

    int64_t active = 0;
    int64_t idle_ticks = 0;
    for (int64_t tick = 0; tick < max_ticks; ++tick) {
      const auto tick_start = std::chrono::steady_clock::now();
      active += active_delta[static_cast<size_t>(tick)];
      streams_active_metric_->Set(static_cast<double>(active));

      if (tick < next_wake) {
        // No resident stream has a frame whose push does more than count:
        // they catch up on their next wake (or before Finish).
        ++idle_ticks;
      } else {
        // Push phase: each stream due this tick skips its idle frames and
        // pushes this tick's frame.
        ctx.ParallelFor(slots, [&](size_t i) {
          if (tick < wake[i]) return;
          StreamPipeline& pipeline = *arena[i].pipeline;
          pipeline.SkipIdleFrames(tick - pipeline.settings().phase -
                                  pipeline.next_frame());
          pushed[i] = pipeline.PushFrame();
          wake[i] = WakeTick(pipeline);
        });

        // Serial phase: the push barrier published every slot. Collect the
        // streams that pushed a window frame, in slot order.
        stepping.clear();
        next_wake = kNoWake;
        for (size_t i = 0; i < slots; ++i) {
          next_wake = std::min(next_wake, wake[i]);
          if (pushed[i].features != nullptr) stepping.push_back(i);
        }
        int64_t enqueued = 0;
        if (!stepping.empty()) {
          // Encode phase: one batched LSTM step advances every open window
          // by this tick's frame. A scored boundary's window is then
          // encoded; its request enters the batcher in slot order, so the
          // batch order is canonical.
          obs::TraceSpan span(trace_, obs::names::kSpanFleetEncode, "fleet");
          const size_t n = stepping.size();
          // When every slot steps, the state is already the step's layout.
          const bool whole = n == slots;
          ws_.Reset();
          float* x = ws_.Alloc(d * n);
          float* h = whole ? state_h.data() : ws_.Alloc(hd * n);
          float* c = whole ? state_c.data() : ws_.Alloc(hd * n);
          for (size_t b = 0; b < n; ++b) {
            const size_t i = stepping[b];
            const float* features = pushed[i].features;
            for (size_t j = 0; j < d; ++j) x[j * n + b] = features[j];
            if (!pushed[i].window_start) continue;
            for (size_t j = 0; j < hd; ++j) {
              state_h[j * slots + i] = 0.0f;
              state_c[j * slots + i] = 0.0f;
            }
          }
          // Gather and scatter row by row, so reads and writes both walk
          // one row at a time.
          if (!whole) {
            for (size_t j = 0; j < hd; ++j) {
              for (size_t b = 0; b < n; ++b) {
                h[j * n + b] = state_h[j * slots + stepping[b]];
                c[j * n + b] = state_c[j * slots + stepping[b]];
              }
            }
          }
          model.EncodeStep(x, n, h, c, ws_);
          if (!whole) {
            for (size_t j = 0; j < hd; ++j) {
              for (size_t b = 0; b < n; ++b) {
                state_h[j * slots + stepping[b]] = h[j * n + b];
                state_c[j * slots + stepping[b]] = c[j * n + b];
              }
            }
          }
          for (size_t b = 0; b < n; ++b) {
            const size_t i = stepping[b];
            const bool scored = pushed[i].scored;
            pushed[i] = StreamPipeline::Push();
            if (!scored) continue;
            for (size_t j = 0; j < hd; ++j) encoded.push_back(h[j * n + b]);
            for (size_t j = 0; j < d; ++j) encoded.push_back(x[j * n + b]);
            InferenceRequest request;
            request.shard_slot = static_cast<int>(i);
            request.seq = enqueued_total++;
            request.anchor_frame =
                tick - arena[i].pipeline->settings().phase;
            request.enqueue_tick = tick;
            batcher.Enqueue(std::move(request));
            ++enqueued;
          }
        }
        requests_metric_->Add(enqueued);
        stats.requests += enqueued;
      }

      const bool final_tick = tick == max_ticks - 1;
      for (BatchFlush& flush : batcher.TakeReadyInPlace(tick, final_tick)) {
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
        for (const InferenceRequest& request : flush.requests) {
          request_delay_metric_->Observe(
              static_cast<double>(tick - request.enqueue_tick));
        }
        // The heads score the front rows, gathered batch-minor.
        EVENTHIT_CHECK_EQ(flush.requests.front().seq, flushed_total);
        flushed_total += static_cast<int64_t>(n);
        ws_.Reset();
        float* h = ws_.Alloc(hd * n);
        float* x_last = ws_.Alloc(d * n);
        for (size_t b = 0; b < n; ++b) {
          for (size_t j = 0; j < hd; ++j) {
            h[j * n + b] = encoded[b * row_width + j];
          }
          for (size_t j = 0; j < d; ++j) {
            x_last[j * n + b] = encoded[b * row_width + hd + j];
          }
        }
        for (size_t k = 0; k < n * row_width; ++k) encoded.pop_front();
        if (scores.size() < n) scores.resize(n);
        model.PredictHeads(h, x_last, n, scores.data(), ws_);
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

    stats.idle_ticks += idle_ticks;
    idle_ticks_metric_->Add(idle_ticks);
    EVENTHIT_CHECK_EQ(batcher.pending(), 0u);
    EVENTHIT_CHECK(encoded.empty());
    ctx.ParallelFor(static_cast<size_t>(wave_n), [&](size_t i) {
      // Every frame a stream has left past its last wake is idle.
      StreamPipeline& pipeline = *arena[i].pipeline;
      pipeline.SkipIdleFrames(pipeline.settings().push_frames -
                              pipeline.next_frame());
      run.streams[static_cast<size_t>(wave_start) + i] = pipeline.Finish();
    });
    streams_completed_metric_->Add(wave_n);
    streams_active_metric_->Set(0.0);
  }

  // Fold the per-tenant audit totals into the exported registry, serially
  // in stream order so the snapshot (values AND exemplars — the last
  // offending stream's last offending decision id) is deterministic at any
  // thread count. The per-stream auditors themselves write to the private
  // stream registry; this is the fleet-wide aggregate a scrape sees.
  for (const FleetStreamResult& result : run.streams) {
    stats.total_cost_usd += result.invoice.total_cost_usd;
    if (result.audit_breaches > 0) ++stats.streams_with_breaches;
    // A stream's last offending id is -1 exactly when it has no offence
    // (or no ledger), so the exemplar is only recorded where one exists.
    audit_misses_metric_->Add(result.audit_misses, result.last_miss_decision);
    audit_miscovered_metric_->Add(result.audit_miscovered,
                                  result.last_miscover_decision);
    audit_breaches_metric_->Add(result.audit_breaches,
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
      settings.spec, settings.video_seed,
      StreamVideoSelection(settings, config_.runner.collect_policy));
  StreamPipeline pipeline(config_, settings, task_, *trained_, video,
                          /*first_frame=*/0, StreamSinks());
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
  std::string breaker = "\"";
  breaker += obs::ProvenanceBreakerName(h.breaker_state);
  breaker += '"';
  field("breaker_state", breaker);
  field("residency_p50", Fixed(h.residency_p50, 1));
  field("residency_p99", Fixed(h.residency_p99, 1));
  field("spend_usd", Fixed(h.spend_usd, 6));
  field("badness", Fixed(h.badness, 3));
  out += '}';
  return out;
}

}  // namespace eventhit::fleet
