// The stream fleet's determinism contract (DESIGN.md §5g): every stream's
// marshalled intervals, relay accounting, invoice and audit state must be
// byte-identical between the cross-stream batched fleet run and the same
// stream run solo with the same seed — at any thread count, batch size,
// wave size or flush timing. Plus unit coverage of the batcher's flush
// rules and the shard arena's alignment guarantee.
#include "fleet/stream_fleet.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/cloud_service.h"
#include "common/thread_pool.h"
#include "data/tasks.h"
#include "eval/runner.h"
#include "fleet/dynamic_batcher.h"
#include "fleet/shard_arena.h"
#include "fleet/stream_pipeline.h"
#include "obs/schema.h"
#include "obs/trace.h"
#include "sched/collect_policy.h"
#include "sim/synthetic_video.h"

namespace eventhit::fleet {
namespace {

// Cheap shared-model training + short streams: the contract is structural,
// so small numbers exercise it as well as big ones.
FleetConfig TestConfig() {
  FleetConfig config;
  config.num_streams = 6;
  config.base_seed = 77;
  config.frames_per_stream = 700;  // push 500 frames -> 3 horizons (H=200).
  config.batch_size = 4;
  config.max_batch_delay_ticks = 3;
  config.wave_size = 4;  // Forces a partial second wave.
  config.record_transcripts = true;
  config.runner.stream_frames_override = 30000;
  config.runner.train_records = 80;
  config.runner.calib_records = 120;
  config.runner.test_records = 60;
  config.runner.model_template.epochs = 4;
  config.runner.seed = 77;
  return config;
}

void ExpectSameTranscript(const StreamTranscript& a,
                          const StreamTranscript& b, int stream) {
  ASSERT_EQ(a.decisions.size(), b.decisions.size()) << "stream " << stream;
  for (size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_EQ(a.decisions[i].anchor, b.decisions[i].anchor);
    EXPECT_EQ(a.decisions[i].exists, b.decisions[i].exists);
    ASSERT_EQ(a.decisions[i].intervals.size(), b.decisions[i].intervals.size());
    for (size_t k = 0; k < a.decisions[i].intervals.size(); ++k) {
      EXPECT_EQ(a.decisions[i].intervals[k], b.decisions[i].intervals[k])
          << "stream " << stream << " decision " << i << " event " << k;
    }
  }
  ASSERT_EQ(a.deliveries.size(), b.deliveries.size()) << "stream " << stream;
  for (size_t i = 0; i < a.deliveries.size(); ++i) {
    EXPECT_EQ(a.deliveries[i].request_id, b.deliveries[i].request_id);
    EXPECT_EQ(a.deliveries[i].event, b.deliveries[i].event);
    EXPECT_EQ(a.deliveries[i].frames, b.deliveries[i].frames);
    EXPECT_EQ(a.deliveries[i].replayed, b.deliveries[i].replayed);
    EXPECT_EQ(a.deliveries[i].detections, b.deliveries[i].detections);
  }
}

TEST(StreamFleetTest, FleetRunIsBitIdenticalToSoloStreams) {
  const data::Task task = data::FindTask("TA10").value();
  StreamFleet fleet(task, TestConfig());
  const FleetRunResult run = fleet.Run();
  ASSERT_EQ(run.streams.size(), 6u);
  for (int s = 0; s < 6; ++s) {
    const FleetStreamResult solo = fleet.RunStreamSolo(s);
    EXPECT_TRUE(SameStreamResult(run.streams[static_cast<size_t>(s)], solo))
        << "stream " << s;
    ExpectSameTranscript(run.streams[static_cast<size_t>(s)].transcript,
                         solo.transcript, s);
  }
  // Distinct streams genuinely differ (seeds decorrelate the tenants).
  // Decision digests may coincide when the tiny model predicts "no event"
  // at every anchor, so compare the state digest: it folds the audit
  // against each stream's own ground truth, which the video seeds vary.
  EXPECT_NE(run.streams[0].state_digest, run.streams[1].state_digest);
}

// The solo/fleet contract must survive per-stream recalibration loops
// (DESIGN.md §5j): loop state is private to each stream, so hot swaps on
// one tenant cannot leak into another, and a swap-bearing fleet run is
// still bit-identical to the solo replays at any thread count. The loop
// knobs are cranked (floor guards, hair-trigger martingale) so swaps
// actually happen at this tiny scale.
TEST(StreamFleetTest, RecalArmedFleetStaysBitIdenticalToSolo) {
  const data::Task task = data::FindTask("TA10").value();
  FleetConfig config = TestConfig();
  config.frames_per_stream = 10200;  // 50 boundaries per stream (H=200).
  config.recal = true;
  config.recal_config.window_capacity = 32;
  config.recal_config.min_records = 1;
  config.recal_config.min_positives = 1;
  config.recal_config.cooldown_frames = 400;
  // Hair trigger: with epsilon=0.5 any positive record whose p-value under
  // the live calibration dips below 0.25 yields a positive martingale
  // increment, and a single increment crosses the threshold.
  config.recal_config.drift.epsilon = 0.5;
  config.recal_config.drift.log_threshold = 0.01;
  StreamFleet fleet(task, config);
  const FleetRunResult run = fleet.Run();
  ASSERT_EQ(run.streams.size(), 6u);

  int64_t total_swaps = 0;
  for (int s = 0; s < 6; ++s) {
    const auto& stream = run.streams[static_cast<size_t>(s)];
    total_swaps += stream.recal_swaps;
    const FleetStreamResult solo = fleet.RunStreamSolo(s);
    EXPECT_TRUE(SameStreamResult(stream, solo)) << "stream " << s;
    ExpectSameTranscript(stream.transcript, solo.transcript, s);
  }
  // The parity must be exercised through real swaps, not vacuously.
  EXPECT_GE(total_swaps, 1);

  // And the batched schedule still must not matter with loops armed.
  FleetConfig threaded = config;
  threaded.threads = 4;
  threaded.batch_size = 16;
  threaded.max_batch_delay_ticks = 9;
  StreamFleet threaded_fleet(task, threaded);
  const FleetRunResult threaded_run = threaded_fleet.Run();
  for (size_t s = 0; s < run.streams.size(); ++s) {
    EXPECT_TRUE(SameStreamResult(run.streams[s], threaded_run.streams[s]))
        << "stream " << s;
  }
}

TEST(StreamFleetTest, ResultsInvariantToThreadsBatchWaveAndDelay) {
  const data::Task task = data::FindTask("TA10").value();
  const FleetConfig base = TestConfig();
  StreamFleet reference(task, base);
  const FleetRunResult expected = reference.Run();

  // Each variation re-batches and re-schedules everything the contract
  // says must not matter; the per-stream results must not move by a bit.
  std::vector<FleetConfig> variants;
  {
    FleetConfig c = base;
    c.threads = 4;
    variants.push_back(c);
  }
  {
    FleetConfig c = base;
    c.batch_size = 16;
    c.max_batch_delay_ticks = 9;
    variants.push_back(c);
  }
  {
    FleetConfig c = base;
    c.wave_size = 6;  // Single wave.
    c.batch_size = 1;  // Every request flushes alone.
    variants.push_back(c);
  }
  {
    FleetConfig c = base;
    c.threads = 4;
    c.wave_size = 2;
    c.stagger_phases = false;  // All tenants aligned: max flush pressure.
    variants.push_back(c);
  }
  for (size_t v = 0; v < variants.size(); ++v) {
    StreamFleet fleet(task, variants[v]);
    const FleetRunResult run = fleet.Run();
    ASSERT_EQ(run.streams.size(), expected.streams.size());
    for (size_t s = 0; s < run.streams.size(); ++s) {
      // Phase staggering only shifts fleet ticks, never local stream
      // clocks, so even variant 3 must reproduce every stream.
      EXPECT_TRUE(SameStreamResult(run.streams[s], expected.streams[s]))
          << "variant " << v << " stream " << s;
    }
  }
}

// A fleet stream's video holds only the frames its collection windows read
// (sim::FrameSelection{M, H}). Driving the same stream inline over the
// whole video must give the identical result under every collection
// policy, with recalibration rebuilding from truth windows and flaky relays:
// every frame read is stored bit-identically, and no read falls outside.
TEST(StreamFleetTest, WindowedStreamVideoMatchesWholeVideo) {
  for (const char* task_name : {"TA10", "TA13"}) {
    const data::Task task = data::FindTask(task_name).value();
    for (const char* policy : {"full", "duty:0.25", "adaptive"}) {
      SCOPED_TRACE(std::string(task_name) + " " + policy);
      FleetConfig config = TestConfig();
      config.num_streams = 3;
      config.wave_size = 3;
      // 10 boundaries per stream at either task's horizon.
      config.frames_per_stream =
          sim::MakeDatasetSpec(task.dataset).horizon * 11;
      config.fault_profile = "flaky";
      config.runner.collect_policy =
          sched::ParseCollectPolicy(policy).value();
      config.recal = true;
      config.recal_config.window_capacity = 32;
      config.recal_config.min_records = 1;
      config.recal_config.min_positives = 1;
      config.recal_config.cooldown_frames = 400;
      config.recal_config.drift.epsilon = 0.5;
      config.recal_config.drift.log_threshold = 0.01;
      StreamFleet fleet(task, config);
      const FleetRunResult run = fleet.Run();

      // The fleet's model, trained again: training is deterministic in the
      // runner config and thread count.
      const eval::TaskEnvironment env =
          eval::TaskEnvironment::Build(task, config.runner);
      const eval::TrainedEventHit trained = eval::TrainEventHit(
          env, config.runner, 0.5,
          ExecutionContext(config.threads, config.runner.seed));
      obs::MetricsRegistry metrics;
      obs::Logger log;
      log.set_min_level(obs::LogLevel::kError);
      PipelineSinks sinks;
      sinks.metrics = &metrics;
      sinks.log = &log;
      for (int s = 0; s < config.num_streams; ++s) {
        const StreamSettings settings = fleet.DeriveStreamSettings(s);
        const sim::SyntheticVideo whole =
            sim::SyntheticVideo::Generate(settings.spec, settings.video_seed);
        StreamPipeline pipeline(config, settings, task, trained, whole,
                                /*first_frame=*/0, sinks);
        const FleetStreamResult inline_result =
            RunInline(pipeline, *trained.model);
        EXPECT_TRUE(SameStreamResult(run.streams[static_cast<size_t>(s)],
                                     inline_result))
            << "stream " << s;
        ExpectSameTranscript(run.streams[static_cast<size_t>(s)].transcript,
                             inline_result.transcript, s);
      }
    }
  }
}

// A fleet stream's video stores frames up to its last boundary window and
// none after it: the video ends one frame after the last decision's
// anchor, and every anchor's window is stored.
TEST(StreamFleetTest, StreamVideoEndsOneFrameAfterLastBoundary) {
  for (const char* task_name : {"TA10", "TA13"}) {
    const data::Task task = data::FindTask(task_name).value();
    const int64_t horizon = sim::MakeDatasetSpec(task.dataset).horizon;
    // push_frames a multiple of H, one frame past one, and in between.
    for (const int64_t frames : {3 * horizon + 100, 4 * horizon + 1,
                                 4 * horizon + horizon / 2 + 17}) {
      SCOPED_TRACE(std::string(task_name) + " frames " +
                   std::to_string(frames));
      FleetConfig config = TestConfig();
      config.num_streams = 2;
      config.frames_per_stream = frames;
      StreamFleet fleet(task, config);
      const FleetRunResult run = fleet.Run();
      for (const FleetStreamResult& stream : run.streams) {
        const StreamSettings settings =
            fleet.DeriveStreamSettings(stream.stream_index);
        const sim::FrameSelection selection = StreamVideoSelection(settings);
        const auto& decisions = stream.transcript.decisions;
        ASSERT_FALSE(decisions.empty());
        EXPECT_EQ(selection.end, decisions.back().anchor + 1);
        EXPECT_LE(selection.end, settings.push_frames);
        for (const auto& decision : decisions) {
          for (int64_t t = decision.anchor - selection.length + 1;
               t <= decision.anchor; ++t) {
            EXPECT_TRUE(selection.Contains(t)) << "frame " << t;
          }
        }
      }
    }
  }
}

// The cloud detects the dataset's event, not the task-local one: on TA11
// (THUMOS E8, dataset index 1) every delivery names that event and its
// detections track that event's ground truth at the cloud's accuracy.
TEST(StreamFleetTest, CloudDetectsTheTasksDatasetEvent) {
  const data::Task task = data::FindTask("TA11").value();
  ASSERT_NE(task.event_indices[0], 0u);
  FleetConfig config = TestConfig();
  config.num_streams = 2;
  config.frames_per_stream = 6000;
  StreamFleet fleet(task, config);
  const FleetRunResult run = fleet.Run();
  int64_t frames = 0;
  int64_t agree = 0;
  for (const FleetStreamResult& stream : run.streams) {
    const StreamSettings s = fleet.DeriveStreamSettings(stream.stream_index);
    const sim::SyntheticVideo video =
        sim::SyntheticVideo::Generate(s.spec, s.video_seed);
    for (const auto& delivery : stream.transcript.deliveries) {
      EXPECT_EQ(delivery.event, task.event_indices[0]);
      for (size_t i = 0; i < delivery.detections.size(); ++i) {
        const bool truth = video.timeline().IsActive(
            task.event_indices[0],
            delivery.frames.start + static_cast<int64_t>(i));
        agree += (delivery.detections[i] != 0) == truth ? 1 : 0;
        ++frames;
      }
    }
  }
  ASSERT_GE(frames, 500);
  EXPECT_GE(static_cast<double>(agree) / static_cast<double>(frames),
            cloud::CloudConfig{}.accuracy - 0.02);
}

// SameStreamResult and StateDigest both iterate ForEachResultField, so
// perturbing any listed field of a result must trip both.
TEST(StreamFleetTest, EveryListedFieldReachesComparisonAndDigest) {
  const data::Task task = data::FindTask("TA10").value();
  FleetConfig config = TestConfig();
  config.num_streams = 1;
  StreamFleet fleet(task, config);
  const FleetStreamResult base = fleet.RunStreamSolo(0);
  EXPECT_EQ(base.state_digest, StateDigest(base));
  int fields = 0;
  ForEachResultField(base, [&fields](const auto&) { ++fields; });
  // 2 digests, 9 marshaller stats, 14 relay stats, 4 invoice fields,
  // 14 audit/recal fields, 4 provenance fields.
  EXPECT_EQ(fields, 47);
  for (int i = 0; i < fields; ++i) {
    FleetStreamResult copy = base;
    int index = 0;
    ForEachResultField(copy, [&](auto& field) {
      if (index++ == i) field += 1;
    });
    EXPECT_FALSE(SameStreamResult(base, copy)) << "field " << i;
    EXPECT_NE(StateDigest(base), StateDigest(copy)) << "field " << i;
  }
}

TEST(StreamFleetTest, DeriveStreamSettingsIsPureAndDecorrelated) {
  const data::Task task = data::FindTask("TA10").value();
  StreamFleet fleet(task, TestConfig());
  const StreamSettings a = fleet.DeriveStreamSettings(3);
  const StreamSettings b = fleet.DeriveStreamSettings(3);
  EXPECT_EQ(a.stream_seed, b.stream_seed);
  EXPECT_EQ(a.video_seed, b.video_seed);
  EXPECT_EQ(a.phase, b.phase);
  EXPECT_EQ(a.gap_scale, b.gap_scale);
  const StreamSettings other = fleet.DeriveStreamSettings(4);
  EXPECT_NE(a.stream_seed, other.stream_seed);
  EXPECT_NE(a.video_seed, other.video_seed);
  // Per-stream sub-seeds are themselves decorrelated.
  EXPECT_NE(a.video_seed, a.cloud_seed);
  EXPECT_NE(a.cloud_seed, a.relay_seed);
}

TEST(StreamFleetTest, FleetMetricsUpholdFlushAndFrameInvariants) {
  const data::Task task = data::FindTask("TA10").value();
  obs::MetricsRegistry metrics;
  obs::TraceBuffer trace(4096);
  StreamFleet fleet(task, TestConfig(), &metrics, &trace);
  const FleetRunResult run = fleet.Run();

  const auto counter = [&](const char* name) {
    return metrics.GetCounter(name)->Value();
  };
  EXPECT_EQ(counter(obs::names::kFleetStreamsCompleted), 6);
  EXPECT_EQ(counter(obs::names::kFleetFramesPushed),
            run.stats.frames_pushed);
  EXPECT_EQ(counter(obs::names::kFleetRequestsSubmitted),
            run.stats.requests);
  // Flush-reason counters partition the batch counter.
  EXPECT_EQ(counter(obs::names::kFleetBatchesFlushed),
            counter(obs::names::kFleetBatchesFlushFull) +
                counter(obs::names::kFleetBatchesFlushDeadline) +
                counter(obs::names::kFleetBatchesFlushFinal));
  EXPECT_EQ(counter(obs::names::kFleetBatchesFlushed), run.stats.batches);
  // Every request flushed in exactly one batch.
  int64_t batched = 0;
  for (const auto& h : metrics.Snapshot().histograms) {
    if (h.name == obs::names::kFleetBatchFill) batched += h.count;
  }
  EXPECT_EQ(batched, run.stats.batches);
  // One fleet.batch span per flush.
  int64_t spans = 0;
  for (const auto& event : trace.Events()) {
    if (event.name == obs::names::kSpanFleetBatch) ++spans;
  }
  EXPECT_EQ(spans, run.stats.batches);
}

TEST(StreamFleetTest, BudgetAccountantLatchesBreachWithoutFeedback) {
  const data::Task task = data::FindTask("TA10").value();
  FleetConfig capped = TestConfig();
  capped.budget_cap_microusd = 1;  // Crossed by the first billed frame.
  StreamFleet capped_fleet(task, capped);
  const FleetRunResult capped_run = capped_fleet.Run();

  FleetConfig uncapped = TestConfig();
  StreamFleet uncapped_fleet(task, uncapped);
  const FleetRunResult uncapped_run = uncapped_fleet.Run();

  // The cap is observational: it latches a breach tick but per-stream
  // results are untouched (enforcement would break solo determinism).
  if (capped_run.stats.budget_spend_microusd > 0) {
    EXPECT_GE(capped_run.stats.budget_breach_tick, 0);
  }
  EXPECT_EQ(uncapped_run.stats.budget_breach_tick, -1);
  EXPECT_EQ(capped_run.stats.budget_spend_microusd,
            uncapped_run.stats.budget_spend_microusd);
  ASSERT_EQ(capped_run.streams.size(), uncapped_run.streams.size());
  for (size_t s = 0; s < capped_run.streams.size(); ++s) {
    EXPECT_TRUE(
        SameStreamResult(capped_run.streams[s], uncapped_run.streams[s]))
        << "stream " << s;
  }
}

TEST(DynamicBatcherTest, FullBatchesFlushImmediately) {
  DynamicBatcher batcher(3, 10);
  for (int i = 0; i < 7; ++i) {
    InferenceRequest request;
    request.seq = i;
    request.enqueue_tick = 0;
    batcher.Enqueue(std::move(request));
  }
  const auto flushes = batcher.TakeReady(0, false);
  ASSERT_EQ(flushes.size(), 2u);
  EXPECT_EQ(flushes[0].reason, FlushReason::kFull);
  EXPECT_EQ(flushes[0].requests.size(), 3u);
  EXPECT_EQ(flushes[0].requests[0].seq, 0);  // Strict enqueue order.
  EXPECT_EQ(flushes[1].requests[0].seq, 3);
  EXPECT_EQ(batcher.pending(), 1u);
}

TEST(DynamicBatcherTest, DeadlineFlushesUnderfullBatches) {
  DynamicBatcher batcher(8, 4);
  InferenceRequest request;
  request.enqueue_tick = 10;
  batcher.Enqueue(std::move(request));
  EXPECT_TRUE(batcher.TakeReady(13, false).empty());  // Age 3 < 4.
  const auto flushes = batcher.TakeReady(14, false);  // Age 4 == deadline.
  ASSERT_EQ(flushes.size(), 1u);
  EXPECT_EQ(flushes[0].reason, FlushReason::kDeadline);
  EXPECT_EQ(flushes[0].requests.size(), 1u);
  EXPECT_EQ(batcher.pending(), 0u);
}

TEST(DynamicBatcherTest, DeadlineSweepPadsWithYoungerRequests) {
  DynamicBatcher batcher(4, 5);
  for (int64_t tick : {0, 0, 4}) {
    InferenceRequest request;
    request.enqueue_tick = tick;
    batcher.Enqueue(std::move(request));
  }
  // At tick 5 the two tick-0 requests are due; the flush also carries the
  // young tick-4 request (one underfull deadline flush, not per-request
  // flushes), keeping batch composition a pure function of the clock.
  const auto flushes = batcher.TakeReady(5, false);
  ASSERT_EQ(flushes.size(), 1u);
  EXPECT_EQ(flushes[0].reason, FlushReason::kDeadline);
  EXPECT_EQ(flushes[0].requests.size(), 3u);
  EXPECT_EQ(batcher.pending(), 0u);
}

TEST(DynamicBatcherTest, FinalDrainsEverything) {
  DynamicBatcher batcher(4, 100);
  for (int i = 0; i < 6; ++i) {
    InferenceRequest request;
    request.enqueue_tick = 0;
    batcher.Enqueue(std::move(request));
  }
  const auto flushes = batcher.TakeReady(0, true);
  ASSERT_EQ(flushes.size(), 2u);
  EXPECT_EQ(flushes[0].reason, FlushReason::kFull);
  EXPECT_EQ(flushes[1].reason, FlushReason::kFinal);
  EXPECT_EQ(flushes[1].requests.size(), 2u);
  EXPECT_EQ(batcher.pending(), 0u);
}

TEST(ShardArenaTest, EveryShardStartsOnItsOwnCacheLine) {
  struct Small {
    int64_t x = 3;
  };
  ShardArena<Small> arena(9);
  EXPECT_EQ(arena.size(), 9u);
  EXPECT_EQ(arena.stride() % kCacheLineBytes, 0u);
  EXPECT_GE(arena.stride(), sizeof(Small));
  for (size_t i = 0; i < arena.size(); ++i) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(&arena[i]) % kCacheLineBytes, 0u)
        << i;
    EXPECT_EQ(arena[i].x, 3);  // Default-constructed.
    arena[i].x = static_cast<int64_t>(i);
  }
  for (size_t i = 0; i < arena.size(); ++i) {
    EXPECT_EQ(arena[i].x, static_cast<int64_t>(i));  // No overlap.
  }
}

TEST(ShardArenaTest, DestructorRunsForEverySlot) {
  static int live = 0;
  struct Counted {
    Counted() { ++live; }
    ~Counted() { --live; }
  };
  {
    ShardArena<Counted> arena(5);
    EXPECT_EQ(live, 5);
  }
  EXPECT_EQ(live, 0);
}

}  // namespace
}  // namespace eventhit::fleet
