// The stream fleet's determinism contract (DESIGN.md §5g): every stream's
// marshalled intervals, relay accounting, invoice and audit state must be
// byte-identical between the cross-stream batched fleet run and the same
// stream run solo with the same seed — at any thread count, batch size,
// wave size or flush timing. Plus unit coverage of the batcher's flush
// rules and the shard arena's alignment guarantee.
#include "fleet/stream_fleet.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/cloud_service.h"
#include "common/thread_pool.h"
#include "core/eventhit_model.h"
#include "core/strategies.h"
#include "data/tasks.h"
#include "eval/runner.h"
#include "fleet/dynamic_batcher.h"
#include "fleet/shard_arena.h"
#include "fleet/stream_pipeline.h"
#include "nn/workspace.h"
#include "obs/metrics.h"
#include "obs/schema.h"
#include "obs/trace.h"
#include "sched/collect_policy.h"
#include "sim/datasets.h"
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

// What a run's schedule must count, from the streams' settings alone: one
// tick per [0, max(phase + push_frames)) of each wave, every stream's
// push_frames, and as idle every tick on which no stream has a frame
// inside the window of a boundary it reaches. Under a fixed schedule
// (full, duty) an unscored boundary reads no window, so only its own
// frame, where the reused completion fires, is busy.
struct ExpectedSchedule {
  int64_t ticks = 0;
  int64_t idle_ticks = 0;
  int64_t frames_pushed = 0;
};

ExpectedSchedule ScheduleOf(const StreamFleet& fleet) {
  const FleetConfig& config = fleet.config();
  const int64_t stride =
      sched::MakeCollectPolicy(config.runner.collect_policy)->FixedStride();
  ExpectedSchedule out;
  for (int wave_start = 0; wave_start < config.num_streams;
       wave_start += config.wave_size) {
    const int wave_n =
        std::min(config.wave_size, config.num_streams - wave_start);
    int64_t max_ticks = 0;
    std::set<int64_t> busy;
    for (int i = 0; i < wave_n; ++i) {
      const StreamSettings s = fleet.DeriveStreamSettings(wave_start + i);
      max_ticks = std::max(max_ticks, s.phase + s.push_frames);
      out.frames_pushed += s.push_frames;
      const int64_t m = s.spec.collection_window;
      for (int64_t b = m - 1, j = 0; b < s.push_frames;
           b += s.spec.horizon, ++j) {
        const bool unscored = stride > 0 && j % stride != 0;
        for (int64_t f = unscored ? b : b - m + 1; f <= b; ++f) {
          busy.insert(s.phase + f);
        }
      }
    }
    out.ticks += max_ticks;
    out.idle_ticks += max_ticks - static_cast<int64_t>(busy.size());
  }
  return out;
}

// The FleetRunStats fields fixed by the schedule and the streams' results.
std::vector<int64_t> ScheduleFields(const FleetRunStats& s) {
  return {s.ticks, s.idle_ticks, s.frames_pushed, s.requests, s.batches,
          s.flush_full, s.flush_deadline, s.flush_final,
          s.budget_breach_tick};
}

// Every stream of a fleet run equals its solo replay, and the run's
// schedule counts are exact and the same at any thread count: the
// event-driven clock skips the ticks that carry no work, yet every logical
// tick still counts, flushes and checks the budget. Beside the base
// fleet, the grid has streams whose pushes end inside the window of a
// boundary they never reach (the end-of-wave catch-up) under a duty cycle
// with flaky relays, and a budget cap crossed mid-run.
TEST(StreamFleetTest, FleetRunIsBitIdenticalToSoloStreams) {
  const data::Task task = data::FindTask("TA10").value();
  int64_t uncapped_spend = 0;
  for (int v = 0; v < 3; ++v) {
    SCOPED_TRACE("config " + std::to_string(v));
    FleetConfig config = TestConfig();
    if (v == 1) {
      config.frames_per_stream = 605;  // push 405; boundary 409 unreached.
      config.runner.collect_policy =
          sched::ParseCollectPolicy("duty:0.25").value();
      config.fault_profile = "flaky";
    }
    if (v == 2) config.budget_cap_microusd = uncapped_spend / 2;
    StreamFleet fleet(task, config);
    const FleetRunResult run = fleet.Run();
    config.threads = 4;
    StreamFleet threaded_fleet(task, config);
    const FleetRunResult threaded = threaded_fleet.Run();
    EXPECT_EQ(ScheduleFields(run.stats), ScheduleFields(threaded.stats));

    const ExpectedSchedule expected = ScheduleOf(fleet);
    EXPECT_EQ(run.stats.ticks, expected.ticks);
    EXPECT_EQ(run.stats.frames_pushed, expected.frames_pushed);
    EXPECT_EQ(run.stats.idle_ticks, expected.idle_ticks);
    EXPECT_GT(run.stats.idle_ticks, run.stats.ticks / 2);

    ASSERT_EQ(run.streams.size(), 6u);
    ASSERT_EQ(threaded.streams.size(), 6u);
    for (int s = 0; s < 6; ++s) {
      const FleetStreamResult& stream = run.streams[static_cast<size_t>(s)];
      EXPECT_EQ(stream.marshaller.frames_seen,
                fleet.DeriveStreamSettings(s).push_frames);
      EXPECT_TRUE(SameStreamResult(
          stream, threaded.streams[static_cast<size_t>(s)]))
          << "stream " << s;
      const FleetStreamResult solo = fleet.RunStreamSolo(s);
      EXPECT_TRUE(SameStreamResult(stream, solo)) << "stream " << s;
      ExpectSameTranscript(stream.transcript, solo.transcript, s);
    }
    if (v == 0) {
      // Distinct streams genuinely differ (seeds decorrelate the tenants).
      // Decision digests may coincide when the tiny model predicts "no
      // event" at every anchor, so compare the state digest: it folds the
      // audit against each stream's own ground truth, which the video
      // seeds vary.
      EXPECT_NE(run.streams[0].state_digest, run.streams[1].state_digest);
      uncapped_spend = run.stats.budget_spend_microusd;
      ASSERT_GT(uncapped_spend, 1);
    }
    if (v == 1) {
      const StreamSettings cut = fleet.DeriveStreamSettings(0);
      EXPECT_EQ(cut.push_frames, 405);
      EXPECT_LT((cut.push_frames - 1) % cut.spec.horizon,
                cut.spec.collection_window - 1);
    }
    if (v == 2) {
      EXPECT_GT(run.stats.budget_breach_tick, 0);
      EXPECT_LT(run.stats.budget_breach_tick, run.stats.ticks - 1);
    }
  }
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

// A fleet stream's video stores the windows of its scored boundaries and
// nothing else: it ends one frame after the last scored anchor, every
// scored window is stored, no unscored boundary's frame is, and the video
// holds scored boundaries × M rows. A duty cycle's stream scores every
// stride-th boundary, so its selection's period is stride × H.
TEST(StreamFleetTest, StreamVideoEndsOneFrameAfterLastBoundary) {
  for (const char* task_name : {"TA10", "TA13"}) {
    const data::Task task = data::FindTask(task_name).value();
    const int64_t horizon = sim::MakeDatasetSpec(task.dataset).horizon;
    // push_frames a multiple of H, one frame past one, and in between.
    for (const int64_t frames : {3 * horizon + 100, 4 * horizon + 1,
                                 4 * horizon + horizon / 2 + 17}) {
      for (const char* policy : {"full", "duty:0.25", "duty:0.5"}) {
        SCOPED_TRACE(std::string(task_name) + " frames " +
                     std::to_string(frames) + " " + policy);
        FleetConfig config = TestConfig();
        config.num_streams = 2;
        config.frames_per_stream = frames;
        config.runner.collect_policy =
            sched::ParseCollectPolicy(policy).value();
        const int64_t stride =
            sched::MakeCollectPolicy(config.runner.collect_policy)
                ->FixedStride();
        StreamFleet fleet(task, config);
        const FleetRunResult run = fleet.Run();
        for (const FleetStreamResult& stream : run.streams) {
          const StreamSettings settings =
              fleet.DeriveStreamSettings(stream.stream_index);
          const sim::FrameSelection selection =
              StreamVideoSelection(settings, config.runner.collect_policy);
          EXPECT_EQ(selection.period, stride * horizon);
          const auto& decisions = stream.transcript.decisions;
          ASSERT_FALSE(decisions.empty());
          int64_t scored = 0;
          for (size_t i = 0; i < decisions.size(); ++i) {
            const int64_t anchor = decisions[i].anchor;
            if (static_cast<int64_t>(i) % stride != 0) {
              EXPECT_FALSE(selection.Contains(anchor)) << "anchor " << anchor;
              continue;
            }
            ++scored;
            for (int64_t t = anchor - selection.length + 1; t <= anchor;
                 ++t) {
              EXPECT_TRUE(selection.Contains(t)) << "frame " << t;
            }
          }
          const int64_t last_scored =
              decisions[(decisions.size() - 1) / stride * stride].anchor;
          EXPECT_EQ(selection.end, last_scored + 1);
          EXPECT_LE(selection.end, settings.push_frames);
          EXPECT_EQ(scored, stream.marshaller.horizons_predicted -
                                stream.marshaller.horizons_reused);
          EXPECT_EQ(selection.Rows(settings.spec.num_frames),
                    scored * selection.length);
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

// eval::WalkPolicy is the stream driver left beside the pipeline: it runs
// inside TrainEventHit with the caller's strategy and no relay or audit.
// A pipeline replayed inline over the same range, with the same strategy
// options, must decide alike at every boundary and count alike. The one
// exception: a full-rate pipeline prices no forward pass, so its
// local_mflops falls short of the walk's by exactly its boundaries'
// passes (DESIGN.md §5g).
TEST(StreamFleetTest, InlineReplayDecidesLikeWalkPolicy) {
  const data::Task task = data::FindTask("TA10").value();
  FleetConfig config = TestConfig();
  // Enough training that C-REGRESS widens intervals by varying amounts:
  // at 80 records every interval is [1, H], whatever the coverage.
  config.runner.train_records = 200;
  const eval::TaskEnvironment env =
      eval::TaskEnvironment::Build(task, config.runner);
  const eval::TrainedEventHit trained = eval::TrainEventHit(env, config.runner);
  core::EventHitStrategyOptions options;
  options.use_cclassify = true;
  options.use_cregress = true;
  options.confidence = config.confidence;
  options.coverage = config.coverage;
  const core::EventHitStrategy strategy(trained.model.get(),
                                        trained.cclassify.get(),
                                        trained.cregress.get(), options);
  const sim::Interval range = env.splits().test;
  const int64_t window = env.collection_window();
  const int64_t first_frame = range.start - (window - 1);
  const double forward_mflops =
      core::LocalCostModelFor(trained.model->config())
          .forward_mflops_per_boundary;
  ASSERT_GT(forward_mflops, 0.0);

  for (const char* policy : {"full", "duty:0.5", "adaptive"}) {
    SCOPED_TRACE(policy);
    config.runner.collect_policy = sched::ParseCollectPolicy(policy).value();
    const eval::PolicyWalk walk =
        eval::WalkPolicy(env, range, strategy, config.runner.collect_policy);
    const int64_t boundaries = static_cast<int64_t>(walk.decisions.size());
    ASSERT_GT(boundaries, 10);
    StreamSettings settings;
    settings.stream_index = 0;
    settings.spec = sim::MakeDatasetSpec(task.dataset);
    settings.push_frames = window + (boundaries - 1) * env.horizon();
    StreamPipeline pipeline(config, settings, task, trained, env.video(),
                            first_frame, PipelineSinks{});
    const FleetStreamResult replay = RunInline(pipeline, *trained.model);

    const auto& decisions = replay.transcript.decisions;
    ASSERT_EQ(decisions.size(), walk.decisions.size());
    std::set<int64_t> widths;  // Of the relayed intervals.
    for (size_t i = 0; i < decisions.size(); ++i) {
      EXPECT_EQ(first_frame + decisions[i].anchor, walk.records[i].frame);
      const core::MarshalDecision& expected = walk.decisions[i];
      ASSERT_EQ(decisions[i].exists.size(), expected.exists.size());
      for (size_t k = 0; k < expected.exists.size(); ++k) {
        EXPECT_EQ(decisions[i].exists[k] != 0, expected.exists[k])
            << "boundary " << i;
        EXPECT_EQ(decisions[i].intervals[k], expected.intervals[k])
            << "boundary " << i;
        if (expected.exists[k]) widths.insert(expected.intervals[k].length());
      }
    }
    EXPECT_GE(widths.size(), 2u);  // Intervals the options could move.

    core::MarshallerStats expected = walk.stats;
    if (config.runner.collect_policy.kind == sched::CollectPolicyKind::kFull) {
      // Full rate: the pipeline installs no cost model, so every
      // boundary's forward pass goes unpriced. Pricing it flips this pin.
      EXPECT_EQ(expected.horizons_reused, 0);
      expected.local_mflops -= std::llround(
          static_cast<double>(boundaries) * forward_mflops);
    }
    const core::MarshallerStats& actual = replay.marshaller;
    for (auto field : {&core::MarshallerStats::frames_seen,
                       &core::MarshallerStats::horizons_predicted,
                       &core::MarshallerStats::frames_relayed,
                       &core::MarshallerStats::relay_orders,
                       &core::MarshallerStats::horizons_reused,
                       &core::MarshallerStats::frames_scored,
                       &core::MarshallerStats::frames_skipped,
                       &core::MarshallerStats::local_mflops,
                       &core::MarshallerStats::saved_mflops}) {
      EXPECT_EQ(actual.*field, expected.*field);
    }
  }
}

// Under adaptive collection a frame is extracted conservatively while a
// scored prediction is pending, so a fleet stream whose request still
// waits in the batcher at its next window's first frame (M = H here)
// steps that window until the completion's verdict skips its boundary,
// and abandons it. The next scored window must start from the zero state:
// the fleet reproduces the solo replays, which complete inline and never
// abandon a window. A replay that completes each boundary at its deadline,
// as the fleet's flushes do here, counts the abandoned windows, so the
// case is known to occur.
TEST(StreamFleetTest, AbandonedWindowsLeakNoStateIntoTheNext) {
  const data::Task task = data::FindTask("TA10").value();
  FleetConfig config = TestConfig();
  config.runner.horizon_override = 10;  // M = H = 10.
  config.frames_per_stream = 3000;
  config.runner.collect_policy =
      sched::ParseCollectPolicy("adaptive").value();
  config.batch_size = 64;  // Six streams: every flush is a deadline flush.
  const int64_t delay = config.max_batch_delay_ticks;
  StreamFleet fleet(task, config);
  const FleetRunResult run = fleet.Run();

  // The fleet's model, trained again (set-up is deterministic).
  const eval::TaskEnvironment env =
      eval::TaskEnvironment::Build(task, config.runner);
  const eval::TrainedEventHit trained = eval::TrainAndCalibrate(
      env, config.runner, 0.5,
      ExecutionContext(config.threads, config.runner.seed));
  const core::EventHitModel& model = *trained.model;
  const size_t hd = model.config().lstm_hidden;
  const size_t d = model.config().feature_dim;
  int64_t abandoned = 0;
  for (int s = 0; s < config.num_streams; ++s) {
    const FleetStreamResult& stream = run.streams[static_cast<size_t>(s)];
    const FleetStreamResult solo = fleet.RunStreamSolo(s);
    EXPECT_TRUE(SameStreamResult(stream, solo)) << "stream " << s;

    const StreamSettings settings = fleet.DeriveStreamSettings(s);
    const sim::SyntheticVideo video = sim::SyntheticVideo::Generate(
        settings.spec, settings.video_seed,
        StreamVideoSelection(settings, config.runner.collect_policy));
    StreamPipeline pipeline(config, settings, task, trained, video,
                            /*first_frame=*/0, PipelineSinks{});
    struct Waiting {
      int64_t anchor = 0;
      std::vector<float> h, x_last;
    };
    std::vector<Waiting> waiting;  // FIFO, at most a few long.
    std::vector<float> h(hd, 0.0f), c(hd, 0.0f);
    nn::Workspace ws;
    core::EventScores scores;
    bool open = false;  // A window has started and not yet been scored.
    const auto complete_due = [&](int64_t frame) {
      while (!waiting.empty() && frame - waiting.front().anchor >= delay) {
        ws.Reset();
        model.PredictHeads(waiting.front().h.data(),
                           waiting.front().x_last.data(), 1, &scores, ws);
        pipeline.Complete(waiting.front().anchor, scores, BatchPlacement{});
        waiting.erase(waiting.begin());
      }
    };
    while (pipeline.next_frame() < settings.push_frames) {
      const int64_t frame = pipeline.next_frame();
      const StreamPipeline::Push push = pipeline.PushFrame();
      if (push.features != nullptr) {
        if (push.window_start) {
          abandoned += open ? 1 : 0;
          open = true;
          std::fill(h.begin(), h.end(), 0.0f);
          std::fill(c.begin(), c.end(), 0.0f);
        }
        ws.Reset();
        model.EncodeStep(push.features, 1, h.data(), c.data(), ws);
        if (push.scored) {
          open = false;
          waiting.push_back(
              {frame, h, std::vector<float>(push.features, push.features + d)});
        }
      }
      complete_due(frame);
    }
    complete_due(std::numeric_limits<int64_t>::max());
    EXPECT_TRUE(SameStreamResult(pipeline.Finish(), solo)) << "stream " << s;
  }
  EXPECT_GT(abandoned, 0);
}

// A fleet's set-up trains and calibrates its model and scores nothing
// else: at perfbench's runner configuration (seed 42, 60k frames,
// 400/400/100 records, 6 epochs) its one scoring pass is calibration's,
// over the calibration records with some event present — 86 on TA10 and
// 174 on TA13. (TrainEventHit would score the 100 test records too.)
TEST(StreamFleetTest, SetUpScoresOnlyItsCalibrationPositives) {
  const auto records_scored = [] {
    for (const auto& h : obs::MetricsRegistry::Global().Snapshot().histograms) {
      if (h.name == obs::names::kPredictBatchSize) return h.sum;
    }
    return 0.0;
  };
  for (const auto& [task_name, positives] :
       {std::pair{"TA10", 86}, std::pair{"TA13", 174}}) {
    SCOPED_TRACE(task_name);
    FleetConfig config;
    config.num_streams = 1;
    config.runner.seed = 42;
    config.runner.stream_frames_override = 60000;
    config.runner.train_records = 400;
    config.runner.calib_records = 400;
    config.runner.test_records = 100;
    config.runner.model_template.epochs = 6;
    const double before = records_scored();
    const StreamFleet fleet(data::FindTask(task_name).value(), config);
    EXPECT_EQ(records_scored() - before, positives);
  }
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

// Fleet streams marshal at the M and H the shared model trains at: the
// runner's horizon override reaches every stream, which then cuts
// 100-frame horizons, and each stream still equals its solo replay.
TEST(StreamFleetTest, HorizonOverrideReachesEveryStream) {
  const data::Task task = data::FindTask("TA10").value();
  FleetConfig config = TestConfig();
  config.num_streams = 2;
  config.runner.horizon_override = 100;
  StreamFleet fleet(task, config);
  const FleetRunResult run = fleet.Run();
  ASSERT_EQ(run.streams.size(), 2u);
  for (int s = 0; s < 2; ++s) {
    const StreamSettings settings = fleet.DeriveStreamSettings(s);
    EXPECT_EQ(settings.spec.horizon, 100);
    EXPECT_EQ(settings.spec.collection_window, 10);
    EXPECT_EQ(settings.push_frames, 600);
    // Boundaries 9, 109, ..., 509: six horizons where H = 200 cuts three.
    const FleetStreamResult& stream = run.streams[static_cast<size_t>(s)];
    EXPECT_EQ(stream.marshaller.horizons_predicted, 6);
    ASSERT_EQ(stream.transcript.decisions.size(), 6u);
    for (const StreamTranscript::Decision& decision :
         stream.transcript.decisions) {
      for (const sim::Interval& interval : decision.intervals) {
        if (!interval.empty()) {
          EXPECT_LE(interval.end, 100);
        }
      }
    }
    const FleetStreamResult solo = fleet.RunStreamSolo(s);
    EXPECT_TRUE(SameStreamResult(stream, solo)) << "stream " << s;
    ExpectSameTranscript(stream.transcript, solo.transcript, s);
  }
}

// A pipeline whose horizon is not its model's dies at construction rather
// than marshal horizons the model's occupancy head does not cover.
TEST(StreamPipelineDeathTest, HorizonOtherThanTheModelsDies) {
  const data::Task task = data::FindTask("TA10").value();
  FleetConfig config = TestConfig();
  config.runner.horizon_override = 100;
  config.runner.model_template.epochs = 1;
  const eval::TaskEnvironment env =
      eval::TaskEnvironment::Build(task, config.runner);
  const eval::TrainedEventHit trained = eval::TrainEventHit(env, config.runner);
  StreamSettings settings;
  settings.stream_index = 0;
  settings.spec = sim::MakeDatasetSpec(task.dataset);
  settings.spec.num_frames = config.frames_per_stream;
  settings.push_frames = settings.spec.num_frames - settings.spec.horizon;
  const sim::SyntheticVideo video =
      sim::SyntheticVideo::Generate(settings.spec, 11);
  ASSERT_EQ(settings.spec.horizon, 200);
  EXPECT_DEATH(StreamPipeline(config, settings, task, trained, video,
                              /*first_frame=*/0, PipelineSinks{}),
               "CHECK failed");
  settings.spec.horizon = 100;
  settings.push_frames = settings.spec.num_frames - settings.spec.horizon;
  const StreamPipeline pipeline(config, settings, task, trained, video,
                                /*first_frame=*/0, PipelineSinks{});
  EXPECT_EQ(pipeline.settings().spec.horizon, 100);
}

// A stream keeps one encoder state, so its windows may not overlap: a
// pipeline whose window is longer than its horizon dies at construction.
TEST(StreamPipelineDeathTest, WindowLongerThanHorizonDies) {
  const data::Task task = data::FindTask("TA10").value();
  FleetConfig config = TestConfig();
  config.runner.collection_window_override = 30;
  config.runner.horizon_override = 20;
  config.runner.model_template.epochs = 1;
  const eval::TaskEnvironment env =
      eval::TaskEnvironment::Build(task, config.runner);
  const eval::TrainedEventHit trained =
      eval::TrainAndCalibrate(env, config.runner);
  StreamSettings settings;
  settings.stream_index = 0;
  settings.spec = sim::MakeDatasetSpec(task.dataset);
  settings.spec.num_frames = config.frames_per_stream;
  settings.spec.collection_window = 30;
  settings.spec.horizon = 20;
  settings.push_frames = settings.spec.num_frames - settings.spec.horizon;
  const sim::SyntheticVideo video =
      sim::SyntheticVideo::Generate(settings.spec, 11);
  EXPECT_DEATH(StreamPipeline(config, settings, task, trained, video,
                              /*first_frame=*/0, PipelineSinks{}),
               "collection_window <= settings_.spec.horizon");
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
  EXPECT_EQ(counter(obs::names::kFleetTicksIdle), run.stats.idle_ticks);
  EXPECT_GT(run.stats.idle_ticks, 0);
  // Flush-reason counters partition the batch counter.
  EXPECT_EQ(counter(obs::names::kFleetBatchesFlushed),
            counter(obs::names::kFleetBatchesFlushFull) +
                counter(obs::names::kFleetBatchesFlushDeadline) +
                counter(obs::names::kFleetBatchesFlushFinal));
  EXPECT_EQ(counter(obs::names::kFleetBatchesFlushed), run.stats.batches);
  // Every request flushed in exactly one batch, none past its deadline:
  // the batcher is asked on every tick, idle ones included.
  int64_t batched = 0;
  for (const auto& h : metrics.Snapshot().histograms) {
    if (h.name == obs::names::kFleetBatchFill) batched += h.count;
    if (h.name == obs::names::kFleetRequestDelayTicks) {
      EXPECT_EQ(h.count, run.stats.requests);
      EXPECT_LE(h.max,
                static_cast<double>(TestConfig().max_batch_delay_ticks));
    }
  }
  EXPECT_EQ(batched, run.stats.batches);
  // One fleet.batch span per flush, and one fleet.encode span per tick on
  // which some stream steps: under the full policy every busy tick pushes
  // a window frame.
  int64_t spans = 0;
  int64_t encode_spans = 0;
  for (const auto& event : trace.Events()) {
    if (event.name == obs::names::kSpanFleetBatch) ++spans;
    if (event.name == obs::names::kSpanFleetEncode) ++encode_spans;
  }
  EXPECT_EQ(trace.dropped(), 0);
  EXPECT_EQ(spans, run.stats.batches);
  EXPECT_EQ(encode_spans, run.stats.ticks - run.stats.idle_ticks);
}

// Building a stream's pipeline registers nothing: the fleet's constructor
// resolves every series its streams report, and Run() and RunStreamSolo()
// only reuse those handles.
TEST(StreamFleetTest, RunsRegisterNoStreamSeries) {
  const data::Task task = data::FindTask("TA9").value();  // Three events.
  FleetConfig config = TestConfig();
  config.fault_profile = "flaky";
  config.degraded_mode = cloud::DegradedMode::kBufferAndReplay;
  config.recal = true;
  StreamFleet fleet(task, config);
  const std::vector<std::string> names = fleet.stream_metrics().Names();
  EXPECT_FALSE(names.empty());
  fleet.Run();
  EXPECT_EQ(fleet.stream_metrics().Names(), names);
  fleet.RunStreamSolo(1);
  EXPECT_EQ(fleet.stream_metrics().Names(), names);
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

// The in-place form hands out the batcher's own flushes, whose request
// vectors keep their storage from one call to the next.
TEST(DynamicBatcherTest, InPlaceFlushesReuseTheirStorage) {
  DynamicBatcher batcher(2, 100);
  const InferenceRequest* storage = nullptr;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 2; ++i) {
      InferenceRequest request;
      request.seq = round * 2 + i;
      batcher.Enqueue(std::move(request));
    }
    const std::span<BatchFlush> flushes = batcher.TakeReadyInPlace(0, false);
    ASSERT_EQ(flushes.size(), 1u);
    ASSERT_EQ(flushes[0].requests.size(), 2u);
    EXPECT_EQ(flushes[0].requests[0].seq, round * 2);
    if (round == 0) storage = flushes[0].requests.data();
    EXPECT_EQ(flushes[0].requests.data(), storage);
  }
  EXPECT_TRUE(batcher.TakeReadyInPlace(1, false).empty());
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
