#include "fleet_mirror.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <utility>

#include "cloud/cloud_service.h"
#include "common/check.h"
#include "core/strategies.h"
#include "data/record_extractor.h"
#include "fleet/dynamic_batcher.h"
#include "fleet/mpsc_queue.h"
#include "fleet/shard_arena.h"
#include "nn/backend.h"
#include "nn/workspace.h"
#include "obs/audit.h"
#include "obs/provenance.h"
#include "sched/collect_policy.h"
#include "sched/cost_model.h"
#include "sim/fault_injector.h"
#include "sim/synthetic_video.h"

namespace perfbench {

namespace core = ::eventhit::core;
namespace cloud = ::eventhit::cloud;
namespace data = ::eventhit::data;
namespace fleet = ::eventhit::fleet;
namespace obs = ::eventhit::obs;
namespace sched = ::eventhit::sched;
namespace sim = ::eventhit::sim;

std::vector<std::string> SpanNames() {
  return {"run",           "fleet.stream_init", "sim.generate",
          "fleet.tick",    "marshaller.push",   "fleet.handoff",
          "fleet.flush",   "fleet.flush_assembly", "nn.predict",
          "strategy.decide", "marshaller.complete", "relay.submit",
          "relay.advance", "truth.lookup",      "audit.observe",
          "fleet.finish"};
}

bool SameAsFleet(const MirrorStream& m, const fleet::FleetStreamResult& f) {
  auto bits = [](double v) {
    uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
  };
  return std::memcmp(&m.marshaller, &f.marshaller, sizeof(m.marshaller)) ==
             0 &&
         std::memcmp(&m.relay, &f.relay, sizeof(m.relay)) == 0 &&
         m.invoice.frames_processed == f.invoice.frames_processed &&
         m.invoice.requests == f.invoice.requests &&
         bits(m.invoice.total_cost_usd) == bits(f.invoice.total_cost_usd) &&
         bits(m.invoice.compute_seconds) == bits(f.invoice.compute_seconds) &&
         m.audit_positives == f.audit_positives &&
         m.audit_misses == f.audit_misses &&
         m.audit_endpoints == f.audit_endpoints &&
         m.audit_miscovered == f.audit_miscovered &&
         m.audit_breaches == f.audit_breaches &&
         m.provenance_digest == f.provenance_digest;
}

// One stream's components, wired as StreamFleet::InitStream wires them.
struct FleetMirror::Stream {
  fleet::StreamSettings settings;
  data::ExtractorConfig extractor;
  std::unique_ptr<sim::SyntheticVideo> video;
  std::unique_ptr<cloud::CloudService> service;
  std::unique_ptr<sim::FaultInjector> faults;
  std::unique_ptr<cloud::CloudRelay> relay;
  std::unique_ptr<core::EventHitStrategy> strategy;
  std::unique_ptr<core::Marshaller> marshaller;
  std::unique_ptr<obs::GuarantyAuditor> auditor;
  std::unique_ptr<obs::StreamProvenance> provenance;
  int64_t next_frame = 0;
  int64_t seq = 0;
  int64_t deliveries = 0;
  data::Record pending_record;
  bool has_request = false;
};

FleetMirror::FleetMirror(const fleet::StreamFleet& fleet,
                         const eventhit::eval::TrainedEventHit& trained)
    : fleet_(fleet), trained_(trained) {
  EVENTHIT_CHECK(!fleet_.config().recal);
  stream_log_.set_min_level(obs::LogLevel::kError);
}

void FleetMirror::InitStream(Stream& stream, int stream_index,
                             Tracer* tracer) {
  const fleet::FleetConfig& config = fleet_.config();
  const data::Task& task = fleet_.task();
  stream.settings = fleet_.DeriveStreamSettings(stream_index);
  const fleet::StreamSettings& s = stream.settings;
  stream.extractor.collection_window = s.spec.collection_window;
  stream.extractor.horizon = s.spec.horizon;
  if (config.provenance) {
    stream.provenance = std::make_unique<obs::StreamProvenance>(
        stream_index, s.spec.collection_window, s.spec.horizon,
        config.provenance_ring);
  }
  {
    Span span(tracer, kSpanSimGenerate);
    stream.video = std::make_unique<sim::SyntheticVideo>(
        sim::SyntheticVideo::Generate(s.spec, s.video_seed));
  }
  stream.service = std::make_unique<cloud::CloudService>(
      stream.video.get(), cloud::CloudConfig{}, s.cloud_seed,
      &stream_metrics_);
  if (config.fault_profile != "none" && !config.fault_profile.empty()) {
    auto profile = sim::MakeFaultProfile(config.fault_profile, s.fault_seed);
    EVENTHIT_CHECK_OK(profile.status());
    stream.faults = std::make_unique<sim::FaultInjector>(profile.value());
  }
  cloud::RelayConfig relay_config;
  relay_config.degraded_mode = config.degraded_mode;
  relay_config.replay_horizon_frames = s.spec.horizon;
  stream.relay = std::make_unique<cloud::CloudRelay>(
      stream.service.get(), relay_config, s.relay_seed, stream.faults.get(),
      &stream_metrics_, /*trace=*/nullptr, &stream_log_);
  // Stands in for the fleet's delivery-digest callback, so the relay pays
  // for a registered callback as it does in Run().
  stream.relay->set_delivery_callback(
      [&stream](const cloud::RelayDelivery&) { ++stream.deliveries; });

  core::EventHitStrategyOptions options;
  options.use_cclassify = true;
  options.use_cregress = true;
  options.confidence = config.confidence;
  options.coverage = config.coverage;
  stream.strategy = std::make_unique<core::EventHitStrategy>(
      trained_.model.get(), trained_.cclassify.get(), trained_.cregress.get(),
      options);
  stream.marshaller = std::make_unique<core::Marshaller>(
      stream.strategy.get(), s.spec.collection_window, s.spec.horizon,
      s.spec.FeatureDim(), task.event_indices.size(), &stream_metrics_);
  stream.marshaller->set_provenance(stream.provenance.get());
  stream.marshaller->set_relay_callback(
      [&stream, tracer](const core::RelayOrder& order) {
        Span span(tracer, kSpanRelaySubmit);
        const cloud::RelayResult result =
            stream.relay->Submit(order.event, order.frames, order.anchor);
        if (stream.provenance != nullptr) {
          stream.provenance->StampRelay(
              order.anchor, result.attempts,
              static_cast<int8_t>(result.outcome),
              static_cast<int8_t>(stream.relay->breaker_state()));
        }
      });
  stream.marshaller->set_decision_callback(
      [this, &stream, tracer](int64_t anchor,
                              const core::MarshalDecision& decision,
                              bool /*reused*/) {
        OnCompletion(stream, anchor, decision, tracer);
      });
  if (config.runner.collect_policy.kind != sched::CollectPolicyKind::kFull) {
    stream.marshaller->set_collect_policy(
        sched::MakeCollectPolicy(config.runner.collect_policy));
    sched::LocalCostModel cost;
    cost.forward_mflops_per_boundary = sched::EstimateForwardMflops(
        s.spec.collection_window, static_cast<int>(s.spec.FeatureDim()),
        config.runner.model_template.lstm_hidden,
        config.runner.model_template.shared_dim,
        config.runner.model_template.event_hidden,
        static_cast<int>(task.event_indices.size()), s.spec.horizon);
    stream.marshaller->set_cost_model(cost);
  }

  obs::AuditConfig audit_config;
  audit_config.confidence = config.confidence;
  audit_config.coverage = config.coverage;
  audit_config.sim_tid = stream_index;
  stream.auditor = std::make_unique<obs::GuarantyAuditor>(
      audit_config, &stream_metrics_, /*trace=*/nullptr, &stream_log_);
}

void FleetMirror::OnCompletion(Stream& stream, int64_t anchor,
                               const core::MarshalDecision& decision,
                               Tracer* tracer) {
  {
    Span span(tracer, kSpanRelayAdvance);
    stream.relay->AdvanceTo(anchor);
  }
  const int64_t window = stream.extractor.collection_window;
  if (anchor < window - 1 ||
      anchor + stream.extractor.horizon >= stream.video->num_frames()) {
    return;
  }
  data::Record truth;
  {
    Span span(tracer, kSpanTruthLookup);
    truth = data::BuildRecord(*stream.video, fleet_.task(), stream.extractor,
                              anchor);
  }
  Span span(tracer, kSpanAuditObserve);
  EVENTHIT_CHECK_EQ(decision.exists.size(), truth.labels.size());
  const int64_t decision_id =
      stream.provenance != nullptr
          ? stream.provenance->DecisionIdOfAnchor(anchor)
          : -1;
  for (size_t k = 0; k < truth.labels.size(); ++k) {
    const data::EventLabel& label = truth.labels[k];
    obs::AuditOutcome outcome;
    outcome.sim_time = anchor;
    outcome.event = static_cast<int>(k);
    outcome.truth_present = label.present;
    outcome.predicted_present = decision.exists[k];
    outcome.decision_id = decision_id;
    if (label.present && decision.exists[k]) {
      const eventhit::sim::Interval& interval = decision.intervals[k];
      outcome.start_covered = interval.start <= label.start;
      outcome.end_covered = interval.end >= label.end;
    }
    stream.auditor->Observe(outcome);
    if (stream.provenance != nullptr) {
      const bool missed = label.present && !decision.exists[k];
      const int miscovered = label.present && decision.exists[k]
                                 ? (outcome.start_covered ? 0 : 1) +
                                       (outcome.end_covered ? 0 : 1)
                                 : 0;
      stream.provenance->StampVerdict(anchor, label.present, missed,
                                      miscovered);
    }
  }
}

MirrorStream FleetMirror::FinishStream(Stream& stream) {
  EVENTHIT_CHECK_EQ(stream.marshaller->pending_predictions(), 0u);
  stream.relay->Flush(stream.settings.push_frames);
  stream.auditor->Finalize(stream.settings.push_frames);
  MirrorStream out;
  out.marshaller = stream.marshaller->stats();
  out.relay = stream.relay->stats();
  out.invoice = stream.service->invoice();
  const int num_events = static_cast<int>(fleet_.task().event_indices.size());
  for (int k = 0; k < num_events; ++k) {
    out.audit_positives += stream.auditor->positives(k);
    out.audit_misses += stream.auditor->misses(k);
    out.audit_endpoints += stream.auditor->endpoints(k);
    out.audit_miscovered += stream.auditor->miscovered(k);
  }
  out.audit_breaches = stream.auditor->breach_count();
  if (stream.provenance != nullptr) {
    out.provenance_digest = stream.provenance->Digest();
  }
  return out;
}

MirrorRun FleetMirror::Run(Tracer* tracer) {
  const auto start = std::chrono::steady_clock::now();
  const fleet::FleetConfig& config = fleet_.config();
  const core::EventHitModel& model = *trained_.model;
  const std::string_view backend =
      eventhit::nn::BackendKindName(model.inference_backend());
  MirrorRun out;
  out.streams.resize(static_cast<size_t>(config.num_streams));
  // Fresh scratch per pass, so every pass allocates the same.
  eventhit::nn::Workspace ws;
  Span run_span(tracer, kSpanRun);

  for (int wave_start = 0; wave_start < config.num_streams;
       wave_start += config.wave_size) {
    const int wave_n =
        std::min(config.wave_size, config.num_streams - wave_start);
    fleet::ShardArena<Stream> arena(static_cast<size_t>(wave_n));
    for (int i = 0; i < wave_n; ++i) {
      Span span(tracer, kSpanStreamInit);
      InitStream(arena[static_cast<size_t>(i)], wave_start + i, tracer);
    }
    int64_t max_ticks = 0;
    for (int i = 0; i < wave_n; ++i) {
      const fleet::StreamSettings& s = arena[static_cast<size_t>(i)].settings;
      max_ticks = std::max(max_ticks, s.phase + s.push_frames);
    }
    std::vector<int64_t> active_delta(static_cast<size_t>(max_ticks) + 1, 0);
    for (int i = 0; i < wave_n; ++i) {
      const fleet::StreamSettings& s = arena[static_cast<size_t>(i)].settings;
      active_delta[static_cast<size_t>(s.phase)] += 1;
      active_delta[static_cast<size_t>(s.phase + s.push_frames)] -= 1;
    }

    fleet::MpscQueue<fleet::InferenceRequest> queue(
        static_cast<size_t>(wave_n));
    fleet::DynamicBatcher batcher(config.batch_size,
                                  config.max_batch_delay_ticks);
    std::vector<fleet::InferenceRequest> drained;
    drained.reserve(static_cast<size_t>(wave_n));
    int64_t active = 0;
    for (int64_t tick = 0; tick < max_ticks; ++tick) {
      Span tick_span(tracer, kSpanTick);
      active += active_delta[static_cast<size_t>(tick)];
      {
        Span span(tracer, kSpanPush);
        for (int i = 0; i < wave_n; ++i) {
          Stream& stream = arena[static_cast<size_t>(i)];
          const int64_t frame = tick - stream.settings.phase;
          if (frame < 0 || frame >= stream.settings.push_frames) continue;
          EVENTHIT_CHECK_EQ(frame, stream.next_frame);
          const float* features =
              stream.marshaller->NextFrameNeedsFeatures()
                  ? stream.video->FrameFeatures(frame)
                  : nullptr;
          stream.has_request = stream.marshaller->PushFrameDeferred(
              features, &stream.pending_record);
          ++stream.next_frame;
          if (stream.has_request) {
            Span handoff(tracer, kSpanHandoff);
            fleet::InferenceRequest request;
            request.shard_slot = i;
            request.seq = stream.seq++;
            request.anchor_frame = stream.pending_record.frame;
            request.enqueue_tick = tick;
            request.record = std::move(stream.pending_record);
            EVENTHIT_CHECK(queue.TryPush(std::move(request)));
          }
        }
      }

      std::vector<fleet::BatchFlush> flushes;
      {
        Span span(tracer, kSpanHandoff);
        drained.clear();
        queue.DrainTo(&drained);
        std::sort(drained.begin(), drained.end(),
                  [](const fleet::InferenceRequest& a,
                     const fleet::InferenceRequest& b) {
                    return a.shard_slot < b.shard_slot;
                  });
        out.requests += static_cast<int64_t>(drained.size());
        for (auto& request : drained) batcher.Enqueue(std::move(request));
        flushes = batcher.TakeReady(tick, tick == max_ticks - 1);
      }
      if (!flushes.empty()) ++out.flush_ticks;

      for (fleet::BatchFlush& flush : flushes) {
        Span flush_span(tracer, kSpanFlush);
        const size_t n = flush.requests.size();
        int8_t flush_code = obs::kProvFlushNone;
        switch (flush.reason) {
          case fleet::FlushReason::kFull:
            flush_code = obs::kProvFlushFull;
            ++out.flush_full;
            break;
          case fleet::FlushReason::kDeadline:
            flush_code = obs::kProvFlushDeadline;
            ++out.flush_deadline;
            break;
          case fleet::FlushReason::kFinal:
            flush_code = obs::kProvFlushFinal;
            ++out.flush_final;
            break;
        }
        const int64_t batch_id = out.batches++;
        std::vector<data::Record> records;
        std::vector<core::EventScores> scores;
        {
          Span span(tracer, kSpanFlushAssembly);
          records.reserve(n);
          for (auto& request : flush.requests) {
            out.wait_ticks.push_back(
                static_cast<double>(tick - request.enqueue_tick));
            Stream& owner = arena[static_cast<size_t>(request.shard_slot)];
            if (owner.provenance != nullptr) {
              owner.provenance->StampBatch(request.anchor_frame, batch_id,
                                           flush_code,
                                           tick - request.enqueue_tick);
            }
            records.push_back(std::move(request.record));
          }
          scores.resize(n);
        }
        {
          Span span(tracer, kSpanPredict);
          model.PredictBatched(records.data(), n, scores.data(), ws);
        }
        for (size_t j = 0; j < n; ++j) {
          Stream& stream =
              arena[static_cast<size_t>(flush.requests[j].shard_slot)];
          if (stream.provenance != nullptr) {
            stream.provenance->StampInference(
                flush.requests[j].anchor_frame, backend,
                stream.strategy->calibrator_generation());
          }
          core::MarshalDecision decision;
          {
            Span span(tracer, kSpanDecide);
            decision = stream.strategy->DecideFromScores(scores[j]);
          }
          Span span(tracer, kSpanComplete);
          stream.marshaller->CompletePrediction(decision);
        }
      }
      out.frames_pushed += active;
      ++out.ticks;
    }
    EVENTHIT_CHECK_EQ(batcher.pending(), 0u);
    for (int i = 0; i < wave_n; ++i) {
      Span span(tracer, kSpanFinish);
      out.streams[static_cast<size_t>(wave_start + i)] =
          FinishStream(arena[static_cast<size_t>(i)]);
    }
  }
  out.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  return out;
}

}  // namespace perfbench
