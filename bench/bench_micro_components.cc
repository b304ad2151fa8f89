// Microbenchmarks of the pipeline components (google-benchmark), plus the
// §VI.H resource details: EventHit training time, parameter count and an
// estimate of the model's memory footprint.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <iostream>

#include "bench_common.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "nn/backend.h"
#include "nn/gemm.h"
#include "nn/matrix.h"
#include "nn/workspace.h"
#include "core/c_classify.h"
#include "core/c_regress.h"
#include "core/eventhit_model.h"
#include "core/interval_extraction.h"
#include "core/marshaller.h"
#include "core/strategies.h"
#include "obs/metrics.h"
#include "sched/collect_policy.h"
#include "data/record_extractor.h"
#include "eval/metrics.h"
#include "eval/runner.h"
#include "sim/datasets.h"
#include "survival/cox_model.h"

namespace {

namespace core = ::eventhit::core;
namespace data = ::eventhit::data;
namespace sim = ::eventhit::sim;
namespace eval = ::eventhit::eval;
using ::eventhit::Rng;

core::EventHitConfig ThumosModelConfig() {
  core::EventHitConfig config;
  config.collection_window = 10;
  config.horizon = 200;
  config.feature_dim = 10;
  config.num_events = 1;
  return config;
}

data::Record RandomRecord(const core::EventHitConfig& config, Rng& rng) {
  data::Record record;
  record.covariates.resize(
      static_cast<size_t>(config.collection_window) * config.feature_dim);
  for (auto& v : record.covariates) {
    v = static_cast<float>(rng.Uniform());
  }
  record.labels.resize(config.num_events);
  return record;
}

// The batched-GEMM story in one pair of benches: the same 4*Hd x D weight
// panel applied to a batch of B columns, once as B independent MatVecs
// (the per-record reference layers: the weights stream from memory B
// times) and once as a single blocked Gemm (weights loaded once per
// register tile). The ratio is the arithmetic-intensity win the inference
// path is built on.
void BM_MatVecBatchLoop(benchmark::State& state) {
  const size_t rows = 96, cols = 24;
  const auto batch = static_cast<size_t>(state.range(0));
  Rng rng(20);
  eventhit::nn::Matrix w =
      eventhit::nn::Matrix::GlorotUniform(rows, cols, rng);
  std::vector<float> x(cols * batch), y(rows * batch);
  for (auto& v : x) v = static_cast<float>(rng.Uniform());
  for (auto _ : state) {
    for (size_t b = 0; b < batch; ++b) {
      eventhit::nn::MatVec(w, x.data() + b * cols, y.data() + b * rows);
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
}
BENCHMARK(BM_MatVecBatchLoop)->Arg(8)->Arg(32)->Arg(128);

void BM_Gemm(benchmark::State& state) {
  const size_t rows = 96, cols = 24;
  const auto batch = static_cast<size_t>(state.range(0));
  Rng rng(21);
  eventhit::nn::Matrix w =
      eventhit::nn::Matrix::GlorotUniform(rows, cols, rng);
  std::vector<float> x(cols * batch), y(rows * batch, 0.0f);
  for (auto& v : x) v = static_cast<float>(rng.Uniform());
  for (auto _ : state) {
    std::fill(y.begin(), y.end(), 0.0f);
    eventhit::nn::Gemm(rows, batch, cols, w.data(), cols, x.data(), batch,
                       y.data(), batch);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
}
BENCHMARK(BM_Gemm)->Arg(8)->Arg(32)->Arg(128);

// The same GEMM shape through each runtime-dispatched kernel backend
// (nn/backend.h): scalar replays blocked's summation order without the
// register tiling, simd is the explicit AVX2+FMA path (silently the
// blocked table when the CPU lacks it — compare against BM_BackendGemm/
// blocked to tell).
void BM_BackendGemm(benchmark::State& state, eventhit::nn::BackendKind kind) {
  const size_t rows = 96, cols = 24;
  const auto batch = static_cast<size_t>(state.range(0));
  Rng rng(21);
  eventhit::nn::Matrix w =
      eventhit::nn::Matrix::GlorotUniform(rows, cols, rng);
  std::vector<float> x(cols * batch), y(rows * batch, 0.0f);
  for (auto& v : x) v = static_cast<float>(rng.Uniform());
  const auto& backend = eventhit::nn::GetBackend(kind);
  for (auto _ : state) {
    backend.kernels->gemm_zero(rows, batch, cols, w.data(), cols, x.data(),
                               batch, y.data(), batch);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
}
BENCHMARK_CAPTURE(BM_BackendGemm, scalar, eventhit::nn::BackendKind::kScalar)
    ->Arg(32)->Arg(128);
BENCHMARK_CAPTURE(BM_BackendGemm, blocked, eventhit::nn::BackendKind::kBlocked)
    ->Arg(32)->Arg(128);
BENCHMARK_CAPTURE(BM_BackendGemm, simd, eventhit::nn::BackendKind::kSimd)
    ->Arg(32)->Arg(128);

void BM_LstmForwardBackward(benchmark::State& state) {
  Rng rng(2);
  eventhit::nn::Lstm lstm("l", 16, 24, rng);
  std::vector<float> inputs(25 * 16);
  std::vector<float> dh(24, 0.1f);
  for (auto& v : inputs) v = static_cast<float>(rng.Uniform());
  for (auto _ : state) {
    benchmark::DoNotOptimize(lstm.ForwardCached(inputs.data(), 25));
    lstm.Backward(dh.data());
  }
}
BENCHMARK(BM_LstmForwardBackward);

// `batch` sequences one at a time: batch-1 ForwardBatch, what per-record
// Predict runs, on the default blocked table.
void BM_LstmForwardLoop(benchmark::State& state) {
  const size_t steps = 25, dim = 16, hidden = 24;
  const auto batch = static_cast<size_t>(state.range(0));
  Rng rng(23);
  eventhit::nn::Lstm lstm("l", dim, hidden, rng);
  std::vector<float> inputs(batch * steps * dim);
  for (auto& v : inputs) v = static_cast<float>(rng.Uniform());
  std::vector<float> h(hidden);
  eventhit::nn::Workspace ws;
  const auto& blocked =
      eventhit::nn::GetBackend(eventhit::nn::BackendKind::kBlocked);
  for (auto _ : state) {
    for (size_t b = 0; b < batch; ++b) {
      ws.Reset();
      lstm.ForwardBatch(inputs.data() + b * steps * dim, steps, 1, h.data(),
                        ws, blocked);
      benchmark::DoNotOptimize(h.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
}
BENCHMARK(BM_LstmForwardLoop)->Arg(8)->Arg(32);

void BM_LstmForwardBatch(benchmark::State& state) {
  const size_t steps = 25, dim = 16, hidden = 24;
  const auto batch = static_cast<size_t>(state.range(0));
  Rng rng(23);
  eventhit::nn::Lstm lstm("l", dim, hidden, rng);
  // Batch-minor packing, as PredictBatched gathers it.
  std::vector<float> inputs(steps * dim * batch);
  for (auto& v : inputs) v = static_cast<float>(rng.Uniform());
  std::vector<float> h(hidden * batch);
  eventhit::nn::Workspace ws;
  const auto& blocked =
      eventhit::nn::GetBackend(eventhit::nn::BackendKind::kBlocked);
  for (auto _ : state) {
    ws.Reset();
    lstm.ForwardBatch(inputs.data(), steps, batch, h.data(), ws, blocked);
    benchmark::DoNotOptimize(h.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
}
BENCHMARK(BM_LstmForwardBatch)->Arg(8)->Arg(32);

void BM_EventHitInference(benchmark::State& state) {
  core::EventHitConfig config = ThumosModelConfig();
  config.num_events = static_cast<size_t>(state.range(0));
  core::EventHitModel model(config);
  Rng rng(3);
  const data::Record record = RandomRecord(config, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Predict(record));
  }
}
BENCHMARK(BM_EventHitInference)->Arg(1)->Arg(3)->Arg(6);

void BM_EventHitPredictBatch(benchmark::State& state) {
  // End-to-end batched inference (gather + LSTM + trunk + heads) at the
  // default batch size; compare items/s against BM_EventHitInference.
  const core::EventHitConfig config = ThumosModelConfig();
  core::EventHitModel model(config);
  Rng rng(3);
  std::vector<data::Record> records;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    records.push_back(RandomRecord(config, rng));
  }
  std::vector<core::EventScores> scores(records.size());
  eventhit::nn::Workspace ws;
  for (auto _ : state) {
    model.PredictBatched(records.data(), records.size(), scores.data(), ws);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(records.size()));
}
BENCHMARK(BM_EventHitPredictBatch)->Arg(8)->Arg(32)->Arg(128);

// End-to-end batched inference per kernel backend.
void BM_EventHitPredictBatchBackend(benchmark::State& state,
                                    eventhit::nn::BackendKind kind) {
  const core::EventHitConfig config = ThumosModelConfig();
  core::EventHitModel model(config);
  Rng rng(3);
  std::vector<data::Record> records;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    records.push_back(RandomRecord(config, rng));
  }
  model.SetInferenceBackend(kind);
  std::vector<core::EventScores> scores(records.size());
  eventhit::nn::Workspace ws;
  for (auto _ : state) {
    model.PredictBatched(records.data(), records.size(), scores.data(), ws);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(records.size()));
}
BENCHMARK_CAPTURE(BM_EventHitPredictBatchBackend, scalar,
                  eventhit::nn::BackendKind::kScalar)->Arg(32);
BENCHMARK_CAPTURE(BM_EventHitPredictBatchBackend, blocked,
                  eventhit::nn::BackendKind::kBlocked)->Arg(32);
BENCHMARK_CAPTURE(BM_EventHitPredictBatchBackend, simd,
                  eventhit::nn::BackendKind::kSimd)->Arg(32);

// One epoch over 100 positive records (the batched training path), at the
// THUMOS shape (M=10, H=200) and the Breakfast shape (M=50, H=500) that
// dominates the long-window fleet's set-up.
void BM_EventHitTrainEpoch(benchmark::State& state, int window, int horizon) {
  core::EventHitConfig config = ThumosModelConfig();
  config.collection_window = window;
  config.horizon = horizon;
  config.epochs = 1;
  Rng rng(4);
  std::vector<data::Record> records;
  for (int i = 0; i < 100; ++i) {
    data::Record record = RandomRecord(config, rng);
    record.labels[0].present = true;
    record.labels[0].start = 20;
    record.labels[0].end = 60;
    records.push_back(std::move(record));
  }
  for (auto _ : state) {
    core::EventHitModel model(config);
    benchmark::DoNotOptimize(model.Train(records));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(records.size()));
}
BENCHMARK_CAPTURE(BM_EventHitTrainEpoch, thumos, 10, 200)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EventHitTrainEpoch, breakfast, 50, 500)
    ->Unit(benchmark::kMillisecond);

void BM_ConformalPValue(benchmark::State& state) {
  Rng rng(5);
  std::vector<std::vector<double>> scores(1);
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    scores[0].push_back(rng.Uniform());
  }
  const core::CClassify cclassify(std::move(scores));
  core::EventScores event_scores;
  event_scores.existence = {0.5};
  event_scores.occupancy.resize(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cclassify.PValues(event_scores));
  }
}
BENCHMARK(BM_ConformalPValue)->Arg(100)->Arg(1000)->Arg(10000);

void BM_CRegressAdjust(benchmark::State& state) {
  Rng rng(6);
  std::vector<double> start_res, end_res;
  for (int i = 0; i < 500; ++i) {
    start_res.push_back(rng.Uniform(0, 50));
    end_res.push_back(rng.Uniform(0, 50));
  }
  const core::CRegress cregress({start_res}, {end_res}, 500);
  const sim::Interval estimate{100, 200};
  for (auto _ : state) {
    benchmark::DoNotOptimize(cregress.Adjust(0, estimate, 0.8));
  }
}
BENCHMARK(BM_CRegressAdjust);

void BM_IntervalExtraction(benchmark::State& state) {
  Rng rng(7);
  std::vector<float> theta(static_cast<size_t>(state.range(0)));
  for (auto& v : theta) v = static_cast<float>(rng.Uniform());
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ExtractOccurrenceInterval(theta, 0.5));
  }
}
BENCHMARK(BM_IntervalExtraction)->Arg(200)->Arg(500)->Arg(900);

void BM_CoxSurvivalEvaluation(benchmark::State& state) {
  Rng rng(8);
  std::vector<eventhit::survival::CoxObservation> observations;
  for (int i = 0; i < 500; ++i) {
    eventhit::survival::CoxObservation obs;
    obs.covariates = {rng.Gaussian(), rng.Gaussian()};
    obs.time = 1.0 + rng.Exponential(50.0);
    obs.observed = rng.Bernoulli(0.6);
    observations.push_back(std::move(obs));
  }
  const auto model = eventhit::survival::CoxModel::Fit(observations);
  const std::vector<double> covariates{0.3, -0.2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.value().Survival(100.0, covariates));
  }
}
BENCHMARK(BM_CoxSurvivalEvaluation);

void BM_RecordExtraction(benchmark::State& state) {
  sim::DatasetSpec spec = sim::MakeDatasetSpec(sim::DatasetId::kThumos);
  spec.num_frames = 50000;
  const sim::SyntheticVideo video = sim::SyntheticVideo::Generate(spec, 9);
  const data::Task task = data::FindTask("TA10").value();
  data::ExtractorConfig config;
  config.collection_window = 10;
  config.horizon = 200;
  int64_t frame = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(data::BuildRecord(video, task, config, frame));
    frame = frame >= 40000 ? 1000 : frame + 37;
  }
}
BENCHMARK(BM_RecordExtraction);

// Collection-scheduling cost units (sched/, DESIGN.md §5i): the per-frame
// feature path every pushed frame pays, then the marshaller driver loop
// under each collection policy. The full-vs-throttled items/s ratio is
// the driver-side saving the sched.frames.* counters account for (the
// simulated lookup stands in for the real per-frame CNN the cost model
// prices at sched::LocalCostModel::feature_mflops_per_frame).
void BM_FeatureExtractPerFrame(benchmark::State& state) {
  sim::DatasetSpec spec = sim::MakeDatasetSpec(sim::DatasetId::kThumos);
  spec.num_frames = 20000;
  const sim::SyntheticVideo video = sim::SyntheticVideo::Generate(spec, 13);
  const size_t dim = video.feature_dim();
  const size_t window = 10;
  std::vector<float> ring(window * dim);
  int64_t frame = 0;
  for (auto _ : state) {
    const float* features = video.FrameFeatures(frame);
    std::copy(features, features + dim,
              ring.begin() + static_cast<size_t>(frame % window) * dim);
    benchmark::DoNotOptimize(ring.data());
    frame = frame + 1 >= video.num_frames() ? 0 : frame + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FeatureExtractPerFrame);

// A fixed quiet strategy so the marshaller loop itself is measured (ring
// upkeep, boundary bookkeeping, relay/metric plumbing), not inference.
// max_existence sits below the adaptive low-water mark, so the adaptive
// variant throttles exactly like a quiet stream would: skipped boundaries
// replay the last decision and the frames between scored windows bypass
// the feature copy entirely (Marshaller::NextFrameNeedsFeatures).
class QuietStrategy : public core::MarshalStrategy {
 public:
  std::string name() const override { return "quiet"; }
  core::MarshalDecision Decide(const data::Record& record) const override {
    core::MarshalDecision decision;
    decision.exists.assign(record.labels.size(), false);
    decision.intervals.resize(record.labels.size());
    decision.max_existence = 0.05;
    return decision;
  }
};

void BM_MarshallerPushFrame(benchmark::State& state,
                            const char* policy_text) {
  const int window = 10, horizon = 200;
  sim::DatasetSpec spec = sim::MakeDatasetSpec(sim::DatasetId::kThumos);
  spec.num_frames = 20000;
  const sim::SyntheticVideo video = sim::SyntheticVideo::Generate(spec, 13);
  const QuietStrategy strategy;
  const eventhit::sched::CollectPolicySpec policy =
      eventhit::sched::ParseCollectPolicy(policy_text).value();
  eventhit::obs::MetricsRegistry registry;
  core::Marshaller marshaller(&strategy, window, horizon,
                              video.feature_dim(), /*num_events=*/1,
                              &registry);
  if (policy.kind != eventhit::sched::CollectPolicyKind::kFull) {
    marshaller.set_collect_policy(eventhit::sched::MakeCollectPolicy(policy));
  }
  int64_t frame = 0;
  for (auto _ : state) {
    const float* features = marshaller.NextFrameNeedsFeatures()
                                ? video.FrameFeatures(frame)
                                : nullptr;
    marshaller.PushFrame(features);
    frame = frame + 1 >= video.num_frames() ? 0 : frame + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_MarshallerPushFrame, full, "full");
BENCHMARK_CAPTURE(BM_MarshallerPushFrame, duty25, "duty:0.25");
BENCHMARK_CAPTURE(BM_MarshallerPushFrame, adaptive, "adaptive");

void BM_StreamGeneration(benchmark::State& state) {
  sim::DatasetSpec spec = sim::MakeDatasetSpec(sim::DatasetId::kThumos);
  spec.num_frames = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::SyntheticVideo::Generate(spec, 11));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StreamGeneration)->Arg(20000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// A fleet stream's video: only the frames its (M, H) windows read are
// materialized, the rest only advance the random streams. Items are all
// frames, so ns/frame compares with the whole video's directly.
void BM_StreamGenerationWindowed(benchmark::State& state,
                                 sim::DatasetId dataset, int64_t frames) {
  sim::DatasetSpec spec = sim::MakeDatasetSpec(dataset);
  spec.num_frames = frames;
  const sim::FrameSelection windows{spec.collection_window, spec.horizon};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::SyntheticVideo::Generate(spec, 11, windows));
  }
  state.SetItemsProcessed(state.iterations() * frames);
}
BENCHMARK_CAPTURE(BM_StreamGenerationWindowed, thumos_1200_m10_h200,
                  sim::DatasetId::kThumos, 1200)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_StreamGenerationWindowed, breakfast_2700_m50_h500,
                  sim::DatasetId::kBreakfast, 2700)
    ->Unit(benchmark::kMicrosecond);

// Four such streams generated as one group, as a fleet wave does: where
// the CPU has AVX2 their left-out frames step in four lanes. Items are
// all four streams' frames, so ns/frame compares with the single-stream
// rows above.
void BM_StreamGenerationGrouped(benchmark::State& state,
                                sim::DatasetId dataset, int64_t frames) {
  std::vector<sim::DatasetSpec> specs(4, sim::MakeDatasetSpec(dataset));
  std::vector<sim::VideoSource> sources;
  for (size_t i = 0; i < specs.size(); ++i) {
    specs[i].num_frames = frames;
    sources.push_back({&specs[i], 11 + i});
  }
  const sim::FrameSelection windows{specs[0].collection_window,
                                    specs[0].horizon};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::SyntheticVideo::GenerateGroup(sources, windows));
  }
  state.SetItemsProcessed(state.iterations() * frames *
                          static_cast<int64_t>(specs.size()));
}
BENCHMARK_CAPTURE(BM_StreamGenerationGrouped, thumos_4x1200_m10_h200,
                  sim::DatasetId::kThumos, 1200)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_StreamGenerationGrouped, breakfast_4x2700_m50_h500,
                  sim::DatasetId::kBreakfast, 2700)
    ->Unit(benchmark::kMicrosecond);

void PrintResourceDetails() {
  // §VI.H: training time, parameters, memory (weights + Adam moments).
  // A full 1000-record training run dominates a smoke pass, so FastMode
  // shrinks it (the timing row is then only indicative).
  const int num_records = eventhit::bench::FastMode() ? 100 : 1000;
  std::cout << "\n=== §VI.H resource details (THUMOS-shaped model, "
            << num_records << " records) ===\n";
  eventhit::TablePrinter table({"Quantity", "Value"});
  core::EventHitConfig config = ThumosModelConfig();
  core::EventHitModel model(config);
  Rng rng(12);
  std::vector<data::Record> records;
  for (int i = 0; i < num_records; ++i) {
    data::Record record = RandomRecord(config, rng);
    if (rng.Bernoulli(0.5)) {
      record.labels[0].present = true;
      record.labels[0].start = 20;
      record.labels[0].end = 60;
    }
    records.push_back(std::move(record));
  }
  const auto start = std::chrono::steady_clock::now();
  model.Train(records);
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  const size_t params = model.ParameterCount();
  table.AddRow({"Trainable parameters", eventhit::Fmt(
                                            static_cast<int64_t>(params))});
  table.AddRow({"Training time (" +
                    eventhit::Fmt(static_cast<int64_t>(num_records)) +
                    " records)",
                eventhit::Fmt(elapsed, 2) + " s"});
  // value + grad + 2 Adam moments, 4 bytes each.
  table.AddRow({"Approx. training memory (weights+opt)",
                eventhit::Fmt(static_cast<double>(params) * 4 * 4 / 1024.0,
                              1) +
                    " KiB"});
  table.Print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  PrintResourceDetails();
  return 0;
}
