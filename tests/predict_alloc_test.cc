// Heap-allocation contract of the forward pass: once a Workspace is warm
// and the EventScores it fills are reused, EventHitModel::PredictBatched
// makes no heap allocation at all — under every backend, at the batch that
// warmed it and at any smaller one. The fleet keeps its flush scratch
// run-scoped on the strength of this (StreamFleet::Run). Predict, the same
// pass at batch 1 on a thread-local Workspace, allocates only the scores
// it returns.
//
// This binary replaces the global operator new with a counting one, so it
// holds this test alone.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/eventhit_model.h"
#include "nn/backend.h"
#include "nn/workspace.h"

namespace {

std::atomic<int64_t> g_allocations{0};

void* CountedAllocate(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAllocate(size); }
void* operator new[](std::size_t size) { return CountedAllocate(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace eventhit::core {
namespace {

constexpr int kWindow = 12;
constexpr int kHorizon = 40;
constexpr size_t kFeatures = 6;
constexpr size_t kEvents = 2;

EventHitConfig SmallConfig() {
  EventHitConfig config;
  config.collection_window = kWindow;
  config.horizon = kHorizon;
  config.feature_dim = kFeatures;
  config.num_events = kEvents;
  return config;
}

std::vector<data::Record> MakeRecords(size_t n) {
  Rng rng(77);
  std::vector<data::Record> records(n);
  for (data::Record& record : records) {
    record.covariates.resize(static_cast<size_t>(kWindow) * kFeatures);
    for (float& v : record.covariates) {
      v = static_cast<float>(rng.Gaussian(0.0, 1.0));
    }
  }
  return records;
}

TEST(PredictAllocTest, WarmPredictBatchedMakesNoHeapAllocation) {
  EventHitModel model(SmallConfig());
  const std::vector<data::Record> records = MakeRecords(24);

  for (const nn::BackendKind kind : nn::AllBackendKinds()) {
    model.SetInferenceBackend(kind);
    nn::Workspace ws;
    std::vector<EventScores> scores(records.size());
    // Warm-up: the first pass sizes every existence/occupancy vector and
    // may spill the arena into overflow blocks, which the second pass's
    // Reset coalesces into one block of the high-water size.
    for (int pass = 0; pass < 2; ++pass) {
      model.PredictBatched(records.data(), records.size(), scores.data(),
                           ws);
    }
    for (const size_t batch : {records.size(), size_t{13}, size_t{1}}) {
      const int64_t before = g_allocations.load();
      model.PredictBatched(records.data(), batch, scores.data(), ws);
      EXPECT_EQ(g_allocations.load() - before, 0)
          << nn::BackendKindName(kind) << " batch " << batch;
    }
  }
}

// Predict's thread-local arena is reused: after two warm-up calls on the
// thread, a call allocates exactly the EventScores it returns (existence,
// occupancy and one theta vector per event) and nothing else.
TEST(PredictAllocTest, WarmPredictAllocatesOnlyItsScores) {
  EventHitModel model(SmallConfig());
  const std::vector<data::Record> records = MakeRecords(3);
  for (const nn::BackendKind kind : nn::AllBackendKinds()) {
    model.SetInferenceBackend(kind);
    for (int pass = 0; pass < 2; ++pass) model.Predict(records[0]);
    for (const data::Record& record : records) {
      const int64_t before = g_allocations.load();
      const EventScores scores = model.Predict(record);
      EXPECT_EQ(g_allocations.load() - before,
                static_cast<int64_t>(2 + kEvents))
          << nn::BackendKindName(kind);
      EXPECT_EQ(scores.occupancy.size(), kEvents);
    }
  }
}

// The counter itself works: a cold pass with fresh EventScores allocates.
TEST(PredictAllocTest, ColdPredictBatchedIsCounted) {
  const EventHitModel model(SmallConfig());
  const std::vector<data::Record> records = MakeRecords(8);
  nn::Workspace ws;
  std::vector<EventScores> scores(records.size());
  const int64_t before = g_allocations.load();
  model.PredictBatched(records.data(), records.size(), scores.data(), ws);
  EXPECT_GT(g_allocations.load() - before, 0);
}

}  // namespace
}  // namespace eventhit::core
