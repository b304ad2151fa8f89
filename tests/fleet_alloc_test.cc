// Heap-allocation contract of the fleet's steady-state boundary (DESIGN.md
// §5g): once a fleet has run once, a Run() allocates only for what its
// streams are — videos, pipelines, per-wave scratch — and nothing per
// boundary. Two fleets that differ only in how many boundaries each stream
// reaches must therefore allocate exactly as often in a warm Run(), under
// the full and duty-cycled policies and with faulty relays that buffer and
// replay orders, with the provenance ledger on.
//
// This binary replaces the global operator new with a counting one, so it
// holds this test alone.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/relay.h"
#include "data/tasks.h"
#include "fleet/stream_fleet.h"
#include "sched/collect_policy.h"
#include "sim/synthetic_video.h"

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

namespace eventhit::fleet {
namespace {

struct Case {
  std::string name;
  std::string policy;
  std::string faults;
  bool replays = false;  // The relay must buffer and replay orders.
};

FleetConfig CaseConfig(const Case& c, int64_t frames_per_stream) {
  FleetConfig config;
  config.num_streams = 6;
  config.wave_size = 4;  // A partial second wave.
  config.base_seed = 91;
  config.frames_per_stream = frames_per_stream;
  config.batch_size = 4;
  config.max_batch_delay_ticks = 3;
  config.threads = 1;
  config.provenance = true;
  config.recal = false;
  config.runner.collect_policy = sched::ParseCollectPolicy(c.policy).value();
  config.fault_profile = c.faults;
  if (c.faults != "none") {
    config.degraded_mode = cloud::DegradedMode::kBufferAndReplay;
  }
  config.runner.stream_frames_override = 30000;
  config.runner.train_records = 80;
  config.runner.calib_records = 120;
  config.runner.test_records = 60;
  config.runner.model_template.epochs = 2;
  config.runner.seed = 91;
  // C-CLASSIFY at c = 0.99 predicts nearly every horizon present, so
  // nearly every boundary relays an order.
  config.confidence = 0.99;
  return config;
}

// Which (stream, event type) pairs have no occurrence in the stream's
// video. A timeline stores nothing for an event type that never occurs, so
// only fleets alike in this respect hold the same number of buffers.
std::vector<bool> EmptyTimelines(const StreamFleet& fleet) {
  std::vector<bool> empty;
  for (int i = 0; i < fleet.config().num_streams; ++i) {
    const StreamSettings s = fleet.DeriveStreamSettings(i);
    const sim::SyntheticVideo video = sim::SyntheticVideo::Generate(
        s.spec, s.video_seed,
        StreamVideoSelection(s, fleet.config().runner.collect_policy));
    for (size_t k = 0; k < video.num_event_types(); ++k) {
      empty.push_back(video.timeline().occurrences(k).empty());
    }
  }
  return empty;
}

// Allocations of one Run() of a fleet that has already run once, and what
// the run did.
struct WarmRun {
  int64_t allocations = 0;
  int64_t boundaries = 0;
  int64_t relay_orders = 0;
  int64_t replayed_orders = 0;
  std::vector<bool> empty_timelines;
};

WarmRun CountWarmRun(const data::Task& task, const FleetConfig& config) {
  StreamFleet fleet(task, config);
  fleet.Run();  // Warm-up.
  WarmRun out;
  const int64_t before = g_allocations.load();
  const FleetRunResult run = fleet.Run();
  out.allocations = g_allocations.load() - before;
  for (const FleetStreamResult& stream : run.streams) {
    out.boundaries += stream.marshaller.horizons_predicted;
    out.relay_orders += stream.relay.orders_submitted;
    out.replayed_orders += stream.relay.orders_replayed;
  }
  out.empty_timelines = EmptyTimelines(fleet);
  return out;
}

constexpr int64_t kShortFrames = 20210;
constexpr int64_t kLongFrames = 28210;

TEST(FleetAllocTest, WarmRunAllocationsDoNotGrowWithBoundaries) {
  const data::Task task = data::FindTask("TA10").value();  // M=10, H=200.
  // A flaky relay exhausts its retries on about one order in 120, which
  // it buffers and replays at once.
  const Case cases[] = {
      {"full", "full", "none"},
      {"duty", "duty:0.5", "none"},
      {"full-flaky", "full", "flaky", /*replays=*/true},
      {"duty-flaky", "duty:0.5", "flaky", /*replays=*/true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    // Both lengths leave the same partial last horizon; the longer stream
    // reaches forty more boundaries.
    const WarmRun shorter = CountWarmRun(task, CaseConfig(c, kShortFrames));
    const WarmRun longer = CountWarmRun(task, CaseConfig(c, kLongFrames));
    ASSERT_EQ(shorter.empty_timelines, longer.empty_timelines);
    ASSERT_GT(longer.boundaries, shorter.boundaries);
    ASSERT_GT(shorter.relay_orders, 0);
    if (c.replays) {
      ASSERT_GT(shorter.replayed_orders, 0);
    }
    EXPECT_EQ(longer.allocations, shorter.allocations)
        << shorter.boundaries << " vs " << longer.boundaries
        << " boundaries";
  }
}

}  // namespace
}  // namespace eventhit::fleet
