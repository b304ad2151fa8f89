#include "common/thread_pool.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <limits>

#include "common/check.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/schema.h"
#include "obs/trace.h"

namespace eventhit {

namespace {

// Pool telemetry (docs/TELEMETRY.md). Counters are side channels on the
// coarse chunk granularity — the per-item loop stays untouched, so the
// parallel-equals-serial byte-identity contract is unaffected and the
// overhead is a handful of relaxed atomics per ParallelFor call.
struct PoolMetrics {
  obs::Counter* calls;
  obs::Counter* chunks;
  obs::Counter* items;
  obs::Counter* busy_micros;
  obs::Gauge* threads;
  obs::Histogram* call_items;

  static const PoolMetrics& Get() {
    static const PoolMetrics* metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      auto* m = new PoolMetrics();
      m->calls = registry.GetCounter(obs::names::kThreadPoolParallelForCalls);
      m->chunks = registry.GetCounter(obs::names::kThreadPoolChunksExecuted);
      m->items = registry.GetCounter(obs::names::kThreadPoolItemsProcessed);
      m->busy_micros =
          registry.GetCounter(obs::names::kThreadPoolWorkerBusyMicros);
      m->threads = registry.GetGauge(obs::names::kThreadPoolThreads);
      m->call_items = registry.GetHistogram(
          obs::names::kThreadPoolParallelForItems, obs::ItemCountBounds());
      return m;
    }();
    return *metrics;
  }
};

}  // namespace

ThreadPool::ThreadPool(int threads) : threads_(threads) {
  EVENTHIT_CHECK_GE(threads, 1);
  PoolMetrics::Get().threads->Set(static_cast<double>(threads));
  chunk_errors_.resize(static_cast<size_t>(threads));
  workers_.reserve(static_cast<size_t>(threads - 1));
  for (int w = 1; w < threads; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::ChunkBounds(size_t n, int chunk, size_t* begin,
                             size_t* end) const {
  // Depends only on (n, threads_): chunk boundaries are a pure function of
  // the range, never of scheduling.
  const auto t = static_cast<size_t>(threads_);
  const auto c = static_cast<size_t>(chunk);
  *begin = n * c / t;
  *end = n * (c + 1) / t;
}

void ThreadPool::RunChunk(const Job& job, int chunk) {
  size_t begin = 0, end = 0;
  ChunkBounds(job.n, chunk, &begin, &end);
  if (begin >= end) return;
  const PoolMetrics& metrics = PoolMetrics::Get();
  obs::TraceSpan span(obs::names::kSpanThreadPoolChunk, "threadpool");
  const auto start = std::chrono::steady_clock::now();
  try {
    (*job.body)(chunk, begin, end);
  } catch (...) {
    chunk_errors_[static_cast<size_t>(chunk)] = std::current_exception();
  }
  const auto busy = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  metrics.chunks->Add(1);
  metrics.items->Add(static_cast<int64_t>(end - begin));
  metrics.busy_micros->Add(busy.count());
}

void ThreadPool::WorkerLoop(int worker_index) {
  uint64_t seen_epoch = 0;
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [this, seen_epoch] {
        return shutdown_ || job_.epoch > seen_epoch;
      });
      if (shutdown_) return;
      job = job_;
      seen_epoch = job.epoch;
    }
    RunChunk(job, worker_index);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --pending_;
    }
    work_done_.notify_one();
  }
}

void ThreadPool::ParallelForChunked(
    size_t n, const std::function<void(int, size_t, size_t)>& body) {
  if (n == 0) return;
  if (threads_ == 1) {
    // Serial fallback: no queueing, no synchronisation, exceptions
    // propagate natively.
    body(0, 0, n);
    return;
  }
  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  const PoolMetrics& metrics = PoolMetrics::Get();
  metrics.calls->Add(1);
  metrics.call_items->Observe(static_cast<double>(n));
  for (auto& error : chunk_errors_) error = nullptr;
  Job job;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_.body = &body;
    job_.n = n;
    job_.epoch = ++epoch_;
    pending_ = threads_ - 1;
    job = job_;
  }
  work_ready_.notify_all();
  RunChunk(job, 0);  // The caller executes chunk 0.
  {
    std::unique_lock<std::mutex> lock(mu_);
    work_done_.wait(lock, [this] { return pending_ == 0; });
  }
  for (auto& error : chunk_errors_) {
    if (error != nullptr) std::rethrow_exception(error);
  }
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& body) {
  ParallelForChunked(n, [&body](int /*chunk*/, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) body(i);
  });
}

int ThreadPool::ResolveDefaultThreads(const char* env, unsigned hardware) {
  if (env != nullptr && *env != '\0') {
    // Strict parse: atoi's silent 0 on junk and undefined behaviour on
    // overflow both used to fall through here. Anything that is not a
    // complete in-range positive decimal number is ignored.
    errno = 0;
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (errno == 0 && end != env && *end == '\0' && parsed >= 1 &&
        parsed <= std::numeric_limits<int>::max()) {
      return static_cast<int>(parsed);
    }
  }
  // hardware_concurrency() == 0 means "unknown" — clamp to the serial
  // fallback so a 0 can never propagate into chunk math.
  return hardware >= 1 ? static_cast<int>(hardware) : 1;
}

int ThreadPool::DefaultThreads() {
  return ResolveDefaultThreads(std::getenv("EVENTHIT_THREADS"),
                               std::thread::hardware_concurrency());
}

ExecutionContext::ExecutionContext(int threads, uint64_t base_seed)
    : base_seed_(base_seed) {
  if (threads <= 0) threads = ThreadPool::DefaultThreads();
  if (threads > 1) pool_ = std::make_shared<ThreadPool>(threads);
}

uint64_t ExecutionContext::SeedFor(uint64_t stream_id) const {
  return SplitSeed(base_seed_, stream_id);
}

void ExecutionContext::ParallelForRef(
    size_t n, const std::function<void(size_t)>& body) const {
  if (pool_ != nullptr) {
    pool_->ParallelFor(n, body);
    return;
  }
  for (size_t i = 0; i < n; ++i) body(i);
}

}  // namespace eventhit
