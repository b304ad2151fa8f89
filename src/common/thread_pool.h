// Deterministic parallel-execution substrate.
//
// A fixed pool of worker threads plus a chunked, work-stealing-free
// ParallelFor: the index range [0, n) is split into exactly `threads`
// contiguous chunks whose boundaries depend only on (n, threads), so the
// set of indices each logical worker touches is reproducible run to run.
// Combined with per-stream derived seeds (SplitSeed in common/rng.h) this
// lets every parallelised stage produce byte-identical output to its
// serial counterpart: workers never share RNG state and every result is
// written to a caller-indexed slot, with any reduction done serially in
// index order afterwards.
//
// Exceptions thrown inside ParallelFor bodies are captured per chunk and
// rethrown on the calling thread; when several chunks throw, the one with
// the lowest chunk index wins (again: deterministic).
#ifndef EVENTHIT_COMMON_THREAD_POOL_H_
#define EVENTHIT_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace eventhit {

/// Fixed-size worker pool. `threads == 1` is the serial fallback: no worker
/// threads are spawned and every body runs inline on the calling thread.
/// The pool is not reentrant — a ParallelFor body must not submit work to
/// the pool that owns it (nested stages run serially instead; see
/// ExecutionContext::Inner).
class ThreadPool {
 public:
  /// Spawns `threads - 1` workers; the calling thread executes chunk 0 of
  /// every ParallelFor, so `threads` is the true concurrency level.
  /// Requires threads >= 1.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threads() const { return threads_; }

  /// Runs body(i) for every i in [0, n). Chunk c covers the contiguous
  /// range [c*n/threads, (c+1)*n/threads). Blocks until all chunks finish;
  /// rethrows the lowest-chunk-index exception, if any.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

  /// Chunk-granular form: body(chunk, begin, end) once per non-empty chunk.
  /// `chunk` is a stable id in [0, threads) usable for per-chunk scratch
  /// state or derived seeds.
  void ParallelForChunked(
      size_t n, const std::function<void(int, size_t, size_t)>& body);

  /// Thread count to use when the caller asked for "auto" (<= 0):
  /// EVENTHIT_THREADS if set, else std::thread::hardware_concurrency.
  /// Always >= 1: a non-numeric, zero, negative, out-of-range or
  /// trailing-junk EVENTHIT_THREADS is ignored, and a zero
  /// hardware_concurrency() (the standard's "unknown" answer) clamps to
  /// the serial fallback instead of poisoning chunk math downstream.
  static int DefaultThreads();

  /// Pure resolution logic behind DefaultThreads, exposed for testing:
  /// `env` is the raw EVENTHIT_THREADS value (nullptr = unset) and
  /// `hardware` the hardware_concurrency() answer (0 = unknown).
  static int ResolveDefaultThreads(const char* env, unsigned hardware);

 private:
  struct Job {
    const std::function<void(int, size_t, size_t)>* body = nullptr;
    size_t n = 0;
    uint64_t epoch = 0;
  };

  void WorkerLoop(int worker_index);
  void RunChunk(const Job& job, int chunk);
  void ChunkBounds(size_t n, int chunk, size_t* begin, size_t* end) const;

  const int threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  Job job_;                 // Guarded by mu_.
  uint64_t epoch_ = 0;      // Incremented per ParallelFor; guarded by mu_.
  int pending_ = 0;         // Worker chunks not yet finished; guarded by mu_.
  bool shutdown_ = false;   // Guarded by mu_.
  std::vector<std::exception_ptr> chunk_errors_;  // One slot per chunk.
  std::mutex submit_mu_;    // Serialises concurrent ParallelFor callers.
};

/// Carries the parallelism settings of one experiment: a thread count, a
/// base seed from which per-task RNG streams are derived, and the shared
/// pool. Cheap to copy (the pool is shared). Default-constructed contexts
/// are serial, so every existing call site keeps its exact behaviour.
class ExecutionContext {
 public:
  /// `threads <= 0` resolves via ThreadPool::DefaultThreads().
  explicit ExecutionContext(int threads = 1, uint64_t base_seed = 0);

  int threads() const { return pool_ ? pool_->threads() : 1; }
  uint64_t base_seed() const { return base_seed_; }

  /// Deterministic per-task seed: depends only on (base_seed, stream_id),
  /// never on scheduling. See SplitSeed in common/rng.h.
  uint64_t SeedFor(uint64_t stream_id) const;

  /// The pool backing parallel sections; nullptr when serial.
  ThreadPool* pool() const { return pool_.get(); }

  /// Runs body(i) over [0, n) — through the pool when threads() > 1,
  /// inline otherwise. The single entry point used by all wired-in stages.
  /// `body` is called through a reference, never copied: a lambda whose
  /// captures outgrow std::function's local buffer would otherwise cost a
  /// heap allocation per call (the fleet calls this on every busy tick).
  template <typename Body>
  void ParallelFor(size_t n, Body&& body) const {
    ParallelForRef(n, std::ref(body));
  }

  /// Serial context for stages nested inside a ParallelFor body (the pool
  /// is not reentrant). Keeps the base seed so derived streams line up.
  ExecutionContext Inner() const {
    return ExecutionContext(1, base_seed_);
  }

 private:
  void ParallelForRef(size_t n,
                      const std::function<void(size_t)>& body) const;

  uint64_t base_seed_ = 0;
  std::shared_ptr<ThreadPool> pool_;  // Null when threads == 1.
};

}  // namespace eventhit

#endif  // EVENTHIT_COMMON_THREAD_POOL_H_
