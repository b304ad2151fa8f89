// Cross-stream dynamic batcher: coalesces pending inference requests from
// many streams into PredictBatched-sized GEMM calls.
//
// Flush rules (DESIGN.md §5g):
//   * batch-full  — whenever `batch_size` requests are pending, the oldest
//     `batch_size` flush immediately;
//   * deadline    — a request waits at most `max_delay_ticks` simulated
//     ticks; once the oldest pending request hits its deadline, a batch
//     flushes even if underfull (padded with younger requests up to
//     `batch_size` so the GEMM stays as full as possible);
//   * final       — end of wave: everything still pending flushes.
//
// The batcher is plain serial state driven from the fleet's tick loop,
// which enqueues each tick's requests in shard-slot order once the parallel
// push phase has joined. Requests flush strictly in enqueue order, so each
// stream's requests complete in FIFO order — the
// Marshaller::CompletePrediction contract.
#ifndef EVENTHIT_FLEET_DYNAMIC_BATCHER_H_
#define EVENTHIT_FLEET_DYNAMIC_BATCHER_H_

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/check.h"
#include "data/record.h"

namespace eventhit::fleet {

/// One deferred prediction travelling from a stream's push phase to a
/// batched GEMM flush.
struct InferenceRequest {
  int shard_slot = -1;       // Wave-local shard index (canonical order key).
  int64_t seq = 0;           // Optional caller numbering; unused here.
  int64_t anchor_frame = 0;  // Local stream frame of the prediction point.
  int64_t enqueue_tick = 0;  // Fleet tick the request entered the batcher.
  data::Record record;       // Covariate window (labels unknown).
};

enum class FlushReason { kFull, kDeadline, kFinal };

struct BatchFlush {
  FlushReason reason = FlushReason::kFull;
  std::vector<InferenceRequest> requests;
};

class DynamicBatcher {
 public:
  DynamicBatcher(size_t batch_size, int64_t max_delay_ticks)
      : batch_size_(batch_size), max_delay_ticks_(max_delay_ticks) {
    EVENTHIT_CHECK_GT(batch_size_, 0u);
    EVENTHIT_CHECK_GE(max_delay_ticks_, 0);
  }

  void Enqueue(InferenceRequest request) {
    pending_.push_back(std::move(request));
  }

  size_t pending() const { return pending_.size(); }

  /// Pops every batch ready at `tick`: full batches first, then the
  /// deadline sweep; `final` flushes the remainder regardless of age.
  std::vector<BatchFlush> TakeReady(int64_t tick, bool final) {
    std::vector<BatchFlush> flushes;
    while (pending_.size() >= batch_size_) {
      flushes.push_back(Pop(batch_size_, FlushReason::kFull));
    }
    while (!pending_.empty() &&
           tick - pending_.front().enqueue_tick >= max_delay_ticks_) {
      flushes.push_back(Pop(std::min(pending_.size(), batch_size_),
                            FlushReason::kDeadline));
    }
    if (final && !pending_.empty()) {
      while (!pending_.empty()) {
        flushes.push_back(
            Pop(std::min(pending_.size(), batch_size_), FlushReason::kFinal));
      }
    }
    return flushes;
  }

 private:
  BatchFlush Pop(size_t count, FlushReason reason) {
    BatchFlush flush;
    flush.reason = reason;
    flush.requests.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      flush.requests.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
    return flush;
  }

  const size_t batch_size_;
  const int64_t max_delay_ticks_;
  std::deque<InferenceRequest> pending_;
};

}  // namespace eventhit::fleet

#endif  // EVENTHIT_FLEET_DYNAMIC_BATCHER_H_
