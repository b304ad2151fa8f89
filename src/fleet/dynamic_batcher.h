// Cross-stream dynamic batcher: coalesces pending inference requests from
// many streams into batched scoring calls (StreamFleet scores a flush with
// EventHitModel::PredictHeads).
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
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/vector_fifo.h"
#include "data/record.h"

namespace eventhit::fleet {

/// One deferred prediction travelling from a stream's push phase to a
/// batched GEMM flush.
struct InferenceRequest {
  int shard_slot = -1;       // Wave-local shard index (canonical order key).
  int64_t seq = 0;           // Optional caller numbering; unused here.
  int64_t anchor_frame = 0;  // Local stream frame of the prediction point.
  int64_t enqueue_tick = 0;  // Fleet tick the request entered the batcher.
  // Covariate window (labels unknown), for callers that score whole
  // windows. StreamFleet leaves it empty: its requests' windows are
  // encoded as their frames arrive, and request seq's encoding is row seq
  // of the fleet's own queue.
  data::Record record;
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
  /// deadline sweep; `final` flushes the remainder regardless of age. The
  /// flushes are the batcher's own and stay valid until the next call;
  /// their request vectors keep their capacity, so a warm batcher takes
  /// flushes without allocating.
  std::span<BatchFlush> TakeReadyInPlace(int64_t tick, bool final) {
    ready_ = 0;
    while (pending_.size() >= batch_size_) {
      Pop(batch_size_, FlushReason::kFull);
    }
    while (!pending_.empty() &&
           tick - pending_.front().enqueue_tick >= max_delay_ticks_) {
      Pop(std::min(pending_.size(), batch_size_), FlushReason::kDeadline);
    }
    if (final) {
      while (!pending_.empty()) {
        Pop(std::min(pending_.size(), batch_size_), FlushReason::kFinal);
      }
    }
    return {flushes_.data(), ready_};
  }

  /// TakeReadyInPlace, moved into a vector of the caller's.
  std::vector<BatchFlush> TakeReady(int64_t tick, bool final) {
    const std::span<BatchFlush> ready = TakeReadyInPlace(tick, final);
    return {std::make_move_iterator(ready.begin()),
            std::make_move_iterator(ready.end())};
  }

 private:
  void Pop(size_t count, FlushReason reason) {
    if (ready_ == flushes_.size()) flushes_.emplace_back();
    BatchFlush& flush = flushes_[ready_++];
    flush.reason = reason;
    flush.requests.clear();
    flush.requests.reserve(batch_size_);  // A no-op once warm.
    for (size_t i = 0; i < count; ++i) {
      flush.requests.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
  }

  const size_t batch_size_;
  const int64_t max_delay_ticks_;
  VectorFifo<InferenceRequest> pending_;
  std::vector<BatchFlush> flushes_;  // flushes_[0, ready_) are this tick's.
  size_t ready_ = 0;
};

}  // namespace eventhit::fleet

#endif  // EVENTHIT_FLEET_DYNAMIC_BATCHER_H_
