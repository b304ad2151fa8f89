// Grow-only scratch arena for the batched inference path.
//
// The scalar forward pass allocates per step (gate vectors, hidden copies);
// batched inference would multiply that by the batch size. A Workspace
// instead bump-allocates float buffers from one reusable block: the first
// few batches grow it to the high-water mark, after which Reset() rewinds
// the cursor and every subsequent batch runs without touching the heap.
//
// Ownership rules (DESIGN.md §5e): a Workspace belongs to exactly one
// thread — PredictBatch hands each worker chunk its own. Pointers returned
// by Alloc stay valid until the next Reset(); layers may Alloc freely
// inside a batch but must never hold a pointer across batches.
#ifndef EVENTHIT_NN_WORKSPACE_H_
#define EVENTHIT_NN_WORKSPACE_H_

#include <cstddef>
#include <memory>
#include <vector>

namespace eventhit::nn {

/// Bump allocator over heap blocks. Not thread-safe by design: use one
/// Workspace per thread.
class Workspace {
 public:
  Workspace() = default;

  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Returns an uninitialised buffer of `n` floats, valid until Reset().
  /// `n == 0` returns a non-null dummy pointer.
  float* Alloc(size_t n);

  /// Rewinds the arena: every pointer handed out so far becomes invalid.
  /// If allocation overflowed into extra blocks since the last Reset, the
  /// blocks coalesce into one of the combined size, so a steady-state
  /// allocation sequence that fit once never touches the heap again.
  void Reset();

  /// Total floats of backing capacity (across all blocks).
  size_t capacity() const;

  /// Floats handed out since the last Reset.
  size_t used() const;

 private:
  struct Block {
    std::unique_ptr<float[]> data;
    size_t size = 0;
    size_t used = 0;
  };

  std::vector<Block> blocks_;
};

}  // namespace eventhit::nn

#endif  // EVENTHIT_NN_WORKSPACE_H_
