#include "nn/workspace.h"

#include <algorithm>

namespace eventhit::nn {
namespace {

// Floor for fresh blocks: small enough to be free, large enough that tiny
// first allocations don't fragment the warm-up phase.
constexpr size_t kMinBlockFloats = 1024;

}  // namespace

float* Workspace::Alloc(size_t n) {
  if (blocks_.empty() || blocks_.back().used + n > blocks_.back().size) {
    // Grow geometrically so warm-up settles in O(log) heap allocations;
    // Reset() will fold the blocks into one. Blocks stay uninitialised
    // (Alloc promises no contents), so slack a pass never touches never
    // becomes resident memory.
    const size_t grown = std::max({n, kMinBlockFloats, 2 * capacity()});
    Block block;
    block.data = std::make_unique_for_overwrite<float[]>(grown);
    block.size = grown;
    blocks_.push_back(std::move(block));
  }
  Block& block = blocks_.back();
  float* p = block.data.get() + block.used;
  block.used += n;
  return p;
}

void Workspace::Reset() {
  if (blocks_.size() > 1) {
    const size_t total = capacity();
    Block merged;
    merged.data = std::make_unique_for_overwrite<float[]>(total);
    merged.size = total;
    blocks_.clear();
    blocks_.push_back(std::move(merged));
  } else if (!blocks_.empty()) {
    blocks_.back().used = 0;
  }
}

size_t Workspace::capacity() const {
  size_t total = 0;
  for (const Block& block : blocks_) total += block.size;
  return total;
}

size_t Workspace::used() const {
  size_t total = 0;
  for (const Block& block : blocks_) total += block.used;
  return total;
}

}  // namespace eventhit::nn
