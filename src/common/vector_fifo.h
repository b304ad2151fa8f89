// FIFO queue over one vector that keeps its storage. Popping advances a
// head index; the popped prefix is dropped when the queue empties, or when
// a push would otherwise grow the vector. A queue whose length stays
// bounded therefore stops allocating once it has reached that bound —
// std::deque allocates and frees a block every few hundred bytes that
// pass through it, and its default constructor allocates too.
#ifndef EVENTHIT_COMMON_VECTOR_FIFO_H_
#define EVENTHIT_COMMON_VECTOR_FIFO_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.h"

namespace eventhit {

template <typename T>
class VectorFifo {
 public:
  bool empty() const { return head_ == items_.size(); }
  size_t size() const { return items_.size() - head_; }

  T& front() {
    EVENTHIT_CHECK(!empty());
    return items_[head_];
  }
  const T& front() const {
    EVENTHIT_CHECK(!empty());
    return items_[head_];
  }

  /// The i-th element from the front (i < size()).
  const T& operator[](size_t i) const { return items_[head_ + i]; }

  void push_back(T value) {
    if (head_ > 0 && items_.size() == items_.capacity()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    items_.push_back(std::move(value));
  }

  /// Removes the front element (moved-from or not, it is destroyed no
  /// later than the next push that needs its slot).
  void pop_front() {
    EVENTHIT_CHECK(!empty());
    if (++head_ == items_.size()) clear();
  }

  void clear() {
    items_.clear();
    head_ = 0;
  }

  void reserve(size_t n) { items_.reserve(n); }

 private:
  std::vector<T> items_;
  size_t head_ = 0;  // Index of the front element.
};

}  // namespace eventhit

#endif  // EVENTHIT_COMMON_VECTOR_FIFO_H_
