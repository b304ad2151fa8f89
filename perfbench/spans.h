// In-memory span recorder for the traced benchmark run.
//
// A span brackets one call into a layer. Spans nest on a stack; when a span
// ends its duration is added to its name's total, and to its parent's child
// time, so self time = duration - time covered by child spans. When an
// allocation counter is installed the same bracketing yields self-counted
// heap allocations and bytes per span name. Timestamps are steady_clock
// nanoseconds. The first `raw_capacity` spans are also kept verbatim
// (name, start, duration) and exported as Chrome trace JSON at exit.
//
// Single-threaded: the benchmark drives the fleet at threads = 1.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Reads the process-wide allocation tallies (count, bytes).
using AllocReader = void (*)(uint64_t* count, uint64_t* bytes);

class Tracer {
 public:
  /// Per-name aggregate.
  struct Totals {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
    int64_t self_allocs = 0;
    int64_t self_alloc_bytes = 0;
    int64_t total_allocs = 0;
    int64_t total_alloc_bytes = 0;
  };

  Tracer(std::vector<std::string> names, AllocReader allocs,
         size_t raw_capacity);

  /// Keeps every duration of span `id` (for percentiles).
  void KeepSamples(int id) { keep_samples_[static_cast<size_t>(id)] = true; }

  void Begin(int id) {
    Frame frame;
    frame.id = id;
    frame.raw = -1;
    if (raw_.size() < raw_capacity_) {
      frame.raw = static_cast<int64_t>(raw_.size());
      raw_.push_back(RawSpan{id, 0, 0});
    }
    ReadAllocs(&frame.allocs_at_start, &frame.bytes_at_start);
    frame.start_ns = NowNs();
    stack_.push_back(frame);
  }

  void End();

  /// Clears every aggregate, sample and raw span (names are kept).
  void Reset();

  const std::vector<std::string>& names() const { return names_; }
  const Totals& totals(int id) const {
    return totals_[static_cast<size_t>(id)];
  }
  const std::vector<int64_t>& samples(int id) const {
    return samples_[static_cast<size_t>(id)];
  }

  /// Writes the raw spans as Chrome trace-event JSON through
  /// obs::WriteTraceJson. Returns false on an I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Frame {
    int id = 0;
    int64_t raw = -1;
    int64_t start_ns = 0;
    int64_t child_ns = 0;
    uint64_t allocs_at_start = 0;
    uint64_t bytes_at_start = 0;
    uint64_t child_allocs = 0;
    uint64_t child_bytes = 0;
  };
  // Chrome's viewer nests spans by time, so no parent link is stored.
  struct RawSpan {
    int id = 0;
    int64_t start_ns = 0;
    int64_t duration_ns = 0;
  };

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  void ReadAllocs(uint64_t* count, uint64_t* bytes) const {
    if (allocs_ != nullptr) {
      allocs_(count, bytes);
    } else {
      *count = 0;
      *bytes = 0;
    }
  }

  std::vector<std::string> names_;
  AllocReader allocs_;
  size_t raw_capacity_;
  std::vector<Totals> totals_;
  std::vector<bool> keep_samples_;
  std::vector<std::vector<int64_t>> samples_;
  std::vector<Frame> stack_;
  std::vector<RawSpan> raw_;
};

/// RAII span; a null tracer makes it a no-op.
class Span {
 public:
  Span(Tracer* tracer, int id) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(id);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
