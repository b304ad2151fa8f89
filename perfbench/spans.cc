#include "spans.h"

#include <utility>

#include "common/check.h"
#include "obs/export.h"
#include "obs/trace.h"

namespace perfbench {

namespace {
// Spans of interest per pass stay far below this, so recording a sample
// never reallocates (which would count as an allocation of the parent).
constexpr size_t kSampleReserve = 1 << 16;
}  // namespace

Tracer::Tracer(std::vector<std::string> names, AllocReader allocs,
               size_t raw_capacity)
    : names_(std::move(names)),
      allocs_(allocs),
      raw_capacity_(raw_capacity),
      totals_(names_.size()),
      keep_samples_(names_.size(), false),
      samples_(names_.size()) {
  // Reserve up front: the recorder must not allocate inside a span.
  stack_.reserve(64);
  raw_.reserve(raw_capacity_);
  for (auto& samples : samples_) samples.reserve(kSampleReserve);
}

void Tracer::End() {
  const int64_t end_ns = NowNs();
  uint64_t allocs = 0;
  uint64_t bytes = 0;
  ReadAllocs(&allocs, &bytes);
  EVENTHIT_CHECK(!stack_.empty());
  const Frame frame = stack_.back();
  stack_.pop_back();

  const int64_t duration = end_ns - frame.start_ns;
  const uint64_t span_allocs = allocs - frame.allocs_at_start;
  const uint64_t span_bytes = bytes - frame.bytes_at_start;
  Totals& t = totals_[static_cast<size_t>(frame.id)];
  ++t.count;
  t.total_ns += duration;
  t.self_ns += duration - frame.child_ns;
  t.total_allocs += static_cast<int64_t>(span_allocs);
  t.total_alloc_bytes += static_cast<int64_t>(span_bytes);
  t.self_allocs += static_cast<int64_t>(span_allocs - frame.child_allocs);
  t.self_alloc_bytes += static_cast<int64_t>(span_bytes - frame.child_bytes);
  if (!stack_.empty()) {
    Frame& parent = stack_.back();
    parent.child_ns += duration;
    parent.child_allocs += span_allocs;
    parent.child_bytes += span_bytes;
  }
  if (frame.raw >= 0) {
    RawSpan& raw = raw_[static_cast<size_t>(frame.raw)];
    raw.start_ns = frame.start_ns;
    raw.duration_ns = duration;
  }
  if (keep_samples_[static_cast<size_t>(frame.id)]) {
    samples_[static_cast<size_t>(frame.id)].push_back(duration);
  }
}

void Tracer::Reset() {
  EVENTHIT_CHECK(stack_.empty());
  for (Totals& t : totals_) t = Totals{};
  for (auto& samples : samples_) samples.clear();
  raw_.clear();
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  eventhit::obs::TraceBuffer buffer(raw_.size() + 1);
  const int64_t epoch = raw_.empty() ? 0 : raw_.front().start_ns;
  for (const RawSpan& raw : raw_) {
    eventhit::obs::TraceEvent event;
    event.name = names_[static_cast<size_t>(raw.id)];
    event.category = "perfbench";
    event.start_us = (raw.start_ns - epoch) / 1000;
    event.duration_us = raw.duration_ns / 1000;
    buffer.Record(std::move(event));
  }
  return eventhit::obs::WriteTraceJson(buffer, path).ok();
}

}  // namespace perfbench
