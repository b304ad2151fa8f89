// Thread-safe metrics registry: named counters, gauges and fixed-bucket
// histograms for pipeline observability (docs/TELEMETRY.md).
//
// The hot path is lock-free: every metric keeps kMetricShards cache-line
// padded atomic slots and each thread writes (relaxed) to the slot picked
// by its stable thread index, so concurrent increments never contend on
// one cache line. Shards are folded only when a snapshot is taken. Metrics
// are side channels — they never feed back into computation, so the
// parallel-equals-serial determinism contract (DESIGN.md §5c) is
// untouched: folded totals are sums, which commute.
//
// Registration (GetCounter/GetGauge/GetHistogram) takes a mutex and is
// meant for setup code; hot loops cache the returned pointer, which stays
// valid for the registry's lifetime. A component's pointers form one
// handle set that the registry itself caches (HandleSet), so building the
// thousandth marshaller or relay on a registry looks up no series by name.
#ifndef EVENTHIT_OBS_METRICS_H_
#define EVENTHIT_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <typeindex>
#include <utility>
#include <vector>

namespace eventhit::obs {

/// Number of per-metric shards (power of two). 16 covers typical worker
/// counts; threads beyond that share slots, which stays correct (atomic)
/// and merely adds contention.
inline constexpr int kMetricShards = 16;

/// Stable dense index of the calling thread (assigned on first use),
/// shared by the metric shard selection and trace-event thread ids.
int ThreadIndex();

/// Key/value labels attached to a metric series (e.g. {event_type=E1}).
/// Labels are resolved to a flat canonical name at registration time, so
/// the hot path (Add/Set/Observe on the cached pointer) is identical for
/// labeled and unlabeled series.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Distinct label sets allowed per base metric name. Registration beyond
/// the bound folds into a single `{overflow="true"}` series so a buggy
/// caller cannot explode the schema.
inline constexpr int kMaxLabelSetsPerMetric = 64;

/// Canonical flattened series name: `base{k1="v1",k2="v2"}` with keys
/// sorted and `\` / `"` escaped in values. Empty labels return `base`.
std::string LabeledName(const std::string& base, const Labels& labels);

/// Strips the `{...}` label suffix (if any) from a flattened series name,
/// recovering the base name used in the schema and docs.
std::string MetricBaseName(const std::string& name);

namespace internal {

struct alignas(64) CounterShard {
  std::atomic<int64_t> value{0};
};

struct alignas(64) SumShard {
  std::atomic<int64_t> count{0};
  // Sum/min/max as raw double bits updated by CAS (atomic<double> CAS works
  // on the bit pattern; all stores here are relaxed). min/max start at
  // +/-infinity so the first observation always wins; shards with
  // count == 0 are skipped when folding.
  std::atomic<double> sum{0.0};
  std::atomic<double> min{std::numeric_limits<double>::infinity()};
  std::atomic<double> max{-std::numeric_limits<double>::infinity()};
};

}  // namespace internal

/// Sentinel for "no exemplar recorded" on a counter.
inline constexpr int64_t kNoExemplar =
    std::numeric_limits<int64_t>::min();

/// Monotonically increasing integer metric.
class Counter {
 public:
  /// Adds `delta` (>= 0 by convention; not enforced on the hot path).
  void Add(int64_t delta = 1) {
    shards_[ThreadIndex() & (kMetricShards - 1)].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  /// Add carrying an exemplar id — e.g. the provenance decision id of the
  /// offending boundary (docs/TELEMETRY.md, "Provenance & exemplars").
  /// Last writer wins; surfaced by Snapshot() and the OpenMetrics
  /// exposition so a metric anomaly links straight to its provenance
  /// record. A negative id (none known) adds without recording one.
  void Add(int64_t delta, int64_t exemplar) {
    Add(delta);
    if (exemplar >= 0) exemplar_.store(exemplar, std::memory_order_relaxed);
  }

  /// Folds all shards. Linearizes against concurrent Add only per shard —
  /// callers snapshot between phases, not mid-increment.
  int64_t Value() const;

  /// Last exemplar id attached via Add(delta, exemplar); kNoExemplar when
  /// none was ever recorded.
  int64_t exemplar() const {
    return exemplar_.load(std::memory_order_relaxed);
  }

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}

  std::string name_;
  internal::CounterShard shards_[kMetricShards];
  std::atomic<int64_t> exemplar_{kNoExemplar};
};

/// Last-write-wins floating-point level (window sizes, knob settings, ...).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta);
  double Value() const { return value_.load(std::memory_order_relaxed); }

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are inclusive upper bounds of the
/// finite buckets; one implicit overflow bucket catches the rest. Also
/// tracks count / sum / min / max.
class Histogram {
 public:
  void Observe(double value);

  const std::string& name() const { return name_; }
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  friend class MetricsRegistry;
  Histogram(std::string name, std::vector<double> bounds);

  std::string name_;
  std::vector<double> bounds_;  // Sorted ascending.
  // bucket_shards_[bucket] holds the sharded count of that bucket; bucket
  // bounds_.size() is the overflow bucket.
  std::vector<std::unique_ptr<internal::CounterShard[]>> bucket_shards_;
  internal::SumShard sum_shards_[kMetricShards];
};

/// Point-in-time copies of every metric, sorted by name.
struct CounterSnapshot {
  std::string name;
  int64_t value = 0;
  /// Last exemplar id recorded on the counter (see Counter::Add with an
  /// exemplar); valid only when has_exemplar.
  bool has_exemplar = false;
  int64_t exemplar = 0;
};

struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
};

struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;         // Finite-bucket upper edges.
  std::vector<int64_t> bucket_counts; // bounds.size() + 1 entries.
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // 0 when count == 0.
  double max = 0.0;

  double Mean() const { return count > 0 ? sum / count : 0.0; }

  /// Approximate quantile by linear interpolation inside the bucket that
  /// contains the q-th observation (q clamped to [0, 1]; 0 when empty).
  /// Bucket b spans (bounds[b-1], bounds[b]]; the first bucket's lower
  /// edge is the observed min and every edge is clamped to the observed
  /// [min, max], so a single-bucket histogram interpolates min..max. The
  /// overflow bucket has no finite upper bound and interpolates from the
  /// last finite bound to the observed max.
  double ApproxQuantile(double q) const;
};

struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;
};

/// Owner of all metrics. One process-wide instance (`Global()`) backs the
/// default pipeline instrumentation; tests build private registries.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the metric registered under `name`, creating it on first use.
  /// Process-fatal if `name` is already registered as a different kind (or,
  /// for histograms, with different bounds).
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds);

  /// Labeled variants: register the flattened series `name{labels}`. The
  /// per-base-name cardinality is bounded by kMaxLabelSetsPerMetric; label
  /// sets beyond the bound all map to the `{overflow="true"}` series of
  /// the same base name (so writes are never lost, only coarsened).
  Counter* GetCounter(const std::string& name, const Labels& labels);
  Gauge* GetGauge(const std::string& name, const Labels& labels);
  Histogram* GetHistogram(const std::string& name, std::vector<double> bounds,
                          const Labels& labels);

  /// Folds every metric into a by-name-sorted snapshot.
  MetricsSnapshot Snapshot() const;

  /// Every registered metric name, sorted (for schema-sync checks).
  std::vector<std::string> Names() const;

  /// Zeroes all values; registered metrics (and cached pointers) survive.
  void Reset();

  /// The registry's one handle set of type `Set` for `key`: built on the
  /// first call, as Set(*this, key) or, for an unkeyed set, Set(*this),
  /// under the registry's handle-set mutex; every later call returns the
  /// same object. The set lives as long as the registry, so it can never
  /// outlive the metrics it points to (a cache outside the registry could
  /// serve a freed registry's pointers to a new one at the same address).
  template <typename Set>
  const Set& HandleSet(const std::string& key = {});

  /// The process-wide registry used by default instrumentation.
  static MetricsRegistry& Global();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  /// Resolves a labeled series name, folding into the overflow series once
  /// the base name has kMaxLabelSetsPerMetric distinct label sets. Must be
  /// called with mu_ held.
  std::string ResolveLabeledNameLocked(const std::string& base,
                                       const Labels& labels);

  Counter* GetCounterLocked(const std::string& name);
  Gauge* GetGaugeLocked(const std::string& name);
  Histogram* GetHistogramLocked(const std::string& name,
                                std::vector<double> bounds);

  mutable std::mutex mu_;
  std::map<std::string, Entry> metrics_;       // Guarded by mu_.
  std::map<std::string, int> label_sets_;      // base -> #series. By mu_.

  // Handle sets by (type, key). A set's constructor registers through mu_,
  // so the sets take their own mutex (always acquired before mu_).
  std::mutex sets_mu_;
  std::map<std::pair<std::type_index, std::string>, std::shared_ptr<const void>>
      handle_sets_;  // Guarded by sets_mu_.
};

template <typename Set>
const Set& MetricsRegistry::HandleSet(const std::string& key) {
  std::lock_guard<std::mutex> lock(sets_mu_);
  std::shared_ptr<const void>& set =
      handle_sets_[{std::type_index(typeid(Set)), key}];
  if (set == nullptr) {
    if constexpr (std::is_constructible_v<Set, MetricsRegistry&,
                                          const std::string&>) {
      set = std::make_shared<const Set>(*this, key);
    } else {
      set = std::make_shared<const Set>(*this);
    }
  }
  return *static_cast<const Set*>(set.get());
}

}  // namespace eventhit::obs

#endif  // EVENTHIT_OBS_METRICS_H_
