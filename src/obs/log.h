// Structured logging: leveled, component-tagged JSONL events collected in
// a bounded in-memory buffer and flushed once at exit (--log-out on the
// CLI). Schema in docs/TELEMETRY.md.
//
// Determinism contract: every record carries the *simulated* stream clock
// of the component that emitted it plus a global sequence number assigned
// under the logger mutex; the exported JSONL is sorted by (sim_time, seq).
// All emission sites live on the single streaming thread (relay, breaker,
// drift detector, recalibrator, auditor transitions), so seq order — and
// therefore the exported file — is identical across --threads settings.
//
// Rate limiting is deterministic too: instead of a wall-clock token
// bucket, each (component, event) key keeps only its first
// `max_per_key` records and counts the rest as suppressed. A replayed
// chaos run therefore produces a byte-identical narrative.
#ifndef EVENTHIT_OBS_LOG_H_
#define EVENTHIT_OBS_LOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace eventhit::obs {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Lower-case level name ("debug", "info", "warn", "error").
const char* LogLevelName(LogLevel level);

/// Parses a level name (as printed by LogLevelName). Returns false and
/// leaves `*level` untouched on unknown input.
bool ParseLogLevel(const std::string& text, LogLevel* level);

/// One key plus a pre-rendered JSON value (callers pick the rendering so
/// the logger itself stays dependency-free).
struct LogField {
  std::string key;
  std::string json_value;
};

LogField LogStr(const std::string& key, const std::string& value);
LogField LogInt(const std::string& key, int64_t value);
LogField LogNum(const std::string& key, double value);
LogField LogBool(const std::string& key, bool value);

struct LogRecord {
  int64_t sim_time = 0;  // Component's simulated stream clock.
  int64_t seq = 0;       // Global arrival order (assigned by the logger).
  LogLevel level = LogLevel::kInfo;
  std::string component;
  std::string event;
  std::vector<LogField> fields;
};

/// Bounded, deterministic structured-event collector.
class Logger {
 public:
  explicit Logger(size_t capacity = 65536);

  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  /// Records one event. Drops it silently (but counted) when below the
  /// minimum level, beyond the per-(component, event) rate limit, or when
  /// the buffer is full.
  void Log(LogLevel level, const std::string& component,
           const std::string& event, int64_t sim_time,
           std::vector<LogField> fields = {});

  void set_min_level(LogLevel level);
  LogLevel min_level() const;

  /// Whether a record at `level` would pass the level filter. Callers on a
  /// hot path test it before building a record's fields, which allocate.
  bool Enabled(LogLevel level) const {
    return level >= min_level_.load(std::memory_order_relaxed);
  }

  /// First `n` records kept per (component, event) key; the rest count as
  /// suppressed. Applies to records accepted after the call.
  void set_rate_limit(int64_t n);

  /// Attaches a metrics registry: rate-limiter suppressions additionally
  /// surface as the `log.suppressed{component=...}` labeled counter
  /// (docs/TELEMETRY.md) instead of only the silent suppressed() tally.
  /// nullptr detaches. Counter handles are cached per component, so the
  /// registry must outlive the logger's use.
  void set_metrics(MetricsRegistry* metrics);

  /// Retained records sorted by (sim_time, seq).
  std::vector<LogRecord> Records() const;

  /// One JSON object per line, in Records() order:
  ///   {"t":12,"seq":3,"level":"warn","component":"relay",
  ///    "event":"breaker_transition","from":"closed","to":"open"}
  std::string ToJsonl() const;

  int64_t emitted() const;     // Accepted into the buffer.
  int64_t suppressed() const;  // Rejected by the rate limit.
  int64_t dropped() const;     // Rejected because the buffer was full.

  /// Discards records and counters; level and rate limit survive.
  void Clear();

  /// The process-wide logger used by default instrumentation.
  static Logger& Global();

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::atomic<LogLevel> min_level_{LogLevel::kInfo};
  int64_t rate_limit_ = 128;                  // Guarded by mu_.
  int64_t next_seq_ = 0;                      // Guarded by mu_.
  int64_t suppressed_ = 0;                    // Guarded by mu_.
  int64_t dropped_ = 0;                       // Guarded by mu_.
  std::vector<LogRecord> records_;            // Guarded by mu_.
  std::map<std::string, int64_t> per_key_;    // component\0event -> count.
  MetricsRegistry* metrics_ = nullptr;        // Guarded by mu_.
  // Cached log.suppressed{component=...} handles. Guarded by mu_.
  std::map<std::string, Counter*> suppressed_counters_;
};

}  // namespace eventhit::obs

#endif  // EVENTHIT_OBS_LOG_H_
