#include "obs/log.h"

#include <algorithm>
#include <utility>

#include "obs/json_util.h"
#include "obs/schema.h"

namespace eventhit::obs {

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
  }
  return "info";
}

bool ParseLogLevel(const std::string& text, LogLevel* level) {
  if (text == "debug") {
    *level = LogLevel::kDebug;
  } else if (text == "info") {
    *level = LogLevel::kInfo;
  } else if (text == "warn" || text == "warning") {
    *level = LogLevel::kWarn;
  } else if (text == "error") {
    *level = LogLevel::kError;
  } else {
    return false;
  }
  return true;
}

LogField LogStr(const std::string& key, const std::string& value) {
  std::string quoted = "\"";
  quoted += JsonEscape(value);
  quoted += '"';
  return {key, quoted};
}

LogField LogInt(const std::string& key, int64_t value) {
  return {key, std::to_string(value)};
}

LogField LogNum(const std::string& key, double value) {
  return {key, JsonNumber(value)};
}

LogField LogBool(const std::string& key, bool value) {
  return {key, value ? "true" : "false"};
}

Logger::Logger(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

void Logger::Log(LogLevel level, const std::string& component,
                 const std::string& event, int64_t sim_time,
                 std::vector<LogField> fields) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!Enabled(level)) return;
  int64_t& count = per_key_[component + '\0' + event];
  if (count >= rate_limit_) {
    ++suppressed_;
    if (metrics_ != nullptr) {
      // Surface the suppression per component (docs/TELEMETRY.md,
      // log.suppressed) so throttled narratives are visible on
      // dashboards instead of silently truncated. Registration is cached;
      // this path is already off the hot loop (rate-limited keys only).
      Counter*& counter = suppressed_counters_[component];
      if (counter == nullptr) {
        counter = metrics_->GetCounter(names::kLogSuppressed,
                                       {{"component", component}});
      }
      counter->Add(1);
    }
    return;
  }
  if (records_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  ++count;
  LogRecord record;
  record.sim_time = sim_time;
  record.seq = next_seq_++;
  record.level = level;
  record.component = component;
  record.event = event;
  record.fields = std::move(fields);
  records_.push_back(std::move(record));
}

void Logger::set_min_level(LogLevel level) {
  min_level_.store(level, std::memory_order_relaxed);
}

LogLevel Logger::min_level() const {
  return min_level_.load(std::memory_order_relaxed);
}

void Logger::set_rate_limit(int64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  rate_limit_ = n < 0 ? 0 : n;
}

void Logger::set_metrics(MetricsRegistry* metrics) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_ = metrics;
  suppressed_counters_.clear();
}

std::vector<LogRecord> Logger::Records() const {
  std::vector<LogRecord> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = records_;
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const LogRecord& a, const LogRecord& b) {
                     if (a.sim_time != b.sim_time) {
                       return a.sim_time < b.sim_time;
                     }
                     return a.seq < b.seq;
                   });
  return out;
}

std::string Logger::ToJsonl() const {
  std::string out;
  for (const LogRecord& record : Records()) {
    out += "{\"t\":" + std::to_string(record.sim_time) +
           ",\"seq\":" + std::to_string(record.seq) + ",\"level\":\"" +
           LogLevelName(record.level) + "\",\"component\":\"" +
           JsonEscape(record.component) + "\",\"event\":\"" +
           JsonEscape(record.event) + "\"";
    for (const LogField& field : record.fields) {
      out += ",\"" + JsonEscape(field.key) + "\":" + field.json_value;
    }
    out += "}\n";
  }
  return out;
}

int64_t Logger::emitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(records_.size());
}

int64_t Logger::suppressed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return suppressed_;
}

int64_t Logger::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void Logger::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
  per_key_.clear();
  next_seq_ = 0;
  suppressed_ = 0;
  dropped_ = 0;
}

Logger& Logger::Global() {
  static Logger* logger = new Logger();
  return *logger;
}

}  // namespace eventhit::obs
