#include "obs/openmetrics.h"

#include <cmath>
#include <cstdio>
#include <fstream>

namespace eventhit::obs {

namespace {

bool ValidNameChar(char c, bool first) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
      c == ':') {
    return true;
  }
  return !first && c >= '0' && c <= '9';
}

std::string OmNumber(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  char buffer[64];
  if (value == static_cast<double>(static_cast<long long>(value)) &&
      std::fabs(value) < 1e15) {
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(value));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  }
  return buffer;
}

/// Renders `{k="v",...}` with `le` appended when non-empty; empty labels
/// and empty le render as "".
std::string LabelBlock(const Labels& labels, const std::string& le = "") {
  if (labels.empty() && le.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += key + "=\"" + OpenMetricsLabelValue(value) + "\"";
  }
  if (!le.empty()) {
    if (!first) out += ',';
    out += "le=\"" + le + "\"";
  }
  out += '}';
  return out;
}

}  // namespace

std::string OpenMetricsName(const std::string& base) {
  std::string out;
  out.reserve(base.size() + 1);
  for (size_t i = 0; i < base.size(); ++i) {
    const char c = base[i];
    if (i == 0 && c >= '0' && c <= '9') out += '_';
    out += ValidNameChar(c, out.empty()) ? c : '_';
  }
  if (out.empty()) out += '_';
  return out;
}

ParsedSeries ParseSeriesName(const std::string& name) {
  ParsedSeries parsed;
  const size_t brace = name.find('{');
  if (brace == std::string::npos) {
    parsed.base = name;
    return parsed;
  }
  parsed.base = name.substr(0, brace);
  // Body is LabeledName output: k="v" pairs, comma separated, with `\`
  // and `"` backslash-escaped inside values.
  size_t i = brace + 1;
  while (i < name.size() && name[i] != '}') {
    const size_t eq = name.find('=', i);
    if (eq == std::string::npos) break;
    std::string key = name.substr(i, eq - i);
    i = eq + 1;
    if (i >= name.size() || name[i] != '"') break;
    ++i;
    std::string value;
    while (i < name.size() && name[i] != '"') {
      if (name[i] == '\\' && i + 1 < name.size()) ++i;
      value += name[i++];
    }
    ++i;  // Closing quote.
    parsed.labels.emplace_back(std::move(key), std::move(value));
    if (i < name.size() && name[i] == ',') ++i;
  }
  return parsed;
}

std::string OpenMetricsLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string MetricsToOpenMetrics(const MetricsSnapshot& snapshot) {
  std::string out;
  std::string family;  // Base of the last emitted # TYPE line.

  auto type_line = [&](const std::string& base, const char* type) {
    if (base == family) return;
    family = base;
    out += "# TYPE " + base + " " + type + "\n";
  };

  for (const CounterSnapshot& counter : snapshot.counters) {
    const ParsedSeries series = ParseSeriesName(counter.name);
    const std::string base = OpenMetricsName(series.base);
    type_line(base, "counter");
    out += base + "_total" + LabelBlock(series.labels) + " " +
           std::to_string(counter.value);
    if (counter.has_exemplar) {
      // OpenMetrics exemplar: the last offending decision id, linking the
      // counter to `eventhit_cli explain --decision=<id>`.
      out += " # {decision_id=\"" + std::to_string(counter.exemplar) +
             "\"} 1";
    }
    out += "\n";
  }
  for (const GaugeSnapshot& gauge : snapshot.gauges) {
    const ParsedSeries series = ParseSeriesName(gauge.name);
    const std::string base = OpenMetricsName(series.base);
    type_line(base, "gauge");
    out += base + LabelBlock(series.labels) + " " + OmNumber(gauge.value) +
           "\n";
  }
  for (const HistogramSnapshot& histogram : snapshot.histograms) {
    const ParsedSeries series = ParseSeriesName(histogram.name);
    const std::string base = OpenMetricsName(series.base);
    type_line(base, "histogram");
    int64_t cumulative = 0;
    for (size_t b = 0; b < histogram.bucket_counts.size(); ++b) {
      cumulative += histogram.bucket_counts[b];
      const std::string le = b < histogram.bounds.size()
                                 ? OmNumber(histogram.bounds[b])
                                 : "+Inf";
      out += base + "_bucket" + LabelBlock(series.labels, le) + " " +
             std::to_string(cumulative) + "\n";
    }
    out += base + "_sum" + LabelBlock(series.labels) + " " +
           OmNumber(histogram.sum) + "\n";
    out += base + "_count" + LabelBlock(series.labels) + " " +
           std::to_string(histogram.count) + "\n";
  }
  out += "# EOF\n";
  return out;
}

Status WriteOpenMetrics(const MetricsSnapshot& snapshot,
                        const std::string& path) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    return InternalError("cannot open output file: " + path);
  }
  file << MetricsToOpenMetrics(snapshot);
  if (!file.good()) {
    return InternalError("short write to output file: " + path);
  }
  return OkStatus();
}

}  // namespace eventhit::obs
