#include "obs/timeseries.h"

#include "obs/json_util.h"

namespace eventhit::obs {

MetricsDeltaWriter::MetricsDeltaWriter(
    std::ostream* os, std::vector<std::string> exclude_prefixes)
    : os_(os), exclude_prefixes_(std::move(exclude_prefixes)) {}

bool MetricsDeltaWriter::Excluded(const std::string& name) const {
  for (const std::string& prefix : exclude_prefixes_) {
    if (name.compare(0, prefix.size(), prefix) == 0) return true;
  }
  return false;
}

void MetricsDeltaWriter::Emit(const MetricsSnapshot& snapshot,
                              int64_t sim_time) {
  std::string line = "{\"t\":" + std::to_string(sim_time) + ",\"counters\":{";
  bool first = true;
  for (const CounterSnapshot& counter : snapshot.counters) {
    if (Excluded(counter.name)) continue;
    int64_t& last = last_counters_[counter.name];
    const int64_t delta = counter.value - last;
    if (delta == 0) continue;
    last = counter.value;
    if (!first) line += ",";
    first = false;
    AppendJsonKey(counter.name, &line);
    line += std::to_string(delta);
  }
  line += "},\"gauges\":{";
  first = true;
  for (const GaugeSnapshot& gauge : snapshot.gauges) {
    if (Excluded(gauge.name)) continue;
    auto it = last_gauges_.find(gauge.name);
    if (it != last_gauges_.end() && it->second == gauge.value) continue;
    last_gauges_[gauge.name] = gauge.value;
    if (!first) line += ",";
    first = false;
    AppendJsonKey(gauge.name, &line);
    line += JsonNumber(gauge.value);
  }
  line += "},\"histograms\":{";
  first = true;
  for (const HistogramSnapshot& histogram : snapshot.histograms) {
    if (Excluded(histogram.name)) continue;
    auto& last = last_histograms_[histogram.name];
    const int64_t count_delta = histogram.count - last.first;
    if (count_delta == 0) continue;
    const double sum_delta = histogram.sum - last.second;
    last = {histogram.count, histogram.sum};
    if (!first) line += ",";
    first = false;
    AppendJsonKey(histogram.name, &line);
    line += "{\"count\":";
    line += std::to_string(count_delta);
    line += ",\"sum\":";
    line += JsonNumber(sum_delta);
    line += '}';
  }
  line += "}}\n";
  *os_ << line;
}

}  // namespace eventhit::obs
