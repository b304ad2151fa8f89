// Snapshot exporters: render a MetricsSnapshot as a human table
// (common/table_printer) or JSON, and write trace buffers to disk. Lives
// in its own library (eventhit_obs_export) so the core obs layer stays
// dependency-free and usable from common/thread_pool without a cycle.
#ifndef EVENTHIT_OBS_EXPORT_H_
#define EVENTHIT_OBS_EXPORT_H_

#include <ostream>
#include <string>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace eventhit::obs {

/// Pretty-prints the snapshot as aligned ASCII tables (one section per
/// metric kind; empty kinds are skipped).
void PrintMetricsTable(const MetricsSnapshot& snapshot, std::ostream& os);

/// {"counters":{name:value,...},"gauges":{...},"histograms":{name:
///  {"bounds":[...],"bucket_counts":[...],"count":n,"sum":s,"min":m,
///   "max":M},...}}
std::string MetricsToJson(const MetricsSnapshot& snapshot);

/// Writes MetricsToJson to `path` (overwrites).
Status WriteMetricsJson(const MetricsSnapshot& snapshot,
                        const std::string& path);

/// Writes buffer.ToChromeJson() to `path` (overwrites); the file loads in
/// chrome://tracing and Perfetto.
Status WriteTraceJson(const TraceBuffer& buffer, const std::string& path);

}  // namespace eventhit::obs

#endif  // EVENTHIT_OBS_EXPORT_H_
