// Benchmark workloads and the helpers both benchmark executables share:
// the workload table, the fleet schedule replay that classifies flush
// ticks, the per-stream accounting identities, and the result printer.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "data/tasks.h"
#include "fleet/stream_fleet.h"

namespace perfbench {

namespace fleet = ::eventhit::fleet;

/// One named fleet configuration. Everything but the seed is fixed by the
/// name; `seed` generates the tenant streams and the fault schedules.
struct Workload {
  std::string name;
  eventhit::data::Task task;
  fleet::FleetConfig config;
};

/// Builds workload `name` ("steady", "long-window" or "duty-flaky") for
/// `seed`. Returns false on an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

/// Command line shared by both executables.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_out;  // Traced binary: Chrome trace path ("" = none).
};

/// Parses `--workload W --seed N --seconds S [--trace-out PATH]` and builds
/// the workload. Prints the reason and returns false on an error.
bool ParseArgs(int argc, char** argv, Args* args, Workload* workload);

/// Moves the calling thread to the next CPU of the process's allowed set,
/// round robin. Contention from other tenants of the host differs between
/// CPUs and over time, so spreading repetitions over the CPUs gives the
/// fastest-repetition estimate more independent draws.
void PinToNextCpu();

/// Seconds elapsed since `start` on the steady clock.
double SecondsSince(std::chrono::steady_clock::time_point start);

/// Flush schedule of one fleet run, replayed from the public per-stream
/// settings: how many ticks flush, and the counts Run() reports.
struct Schedule {
  int64_t ticks = 0;
  int64_t flush_ticks = 0;  // Ticks with at least one flush.
  int64_t requests = 0;
  int64_t batches = 0;
  int64_t flush_full = 0;
  int64_t flush_deadline = 0;
  int64_t flush_final = 0;
};

/// Replays the tick loop of StreamFleet::Run with empty requests: every
/// stream issues a request at each scored prediction boundary (the first
/// boundary, then those the collection policy scores) and a
/// fleet::DynamicBatcher decides the flushes. Checked against the counts
/// Run() reports by ScheduleMatches.
Schedule ReplaySchedule(const fleet::StreamFleet& fleet);

/// True when the replay reproduces Run()'s tick, request and flush counts.
bool ScheduleMatches(const Schedule& schedule,
                     const fleet::FleetRunStats& stats);

/// Empty when every stream of `run` satisfies the relay frame identity
/// (delivered + dropped + pending + in_flight == submitted) and the
/// fleet's shared registry satisfies marshaller.frames.relayed + filtered
/// == total. Otherwise a description of the first violation.
std::string CheckAccounting(fleet::StreamFleet& fleet,
                            const fleet::FleetRunResult& run);

/// Indices of the streams the solo == fleet gate replays: spread over the
/// fleet so every wave is sampled.
std::vector<int> GateStreams(int num_streams, int count);

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);

/// Peak resident set of this process in MiB.
double PeakRssMb();

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints `name value unit` lines, then the result object as the last line
/// of standard output.
void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
