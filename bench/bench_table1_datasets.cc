// Regenerates Table I (event statistics of the three datasets) and Table II
// (the sixteen prediction tasks), printing paper values next to the
// statistics measured on the generated synthetic streams.

#include <iostream>

#include "bench_common.h"
#include "common/table_printer.h"
#include "data/tasks.h"
#include "sim/datasets.h"

namespace {

using ::eventhit::Fmt;
using ::eventhit::TablePrinter;
namespace sim = ::eventhit::sim;

struct PaperRow {
  int occurrences;
  double duration_mean;
  double duration_std;
};

// Table I as printed in the paper.
constexpr PaperRow kPaperRows[12] = {
    {54, 61.5, 15.4},   {57, 62.0, 11.9},   {56, 86.6, 25.0},
    {93, 145.1, 35.1},  {162, 193.7, 158.8}, {165, 571.2, 176.4},
    {80, 99.3, 40.1},   {74, 91.2, 35.4},   {48, 92.8, 25.9},
    {132, 114.0, 48.8}, {121, 97.2, 107.5}, {95, 240.2, 153.8},
};

}  // namespace

int main() {
  std::cout << "=== Table I: Events of interest (paper vs generated) ===\n";
  std::cout << "(trial-averaged over " << eventhit::bench::TrialsFromEnv()
            << " generated streams)\n\n";
  const int trials = eventhit::bench::TrialsFromEnv();

  TablePrinter table({"Event", "Occ(paper)", "Occ(sim)", "DurMean(paper)",
                      "DurMean(sim)", "DurStd(paper)", "DurStd(sim)"});
  int global_event = 0;
  for (const sim::DatasetId id :
       {sim::DatasetId::kVirat, sim::DatasetId::kThumos,
        sim::DatasetId::kBreakfast}) {
    const sim::DatasetSpec spec = sim::MakeDatasetSpec(id);
    std::vector<double> occ(spec.events.size(), 0.0);
    std::vector<double> dur_mean(spec.events.size(), 0.0);
    std::vector<double> dur_std(spec.events.size(), 0.0);
    for (int t = 0; t < trials; ++t) {
      const sim::SyntheticVideo video =
          sim::SyntheticVideo::Generate(spec, 500 + static_cast<uint64_t>(t));
      const auto stats = sim::ComputeEventStats(video);
      for (size_t k = 0; k < stats.size(); ++k) {
        occ[k] += static_cast<double>(stats[k].occurrences) / trials;
        dur_mean[k] += stats[k].duration_mean / trials;
        dur_std[k] += stats[k].duration_std / trials;
      }
    }
    for (size_t k = 0; k < spec.events.size(); ++k) {
      const PaperRow& paper = kPaperRows[global_event];
      table.AddRow({spec.events[k].name,
                    Fmt(static_cast<int64_t>(paper.occurrences)),
                    Fmt(occ[k], 1), Fmt(paper.duration_mean, 1),
                    Fmt(dur_mean[k], 1), Fmt(paper.duration_std, 1),
                    Fmt(dur_std[k], 1)});
      ++global_event;
    }
  }
  table.Print(std::cout);

  std::cout << "\n=== Table II: Tasks ===\n\n";
  TablePrinter tasks({"Task", "Dataset", "Events of Interest"});
  for (const eventhit::data::Task& task : eventhit::data::AllTasks()) {
    std::string events;
    for (size_t i = 0; i < task.global_events.size(); ++i) {
      if (i > 0) events += ", ";
      events += 'E';
      events += std::to_string(task.global_events[i]);
    }
    tasks.AddRow({task.name, sim::DatasetName(task.dataset), events});
  }
  tasks.Print(std::cout);
  return 0;
}
