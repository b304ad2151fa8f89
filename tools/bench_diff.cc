// Compares a bench JSON against a committed baseline and exits nonzero on
// regression. CI runs this as the bench gate (.github/workflows/ci.yml).
//
//   bench_diff --baseline=BENCH_fig9_fps.json --current=fresh.json
//              [--default-tol=0.15] [--tol=key:rel,key:rel,...]
//              [--tol-abs=key:abs,...]
//
// Exit codes: 0 = within tolerance, 1 = regression, 2 = usage/IO error.
// Direction rules live in common/benchcmp.h: *_fps and speedup* keys are
// higher-better, *diff*/_ms/_us/_seconds/_bytes keys are lower-better,
// everything else is informational.

#include <cstdlib>
#include <iostream>
#include <string>

#include "common/benchcmp.h"
#include "common/flags.h"
#include "common/table_printer.h"

namespace {

using ::eventhit::BenchDirection;
using ::eventhit::Flags;
using ::eventhit::Fmt;
using ::eventhit::TablePrinter;

int Usage() {
  std::cerr <<
      "usage: bench_diff --baseline=PATH --current=PATH\n"
      "  --default-tol=R   relative tolerance for gated keys (default "
      "0.15)\n"
      "  --tol=key:R,...   per-key relative tolerance overrides\n"
      "  --tol-abs=key:A,...  per-key absolute tolerances (win over\n"
      "                    relative; required for zero baselines)\n"
      "exit: 0 pass, 1 regression, 2 usage/IO error\n";
  return 2;
}

// Parses "key:value,key:value" into the map; returns false on bad syntax.
bool ParseKeyValueList(const std::string& text,
                       std::map<std::string, double>* out) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(pos, comma - pos);
    const size_t colon = item.rfind(':');
    if (colon == std::string::npos || colon == 0) return false;
    char* end = nullptr;
    const std::string value_text = item.substr(colon + 1);
    const double value = std::strtod(value_text.c_str(), &end);
    if (end == value_text.c_str() || *end != '\0') return false;
    (*out)[item.substr(0, colon)] = value;
    pos = comma + 1;
  }
  return true;
}

const char* DirectionGlyph(BenchDirection direction) {
  switch (direction) {
    case BenchDirection::kHigherBetter: return "higher";
    case BenchDirection::kLowerBetter: return "lower";
    case BenchDirection::kInformational: return "info";
  }
  return "info";
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = Flags::Parse(argc - 1, argv + 1);
  if (!flags.ok()) {
    std::cerr << flags.status() << "\n";
    return Usage();
  }
  const std::string baseline_path = flags.value().GetString("baseline", "");
  const std::string current_path = flags.value().GetString("current", "");
  if (baseline_path.empty() || current_path.empty()) return Usage();

  eventhit::BenchToleranceSpec spec;
  const auto default_tol = flags.value().GetDouble("default-tol", 0.15);
  if (!default_tol.ok() || default_tol.value() < 0.0) {
    std::cerr << "bad --default-tol\n";
    return 2;
  }
  spec.default_rel_tol = default_tol.value();
  if (!ParseKeyValueList(flags.value().GetString("tol", ""),
                         &spec.rel_tol) ||
      !ParseKeyValueList(flags.value().GetString("tol-abs", ""),
                         &spec.abs_tol)) {
    std::cerr << "bad --tol/--tol-abs (want key:value[,key:value...])\n";
    return 2;
  }

  const auto baseline = eventhit::LoadBenchJson(baseline_path);
  if (!baseline.ok()) {
    std::cerr << baseline.status() << "\n";
    return 2;
  }
  const auto current = eventhit::LoadBenchJson(current_path);
  if (!current.ok()) {
    std::cerr << current.status() << "\n";
    return 2;
  }

  const eventhit::BenchDiff diff =
      eventhit::DiffBenchJson(baseline.value(), current.value(), spec);

  TablePrinter table(
      {"Metric", "Baseline", "Current", "Change", "Dir", "Status"});
  for (const eventhit::BenchDelta& delta : diff.deltas) {
    table.AddRow({delta.key, Fmt(delta.baseline, 4), Fmt(delta.current, 4),
                  Fmt(delta.rel_change * 100.0, 2) + "%",
                  DirectionGlyph(delta.direction),
                  !delta.gated ? "-"
                               : (delta.regressed ? "REGRESSED" : "ok")});
  }
  table.Print(std::cout);
  for (const std::string& key : diff.missing_keys) {
    std::cout << "MISSING: gated metric '" << key
              << "' absent from current run\n";
  }
  for (const std::string& key : diff.new_keys) {
    const auto found = current.value().find(key);
    std::cout << "NEW: metric '" << key << "' = "
              << Fmt(found->second, 4)
              << " has no baseline yet (passes; commit a refreshed "
                 "baseline to start gating it)\n";
  }
  if (diff.regressed) {
    std::cout << "bench_diff: REGRESSION vs " << baseline_path << "\n";
    return 1;
  }
  std::cout << "bench_diff: ok (within tolerance of " << baseline_path
            << ")\n";
  return 0;
}
