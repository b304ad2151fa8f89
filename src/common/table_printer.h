// Column-aligned ASCII table output for the benchmark harness, so every
// bench binary prints paper-style rows/series in a uniform format.
#ifndef EVENTHIT_COMMON_TABLE_PRINTER_H_
#define EVENTHIT_COMMON_TABLE_PRINTER_H_

#include <ostream>
#include <string>
#include <vector>

namespace eventhit {

/// Accumulates rows of string cells and renders them with padded columns.
///
/// Usage:
///   TablePrinter table({"Task", "REC", "SPL"});
///   table.AddRow({"TA1", Fmt(rec), Fmt(spl)});
///   table.Print(std::cout);
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  /// Appends one row; must have the same arity as the header.
  void AddRow(std::vector<std::string> cells);

  /// Renders the header, a separator, and all rows to `os`.
  void Print(std::ostream& os) const;

  size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` decimal places.
std::string Fmt(double value, int digits = 3);

/// Formats a double with `digits` significant digits (printf's %g): a
/// sub-unit latency keeps its magnitude where fixed places would print 0.
std::string FmtSig(double value, int digits = 3);

/// Formats an integer.
std::string Fmt(int64_t value);

}  // namespace eventhit

#endif  // EVENTHIT_COMMON_TABLE_PRINTER_H_
