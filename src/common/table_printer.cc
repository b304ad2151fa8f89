#include "common/table_printer.h"

#include <cstdio>
#include <iomanip>

#include "common/check.h"

namespace eventhit {

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {
  EVENTHIT_CHECK(!header_.empty());
}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  EVENTHIT_CHECK_EQ(cells.size(), header_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print(std::ostream& os) const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "| " : " | ") << std::left << std::setw(static_cast<int>(widths[c]))
         << row[c];
    }
    os << " |\n";
  };
  print_row(header_);
  for (size_t c = 0; c < header_.size(); ++c) {
    os << (c == 0 ? "|-" : "-|-") << std::string(widths[c], '-');
  }
  os << "-|\n";
  for (const auto& row : rows_) print_row(row);
}

std::string Fmt(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

std::string FmtSig(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*g", digits, value);
  return buffer;
}

std::string Fmt(int64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%lld", static_cast<long long>(value));
  return buffer;
}

}  // namespace eventhit
