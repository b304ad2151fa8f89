#include "common/table_printer.h"

#include <sstream>

#include <gtest/gtest.h>

namespace eventhit {
namespace {

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"Name", "Value"});
  table.AddRow({"a", "1"});
  table.AddRow({"longer", "22"});
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| Name   | Value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
  EXPECT_NE(out.find("|--------|-------|"), std::string::npos);
}

TEST(TablePrinterTest, CountsRows) {
  TablePrinter table({"X"});
  EXPECT_EQ(table.num_rows(), 0u);
  table.AddRow({"1"});
  table.AddRow({"2"});
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TablePrinterTest, MismatchedRowDies) {
  TablePrinter table({"A", "B"});
  EXPECT_DEATH(table.AddRow({"only-one"}), "CHECK failed");
}

TEST(FmtTest, FormatsDoublesAndInts) {
  EXPECT_EQ(Fmt(0.12345, 3), "0.123");
  EXPECT_EQ(Fmt(2.0, 1), "2.0");
  EXPECT_EQ(Fmt(static_cast<int64_t>(-42)), "-42");
  // Significant digits keep a sub-unit latency that two places print as 0.
  EXPECT_EQ(Fmt(0.0046, 2), "0.00");
  EXPECT_EQ(FmtSig(0.0046), "0.0046");
  EXPECT_EQ(FmtSig(0.0123456), "0.0123");
  EXPECT_EQ(FmtSig(45.6789), "45.7");
  EXPECT_EQ(FmtSig(2.0), "2");
}

}  // namespace
}  // namespace eventhit
