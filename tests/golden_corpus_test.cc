// Every section of the golden digest corpus (golden_corpus.h) must print
// the lines committed in tests/golden/digest_corpus.txt. A digest that
// moves on purpose is regenerated and named in CHANGES.md with its cause.
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "golden_corpus.h"

namespace eventhit::golden {
namespace {

class GoldenCorpusTest : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenCorpusTest, SectionMatchesCommittedLines) {
  const std::string path =
      std::string(EVENTHIT_SOURCE_DIR) + "/tests/golden/digest_corpus.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "cannot read " << path;
  std::string fingerprint;
  std::getline(in, fingerprint);
  if (fingerprint != ToolchainFingerprint()) {
    GTEST_SKIP() << "corpus generated with '" << fingerprint
                 << "', this build is '" << ToolchainFingerprint()
                 << "': the simulator's libm draws may differ";
  }
  const std::string prefix = GetParam() + " ";
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);) {
    if (line.compare(0, prefix.size(), prefix) == 0) expected.push_back(line);
  }
  const std::vector<std::string> actual = SectionLines(GetParam());
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Sections, GoldenCorpusTest,
                         ::testing::ValuesIn(SectionNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace eventhit::golden
