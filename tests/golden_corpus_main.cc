// Prints the golden digest corpus (golden_corpus.h), fingerprint first.
// Regenerate the committed copy with
//   golden_corpus > tests/golden/digest_corpus.txt
#include <iostream>
#include <string>

#include "golden_corpus.h"

int main() {
  using namespace eventhit::golden;
  std::cout << ToolchainFingerprint() << "\n";
  for (const std::string& section : SectionNames()) {
    for (const std::string& line : SectionLines(section)) {
      std::cout << line << "\n";
    }
  }
  return 0;
}
