// The golden digest corpus: one line per configuration, pinning the bits a
// "no digest moved" change promises to keep. Each line starts with its
// section's name and a configuration key, followed by key=value digests:
//
//   fleet-<task>-<backend>  every collect policy x fault profile x recal:
//       the trained model's Save() bytes, its test-score bytes, and one
//       fold per fleet of every stream's decision, delivery, provenance
//       and state digest;
//   edge   a frame count not aligned to H (per policy), and one M = H
//          stream replayed inline;
//   lab    the drift-recovery lab per scenario x recal arm: its times,
//          swap count and decision digest;
//   walk   eval::WalkPolicy per task x policy: a fold of its decisions and
//          of its MarshallerStats.
//
// The simulator draws through the C library's transcendental functions,
// so the literals hold for one toolchain: the corpus file records
// ToolchainFingerprint() and the comparing test skips elsewhere.
// Regenerate with `golden_corpus > tests/golden/digest_corpus.txt`.
#ifndef EVENTHIT_TESTS_GOLDEN_CORPUS_H_
#define EVENTHIT_TESTS_GOLDEN_CORPUS_H_

#include <string>
#include <vector>

namespace eventhit::golden {

/// "toolchain <compiler> <version> <libc> <version>": the first line of
/// the corpus file.
std::string ToolchainFingerprint();

/// The corpus' sections, in file order.
std::vector<std::string> SectionNames();

/// The lines of one section, each starting with the section name.
std::vector<std::string> SectionLines(const std::string& section);

}  // namespace eventhit::golden

#endif  // EVENTHIT_TESTS_GOLDEN_CORPUS_H_
