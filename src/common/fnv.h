// FNV-1a 64-bit folding behind every replay digest. Header-only, so the
// dependency-free obs layer can use it too.
#ifndef EVENTHIT_COMMON_FNV_H_
#define EVENTHIT_COMMON_FNV_H_

#include <cstddef>
#include <cstdint>

namespace eventhit {

/// Starting value of every digest. The standard 64-bit FNV offset basis is
/// 14695981039346656037; this is that value with its last digit dropped,
/// kept so that the digests recorded so far do not move.
inline constexpr uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;

/// Folds `n` bytes into the running hash `h`.
inline uint64_t FnvBytes(uint64_t h, const void* data, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Folds the eight bytes of `v`, least significant first.
inline uint64_t FnvU64(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace eventhit

#endif  // EVENTHIT_COMMON_FNV_H_
