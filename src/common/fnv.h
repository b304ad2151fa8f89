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
constexpr uint64_t FnvU64(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

/// kFnvPrime^8 (mod 2^64).
inline constexpr uint64_t kFnvPrime8 = FnvU64(1, 0);

/// FnvU64(h, v) for a one-byte value: its seven zero bytes only multiply
/// by the prime, so the fold is one xor and one multiply by kFnvPrime^8.
constexpr uint64_t FnvU64Byte(uint64_t h, uint8_t v) {
  return (h ^ v) * kFnvPrime8;
}

static_assert(FnvU64Byte(kFnvOffset, 0) == FnvU64(kFnvOffset, 0) &&
              FnvU64Byte(kFnvOffset, 1) == FnvU64(kFnvOffset, 1) &&
              FnvU64Byte(~0ull, 0xff) == FnvU64(~0ull, 0xff));

}  // namespace eventhit

#endif  // EVENTHIT_COMMON_FNV_H_
