#include "common/cpu.h"

namespace eventhit {

bool CpuHasAvx2Fma() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  // __builtin_cpu_supports returns the feature's mask *bit*, not 0/1 —
  // always compare against zero.
  static const bool available = __builtin_cpu_supports("avx2") != 0 &&
                                __builtin_cpu_supports("fma") != 0;
  return available;
#else
  return false;
#endif
}

}  // namespace eventhit
