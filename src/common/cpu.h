// Runtime CPU feature detection, shared by every module that dispatches
// explicit AVX2 code: nn's kernel backends (nn/backend.h) and the
// generator's skip lanes (sim/skip_kernels.h).
#ifndef EVENTHIT_COMMON_CPU_H_
#define EVENTHIT_COMMON_CPU_H_

namespace eventhit {

/// True when the CPU reports both AVX2 and FMA (cpuid, read once). Always
/// false off x86. Callers add their own build-time check that the AVX2
/// code is compiled in.
bool CpuHasAvx2Fma();

}  // namespace eventhit

#endif  // EVENTHIT_COMMON_CPU_H_
