// CPU instruction-set probe behind the SIMD kernel dispatch (util/simd.hpp).
//
// The only level that needs a probe is AVX2: the baseline level (SSE2 on
// x86-64, NEON on ARM) is guaranteed by the target. The CPU is probed once,
// on first use; off x86 the flag is false.
#pragma once

namespace vp {

struct CpuFeatures {
  bool avx2 = false;
};

/// The running CPU's features, probed on the first call and cached. Safe
/// to call before main() (the kernel-dispatch statics do).
const CpuFeatures& cpu_features() noexcept;

}  // namespace vp
