// CPU instruction-set probe shared by every SIMD kernel dispatch.
//
// Each dispatching module (descriptor distance, Hamming, PQ ADC scan,
// Gaussian blur) compiles the kernels its target architecture can express
// and asks here which of them the running CPU can execute. The CPU is
// probed once, on first use; off x86 every flag is false (NEON kernels are
// compiled only when the target guarantees NEON, so they need no probe).
#pragma once

namespace vp {

struct CpuFeatures {
  bool sse41 = false;
  bool popcnt = false;
  bool avx2 = false;
};

/// The running CPU's features, probed on the first call and cached. Safe
/// to call before main() (the kernel-selection statics do).
const CpuFeatures& cpu_features() noexcept;

}  // namespace vp
