#include "util/cpu.hpp"

namespace vp {

const CpuFeatures& cpu_features() noexcept {
  static const CpuFeatures features = [] {
    CpuFeatures f;
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
    // Required when the first probe can run before the runtime's own
    // constructors have filled in the CPU model.
    __builtin_cpu_init();
    f.avx2 = __builtin_cpu_supports("avx2");
#endif
    return f;
  }();
  return features;
}

}  // namespace vp
