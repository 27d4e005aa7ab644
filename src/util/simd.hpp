// SIMD levels and the one kernel-dispatch template every kernel module
// instantiates (descriptor distance, PQ ADC scan, Gaussian blur; the SIFT
// extrema scan follows the blur's level).
//
// A module writes one kernel per compiled level, hands them to a
// SimdDispatch in level order, and calls the active kernel through one
// relaxed function-pointer load. Which levels compile is decided here, once,
// for every module:
//
//   kScalar    the portable reference loops; always compiled.
//   kBaseline  SSE2 on x86, NEON on ARM: what the target architecture
//              guarantees, so it needs no CPU probe.
//   kAvx2      x86 only, compiled per function with target("avx2") and run
//              when the CPU probe (util/cpu.hpp) reports AVX2.
//
// VP_DISABLE_SIMD (the CMake option of the same name, defined for every
// target) compiles kScalar alone. It must be defined for all or none of the
// translation units of a program: the level list below is part of every
// dispatch table's type.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "util/cpu.hpp"

#if !defined(VP_DISABLE_SIMD) && (defined(__GNUC__) || defined(__clang__)) && \
    defined(__SSE2__)
#define VP_SIMD_X86 1
#else
#define VP_SIMD_X86 0
#endif

#if !defined(VP_DISABLE_SIMD) && !VP_SIMD_X86 && defined(__ARM_NEON)
#define VP_SIMD_NEON 1
#else
#define VP_SIMD_NEON 0
#endif

/// kBaseline is compiled: SSE2 or NEON kernels exist.
#define VP_SIMD_BASELINE (VP_SIMD_X86 || VP_SIMD_NEON)
/// kAvx2 is compiled (x86 only, so always on top of the SSE2 baseline).
#define VP_SIMD_AVX2 VP_SIMD_X86

namespace vp {

/// Kernel levels, slowest first. The compiled levels are always a prefix
/// of this order.
enum class SimdLevel : std::uint8_t {
  kScalar = 0,
  kBaseline = 1,
  kAvx2 = 2,
};

/// Levels compiled into this binary, slowest first; kScalar always first.
/// Tests iterate this to compare every level against the scalar one.
inline constexpr std::array kCompiledSimdLevels = {
    SimdLevel::kScalar,
#if VP_SIMD_BASELINE
    SimdLevel::kBaseline,
#endif
#if VP_SIMD_AVX2
    SimdLevel::kAvx2,
#endif
};

/// "scalar", "sse2" / "neon" (the baseline, by target) or "avx2".
inline std::string_view simd_level_name(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kBaseline:
#if VP_SIMD_NEON
      return "neon";
#else
      return "sse2";
#endif
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

/// True when `level` is compiled in and the running CPU can execute it.
inline bool simd_level_runnable(SimdLevel level) noexcept {
  if (static_cast<std::size_t>(level) >= kCompiledSimdLevels.size()) {
    return false;
  }
  return level != SimdLevel::kAvx2 || cpu_features().avx2;
}

/// The fastest runnable level: the one every dispatch starts at.
inline SimdLevel best_simd_level() noexcept {
  SimdLevel best = SimdLevel::kScalar;
  for (const SimdLevel level : kCompiledSimdLevels) {
    if (simd_level_runnable(level)) best = level;
  }
  return best;
}

/// One module's kernel per compiled level plus the active one. `Fn` is a
/// function pointer (or a pointer to a table of them). Construct it once,
/// as a static, with one kernel per entry of kCompiledSimdLevels in that
/// order; it starts at best_simd_level().
template <typename Fn>
class SimdDispatch {
 public:
  template <typename... Kernels>
  explicit SimdDispatch(Kernels... kernels) noexcept
      : kernels_{kernels...},
        level_(best_simd_level()),
        active_(kernels_[index(best_simd_level())]) {
    static_assert(sizeof...(Kernels) == kCompiledSimdLevels.size(),
                  "one kernel per compiled SIMD level");
  }
  SimdDispatch(const SimdDispatch&) = delete;
  SimdDispatch& operator=(const SimdDispatch&) = delete;

  /// The level the active kernel belongs to.
  SimdLevel active() const noexcept {
    return level_.load(std::memory_order_relaxed);
  }

  /// The active kernel: one relaxed load, the whole per-call cost of
  /// dispatch on the hot paths.
  Fn fn() const noexcept { return active_.load(std::memory_order_relaxed); }

  /// The kernel of `level` regardless of the active one (the harness for
  /// level-vs-scalar bit-identity). The scalar kernel when `level` is not
  /// runnable.
  Fn kernel(SimdLevel level) const noexcept {
    return kernels_[simd_level_runnable(level) ? index(level) : 0];
  }

  /// Make `level` active (benches pin the scalar reference; tests pin each
  /// level). Returns false, changing nothing, when `level` is not compiled
  /// in or the CPU cannot run it. Two relaxed stores: safe between kernel
  /// calls, not concurrently with them.
  bool set(SimdLevel level) noexcept {
    if (!simd_level_runnable(level)) return false;
    level_.store(level, std::memory_order_relaxed);
    active_.store(kernels_[index(level)], std::memory_order_relaxed);
    return true;
  }

 private:
  static constexpr std::size_t index(SimdLevel level) noexcept {
    return static_cast<std::size_t>(level);
  }

  const std::array<Fn, kCompiledSimdLevels.size()> kernels_;
  std::atomic<SimdLevel> level_;
  std::atomic<Fn> active_;
};

}  // namespace vp
