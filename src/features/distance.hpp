// SIMD descriptor-distance kernels with runtime dispatch.
//
// The paper runs brute-force matching "on GPU as a SIMD matching"; the CPU
// equivalent is a vectorized u8 squared-L2 kernel. This module writes one
// kernel per SIMD level (util/simd.hpp: scalar, SSE2 / NEON, AVX2) and
// routes all distance work through the active one via a single indirect
// call. Every kernel returns bit-identical sums — the arithmetic is exact
// integer math, so the level can never change a Match list (asserted in
// tests/test_features.cpp and tests/test_index.cpp).
#pragma once

#include <cstdint>
#include <string_view>

#include "util/simd.hpp"

namespace vp {

/// Dimensionality every kernel is specialized for (SIFT descriptors).
inline constexpr std::size_t kDistanceDims = 128;

/// Squared L2 distance between two kDistanceDims-byte u8 vectors. The
/// pointers need no alignment (unaligned loads throughout).
using DistanceFn = std::uint32_t (*)(const std::uint8_t*,
                                     const std::uint8_t*) noexcept;

/// The distance kernels: pin a level with distance_kernels().set(level),
/// evaluate one level with distance_kernels().kernel(level)(a, b).
SimdDispatch<DistanceFn>& distance_kernels() noexcept;

/// Squared L2 distance between two 128-byte u8 vectors via the active
/// kernel.
std::uint32_t distance2_u8_128(const std::uint8_t* a,
                               const std::uint8_t* b) noexcept;

/// distance_kernels().active(). Kept, with kernel_name, only for the
/// benchmark's host fingerprint line, until the benchmark reads the shared
/// accessors itself.
SimdLevel active_distance_kernel() noexcept;
/// simd_level_name(level); see active_distance_kernel.
std::string_view kernel_name(SimdLevel level) noexcept;

}  // namespace vp
