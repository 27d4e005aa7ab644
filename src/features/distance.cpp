#include "features/distance.hpp"

#if VP_SIMD_X86
#include <immintrin.h>
#elif VP_SIMD_NEON
#include <arm_neon.h>
#endif

namespace vp {
namespace {

// The scalar kernel is the portable *reference* the SIMD kernels are
// verified against, so keep it genuinely scalar: at -O2/-O3 the
// auto-vectorizer would otherwise rewrite this loop into SSE2/NEON code,
// which makes kernel-vs-kernel comparisons meaningless and platform-
// dependent. No production path pays for this — every SIMD-capable host
// dispatches to an explicit kernel instead.
#if defined(__clang__)
std::uint32_t distance2_scalar(const std::uint8_t* a,
                               const std::uint8_t* b) noexcept {
  std::uint32_t sum = 0;
#pragma clang loop vectorize(disable) interleave(disable)
  for (std::size_t i = 0; i < kDistanceDims; ++i) {
    const std::int32_t d =
        static_cast<std::int32_t>(a[i]) - static_cast<std::int32_t>(b[i]);
    sum += static_cast<std::uint32_t>(d * d);
  }
  return sum;
}
#else
__attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
std::uint32_t distance2_scalar(const std::uint8_t* a,
                               const std::uint8_t* b) noexcept {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i < kDistanceDims; ++i) {
    const std::int32_t d =
        static_cast<std::int32_t>(a[i]) - static_cast<std::int32_t>(b[i]);
    sum += static_cast<std::uint32_t>(d * d);
  }
  return sum;
}
#endif

#if VP_SIMD_X86

// Both x86 kernels widen u8 -> i16, take the difference, and use the
// multiply-accumulate madd (i16*i16 -> paired i32 sums). Worst-case term
// is 255^2 = 65025; 128 of them total 8,323,200 — far inside i32, so the
// integer arithmetic is exact and bit-identical to the scalar loop. SSE2
// widens by interleaving with zero bytes.

std::uint32_t distance2_sse2(const std::uint8_t* a,
                             const std::uint8_t* b) noexcept {
  const __m128i zero = _mm_setzero_si128();
  __m128i acc = _mm_setzero_si128();
  for (std::size_t i = 0; i < kDistanceDims; i += 16) {
    const __m128i va = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(b + i));
    const __m128i d_lo = _mm_sub_epi16(_mm_unpacklo_epi8(va, zero),
                                       _mm_unpacklo_epi8(vb, zero));
    const __m128i d_hi = _mm_sub_epi16(_mm_unpackhi_epi8(va, zero),
                                       _mm_unpackhi_epi8(vb, zero));
    acc = _mm_add_epi32(acc, _mm_madd_epi16(d_lo, d_lo));
    acc = _mm_add_epi32(acc, _mm_madd_epi16(d_hi, d_hi));
  }
  acc = _mm_add_epi32(acc, _mm_shuffle_epi32(acc, _MM_SHUFFLE(1, 0, 3, 2)));
  acc = _mm_add_epi32(acc, _mm_shuffle_epi32(acc, _MM_SHUFFLE(2, 3, 0, 1)));
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(acc));
}

__attribute__((target("avx2"))) std::uint32_t distance2_avx2(
    const std::uint8_t* a, const std::uint8_t* b) noexcept {
  __m256i acc = _mm256_setzero_si256();
  for (std::size_t i = 0; i < kDistanceDims; i += 32) {
    const __m256i va = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b + i));
    const __m256i d_lo =
        _mm256_sub_epi16(_mm256_cvtepu8_epi16(_mm256_castsi256_si128(va)),
                         _mm256_cvtepu8_epi16(_mm256_castsi256_si128(vb)));
    const __m256i d_hi =
        _mm256_sub_epi16(_mm256_cvtepu8_epi16(_mm256_extracti128_si256(va, 1)),
                         _mm256_cvtepu8_epi16(_mm256_extracti128_si256(vb, 1)));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(d_lo, d_lo));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(d_hi, d_hi));
  }
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc),
                            _mm256_extracti128_si256(acc, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(s));
}

#endif  // VP_SIMD_X86

#if VP_SIMD_NEON

std::uint32_t distance2_neon(const std::uint8_t* a,
                             const std::uint8_t* b) noexcept {
  // |a-b| fits u8, its square fits u16*u16 -> u32; widening multiply-
  // accumulate keeps everything exact.
  uint32x4_t acc = vdupq_n_u32(0);
  for (std::size_t i = 0; i < kDistanceDims; i += 16) {
    const uint8x16_t va = vld1q_u8(a + i);
    const uint8x16_t vb = vld1q_u8(b + i);
    const uint16x8_t d_lo = vabdl_u8(vget_low_u8(va), vget_low_u8(vb));
    const uint16x8_t d_hi = vabdl_u8(vget_high_u8(va), vget_high_u8(vb));
    acc = vmlal_u16(acc, vget_low_u16(d_lo), vget_low_u16(d_lo));
    acc = vmlal_u16(acc, vget_high_u16(d_lo), vget_high_u16(d_lo));
    acc = vmlal_u16(acc, vget_low_u16(d_hi), vget_low_u16(d_hi));
    acc = vmlal_u16(acc, vget_high_u16(d_hi), vget_high_u16(d_hi));
  }
#if defined(__aarch64__)
  return vaddvq_u32(acc);
#else
  const uint32x2_t half = vadd_u32(vget_low_u32(acc), vget_high_u32(acc));
  return vget_lane_u32(vpadd_u32(half, half), 0);
#endif
}

#endif  // VP_SIMD_NEON

SimdDispatch<DistanceFn> g_kernels{
    &distance2_scalar,
#if VP_SIMD_X86
    &distance2_sse2,
    &distance2_avx2,
#elif VP_SIMD_NEON
    &distance2_neon,
#endif
};

}  // namespace

SimdDispatch<DistanceFn>& distance_kernels() noexcept { return g_kernels; }

std::uint32_t distance2_u8_128(const std::uint8_t* a,
                               const std::uint8_t* b) noexcept {
  return g_kernels.fn()(a, b);
}

SimdLevel active_distance_kernel() noexcept { return g_kernels.active(); }

std::string_view kernel_name(SimdLevel level) noexcept {
  return simd_level_name(level);
}

}  // namespace vp
