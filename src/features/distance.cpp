#include "features/distance.hpp"

#include <array>
#include <atomic>

#include "util/cpu.hpp"

// Architecture gates. VP_DISABLE_SIMD (CMake option) forces the portable
// scalar build even on SIMD-capable hosts so that path stays compiled and
// tested; otherwise each kernel compiles whenever the *architecture* can
// express it, and the shared CPU probe (util/cpu.hpp) decides at startup
// which one runs.
#if !defined(VP_DISABLE_SIMD) && (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define VP_DIST_X86 1
#include <immintrin.h>
#else
#define VP_DIST_X86 0
#endif

#if !defined(VP_DISABLE_SIMD) && defined(__ARM_NEON)
#define VP_DIST_NEON 1
#include <arm_neon.h>
#else
#define VP_DIST_NEON 0
#endif

namespace vp {
namespace {

using DistanceFn = std::uint32_t (*)(const std::uint8_t*,
                                     const std::uint8_t*) noexcept;

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

#if VP_DIST_X86

// Both x86 kernels widen u8 -> i16, take the difference, and use the
// multiply-accumulate madd (i16*i16 -> paired i32 sums). Worst-case term
// is 255^2 = 65025; 128 of them total 8,323,200 — far inside i32, so the
// integer arithmetic is exact and bit-identical to the scalar loop.

__attribute__((target("sse4.1"))) std::uint32_t distance2_sse41(
    const std::uint8_t* a, const std::uint8_t* b) noexcept {
  __m128i acc = _mm_setzero_si128();
  for (std::size_t i = 0; i < kDistanceDims; i += 16) {
    const __m128i va = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(b + i));
    const __m128i d_lo = _mm_sub_epi16(_mm_cvtepu8_epi16(va),
                                       _mm_cvtepu8_epi16(vb));
    const __m128i d_hi =
        _mm_sub_epi16(_mm_cvtepu8_epi16(_mm_srli_si128(va, 8)),
                      _mm_cvtepu8_epi16(_mm_srli_si128(vb, 8)));
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

#endif  // VP_DIST_X86

#if VP_DIST_NEON

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

#endif  // VP_DIST_NEON

DistanceFn kernel_fn(DistanceKernel kernel) noexcept {
  switch (kernel) {
#if VP_DIST_X86
    case DistanceKernel::kSse41:
      return &distance2_sse41;
    case DistanceKernel::kAvx2:
      return &distance2_avx2;
#endif
#if VP_DIST_NEON
    case DistanceKernel::kNeon:
      return &distance2_neon;
#endif
    default:
      return &distance2_scalar;
  }
}

bool kernel_runnable(DistanceKernel kernel) noexcept {
  switch (kernel) {
    case DistanceKernel::kScalar:
      return true;
#if VP_DIST_X86
    case DistanceKernel::kSse41:
      return cpu_features().sse41;
    case DistanceKernel::kAvx2:
      return cpu_features().avx2;
#endif
#if VP_DIST_NEON
    case DistanceKernel::kNeon:
      return true;  // compiled only when the target guarantees NEON
#endif
    default:
      return false;
  }
}

constexpr std::array kCompiledKernels = {
    DistanceKernel::kScalar,
#if VP_DIST_X86
    DistanceKernel::kSse41,
    DistanceKernel::kAvx2,
#endif
#if VP_DIST_NEON
    DistanceKernel::kNeon,
#endif
};

DistanceKernel best_runnable_kernel() noexcept {
  DistanceKernel best = DistanceKernel::kScalar;
  for (const DistanceKernel k : kCompiledKernels) {
    if (kernel_runnable(k)) best = k;  // list is ordered fastest-last
  }
  return best;
}

// Selected once before main(); the hot path pays one relaxed load.
std::atomic<DistanceKernel> g_active{best_runnable_kernel()};
std::atomic<DistanceFn> g_active_fn{kernel_fn(best_runnable_kernel())};

// ---------------------------------------------------------------------------
// Hamming kernels (256-bit binary descriptors)

using HammingFn = std::uint32_t (*)(const std::uint64_t*,
                                    const std::uint64_t*) noexcept;

// SWAR reference popcount — deliberately not std::popcount, which lowers
// to the hardware POPCNT instruction on -mpopcnt builds and would make
// the "scalar" baseline platform-dependent.
#if defined(__clang__)
std::uint32_t hamming_scalar(const std::uint64_t* a,
                             const std::uint64_t* b) noexcept {
  std::uint32_t total = 0;
#pragma clang loop vectorize(disable) interleave(disable)
  for (std::size_t i = 0; i < kHammingWords; ++i) {
    std::uint64_t x = a[i] ^ b[i];
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    total += static_cast<std::uint32_t>((x * 0x0101010101010101ULL) >> 56);
  }
  return total;
}
#else
__attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
std::uint32_t hamming_scalar(const std::uint64_t* a,
                             const std::uint64_t* b) noexcept {
  std::uint32_t total = 0;
  for (std::size_t i = 0; i < kHammingWords; ++i) {
    std::uint64_t x = a[i] ^ b[i];
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    total += static_cast<std::uint32_t>((x * 0x0101010101010101ULL) >> 56);
  }
  return total;
}
#endif

#if VP_DIST_X86

__attribute__((target("popcnt"))) std::uint32_t hamming_popcnt(
    const std::uint64_t* a, const std::uint64_t* b) noexcept {
  return static_cast<std::uint32_t>(
      __builtin_popcountll(a[0] ^ b[0]) + __builtin_popcountll(a[1] ^ b[1]) +
      __builtin_popcountll(a[2] ^ b[2]) + __builtin_popcountll(a[3] ^ b[3]));
}

// One 256-bit xor, then the nibble-LUT popcount (Mula): vpshufb counts
// each nibble, vpsadbw folds the 32 byte-counts into four u64 partials.
// (Harley–Seal's carry-save tree only pays off across many vectors; at
// one 256-bit vector per descriptor this LUT step IS its inner kernel.)
__attribute__((target("avx2"))) std::uint32_t hamming_avx2(
    const std::uint64_t* a, const std::uint64_t* b) noexcept {
  const __m256i va =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
  const __m256i vb =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
  const __m256i x = _mm256_xor_si256(va, vb);
  const __m256i lookup =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(x, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(x, 4), low_mask);
  const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                      _mm256_shuffle_epi8(lookup, hi));
  const __m256i sad = _mm256_sad_epu8(cnt, _mm256_setzero_si256());
  const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(sad),
                                  _mm256_extracti128_si256(sad, 1));
  return static_cast<std::uint32_t>(
      static_cast<std::uint64_t>(_mm_cvtsi128_si64(s)) +
      static_cast<std::uint64_t>(_mm_extract_epi64(s, 1)));
}

#endif  // VP_DIST_X86

#if VP_DIST_NEON

std::uint32_t hamming_neon(const std::uint64_t* a,
                           const std::uint64_t* b) noexcept {
  const std::uint8_t* pa = reinterpret_cast<const std::uint8_t*>(a);
  const std::uint8_t* pb = reinterpret_cast<const std::uint8_t*>(b);
  const uint8x16_t x0 = veorq_u8(vld1q_u8(pa), vld1q_u8(pb));
  const uint8x16_t x1 = veorq_u8(vld1q_u8(pa + 16), vld1q_u8(pb + 16));
  // Per-lane counts max out at 8 + 8 = 16, so the byte add cannot wrap;
  // the widening pairwise ladder keeps the total (max 256) exact.
  const uint8x16_t cnt = vaddq_u8(vcntq_u8(x0), vcntq_u8(x1));
  const uint32x4_t sum = vpaddlq_u16(vpaddlq_u8(cnt));
#if defined(__aarch64__)
  return vaddvq_u32(sum);
#else
  const uint32x2_t half = vadd_u32(vget_low_u32(sum), vget_high_u32(sum));
  return vget_lane_u32(vpadd_u32(half, half), 0);
#endif
}

#endif  // VP_DIST_NEON

HammingFn hamming_fn(HammingKernel kernel) noexcept {
  switch (kernel) {
#if VP_DIST_X86
    case HammingKernel::kPopcnt:
      return &hamming_popcnt;
    case HammingKernel::kAvx2:
      return &hamming_avx2;
#endif
#if VP_DIST_NEON
    case HammingKernel::kNeon:
      return &hamming_neon;
#endif
    default:
      return &hamming_scalar;
  }
}

bool hamming_runnable(HammingKernel kernel) noexcept {
  switch (kernel) {
    case HammingKernel::kScalar:
      return true;
#if VP_DIST_X86
    case HammingKernel::kPopcnt:
      return cpu_features().popcnt;
    case HammingKernel::kAvx2:
      return cpu_features().avx2;
#endif
#if VP_DIST_NEON
    case HammingKernel::kNeon:
      return true;  // compiled only when the target guarantees NEON
#endif
    default:
      return false;
  }
}

constexpr std::array kCompiledHammingKernels = {
    HammingKernel::kScalar,
#if VP_DIST_X86
    HammingKernel::kPopcnt,
    HammingKernel::kAvx2,
#endif
#if VP_DIST_NEON
    HammingKernel::kNeon,
#endif
};

HammingKernel best_hamming_kernel() noexcept {
  HammingKernel best = HammingKernel::kScalar;
  for (const HammingKernel k : kCompiledHammingKernels) {
    if (hamming_runnable(k)) best = k;  // list is ordered fastest-last
  }
  return best;
}

std::atomic<HammingKernel> g_hamming_active{best_hamming_kernel()};
std::atomic<HammingFn> g_hamming_fn{hamming_fn(best_hamming_kernel())};

}  // namespace

std::string_view kernel_name(DistanceKernel kernel) noexcept {
  switch (kernel) {
    case DistanceKernel::kScalar:
      return "scalar";
    case DistanceKernel::kSse41:
      return "sse4.1";
    case DistanceKernel::kAvx2:
      return "avx2";
    case DistanceKernel::kNeon:
      return "neon";
  }
  return "unknown";
}

std::span<const DistanceKernel> compiled_distance_kernels() noexcept {
  return kCompiledKernels;
}

DistanceKernel active_distance_kernel() noexcept {
  return g_active.load(std::memory_order_relaxed);
}

bool set_distance_kernel(DistanceKernel kernel) noexcept {
  bool compiled = false;
  for (const DistanceKernel k : kCompiledKernels) compiled |= (k == kernel);
  if (!compiled || !kernel_runnable(kernel)) return false;
  g_active.store(kernel, std::memory_order_relaxed);
  g_active_fn.store(kernel_fn(kernel), std::memory_order_relaxed);
  return true;
}

std::uint32_t distance2_u8_128(const std::uint8_t* a,
                               const std::uint8_t* b) noexcept {
  return g_active_fn.load(std::memory_order_relaxed)(a, b);
}

std::uint32_t distance2_u8_128_with(DistanceKernel kernel,
                                    const std::uint8_t* a,
                                    const std::uint8_t* b) noexcept {
  return kernel_runnable(kernel) ? kernel_fn(kernel)(a, b)
                                 : distance2_scalar(a, b);
}

std::string_view kernel_name(HammingKernel kernel) noexcept {
  switch (kernel) {
    case HammingKernel::kScalar:
      return "scalar";
    case HammingKernel::kPopcnt:
      return "popcnt";
    case HammingKernel::kAvx2:
      return "avx2";
    case HammingKernel::kNeon:
      return "neon";
  }
  return "unknown";
}

std::span<const HammingKernel> compiled_hamming_kernels() noexcept {
  return kCompiledHammingKernels;
}

HammingKernel active_hamming_kernel() noexcept {
  return g_hamming_active.load(std::memory_order_relaxed);
}

bool set_hamming_kernel(HammingKernel kernel) noexcept {
  bool compiled = false;
  for (const HammingKernel k : kCompiledHammingKernels) {
    compiled |= (k == kernel);
  }
  if (!compiled || !hamming_runnable(kernel)) return false;
  g_hamming_active.store(kernel, std::memory_order_relaxed);
  g_hamming_fn.store(hamming_fn(kernel), std::memory_order_relaxed);
  return true;
}

std::uint32_t hamming256(const std::uint64_t* a,
                         const std::uint64_t* b) noexcept {
  return g_hamming_fn.load(std::memory_order_relaxed)(a, b);
}

std::uint32_t hamming256_with(HammingKernel kernel, const std::uint64_t* a,
                              const std::uint64_t* b) noexcept {
  return hamming_runnable(kernel) ? hamming_fn(kernel)(a, b)
                                  : hamming_scalar(a, b);
}

}  // namespace vp
