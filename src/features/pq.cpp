#include "features/pq.hpp"

#include <algorithm>
#include <atomic>

#include "util/cpu.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

// Architecture gates, mirroring features/distance.cpp: VP_DISABLE_SIMD
// forces the portable scalar build; otherwise every kernel the target
// architecture can express is compiled and the startup CPU probe picks.
#if !defined(VP_DISABLE_SIMD) && (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define VP_ADC_X86 1
#include <immintrin.h>
#else
#define VP_ADC_X86 0
#endif

#if !defined(VP_DISABLE_SIMD) && defined(__ARM_NEON)
#define VP_ADC_NEON 1
#include <arm_neon.h>
#else
#define VP_ADC_NEON 0
#endif

namespace vp {
namespace {

// ---------------------------------------------------------------------------
// k-means helpers (all integer / deterministic)

/// Squared L2 over one kPqSubDims-wide subvector.
std::uint32_t sub_distance2(const std::uint8_t* a,
                            const std::uint8_t* b) noexcept {
  std::uint32_t sum = 0;
  for (std::size_t d = 0; d < kPqSubDims; ++d) {
    const std::int32_t diff =
        static_cast<std::int32_t>(a[d]) - static_cast<std::int32_t>(b[d]);
    sum += static_cast<std::uint32_t>(diff * diff);
  }
  return sum;
}

/// Nearest centroid id for a subvector, ties to the lowest id.
std::uint8_t nearest_centroid(const std::uint8_t* centroids,
                              const std::uint8_t* v) noexcept {
  std::uint8_t best = 0;
  std::uint32_t best_d = sub_distance2(centroids, v);
  for (std::size_t c = 1; c < kPqCentroids; ++c) {
    const std::uint32_t d = sub_distance2(centroids + c * kPqSubDims, v);
    if (d < best_d) {
      best_d = d;
      best = static_cast<std::uint8_t>(c);
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// ADC scan kernels

using AdcScanFn = void (*)(const std::uint16_t*, const std::uint8_t*,
                           const std::uint32_t*, std::size_t,
                           std::uint32_t*) noexcept;

inline const std::uint8_t* code_at(const std::uint8_t* codes,
                                   const std::uint32_t* ids,
                                   std::size_t i) noexcept {
  const std::size_t id = ids ? ids[i] : i;
  return codes + id * kPqCodeBytes;
}

/// How many codes ahead the SIMD kernels prefetch. The whole id list is
/// in hand when a scan starts (that is the point of whole-scan dispatch
/// granularity), so the gathered-id access pattern — one fresh cache line
/// per candidate — can be announced to the prefetcher well before the
/// demand load. The scalar kernel stays prefetch-free: it is the pure
/// reference the others are compared against.
constexpr std::size_t kPrefetchAhead = 24;

// True-scalar reference, kept un-vectorized for the same reason as the
// scalar distance kernel: it is the verification baseline the SIMD scans
// are compared against bit-for-bit. (The sums are exact u32 integer math,
// so equality is a hard requirement, not a tolerance.)
#if defined(__clang__)
void adc_scan_scalar(const std::uint16_t* lut, const std::uint8_t* codes,
                     const std::uint32_t* ids, std::size_t n,
                     std::uint32_t* out) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t* code = code_at(codes, ids, i);
    std::uint32_t sum = 0;
#pragma clang loop vectorize(disable) interleave(disable)
    for (std::size_t s = 0; s < kPqSubspaces; ++s) {
      sum += lut[(s << 8) | code[s]];
    }
    out[i] = sum;
  }
}
#else
__attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
void adc_scan_scalar(const std::uint16_t* lut, const std::uint8_t* codes,
                     const std::uint32_t* ids, std::size_t n,
                     std::uint32_t* out) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t* code = code_at(codes, ids, i);
    std::uint32_t sum = 0;
    for (std::size_t s = 0; s < kPqSubspaces; ++s) {
      sum += lut[(s << 8) | code[s]];
    }
    out[i] = sum;
  }
}
#endif

#if VP_ADC_X86

// SSE4.1 has no gather: the 16 table loads stay scalar, but they fill two
// u16x8 vectors whose widening (unpack against zero keeps the values
// unsigned) and summation are vectorized. _mm_setr_epi16 takes signed
// shorts; the bit patterns of the u16 entries pass through unchanged.
__attribute__((target("sse4.1"))) void adc_scan_sse41(
    const std::uint16_t* lut, const std::uint8_t* codes,
    const std::uint32_t* ids, std::size_t n, std::uint32_t* out) noexcept {
  const __m128i zero = _mm_setzero_si128();
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchAhead < n) {
      __builtin_prefetch(code_at(codes, ids, i + kPrefetchAhead));
    }
    const std::uint8_t* c = code_at(codes, ids, i);
    const __m128i v0 = _mm_setr_epi16(
        static_cast<short>(lut[(0 << 8) | c[0]]),
        static_cast<short>(lut[(1 << 8) | c[1]]),
        static_cast<short>(lut[(2 << 8) | c[2]]),
        static_cast<short>(lut[(3 << 8) | c[3]]),
        static_cast<short>(lut[(4 << 8) | c[4]]),
        static_cast<short>(lut[(5 << 8) | c[5]]),
        static_cast<short>(lut[(6 << 8) | c[6]]),
        static_cast<short>(lut[(7 << 8) | c[7]]));
    const __m128i v1 = _mm_setr_epi16(
        static_cast<short>(lut[(8 << 8) | c[8]]),
        static_cast<short>(lut[(9 << 8) | c[9]]),
        static_cast<short>(lut[(10 << 8) | c[10]]),
        static_cast<short>(lut[(11 << 8) | c[11]]),
        static_cast<short>(lut[(12 << 8) | c[12]]),
        static_cast<short>(lut[(13 << 8) | c[13]]),
        static_cast<short>(lut[(14 << 8) | c[14]]),
        static_cast<short>(lut[(15 << 8) | c[15]]));
    __m128i s = _mm_add_epi32(
        _mm_add_epi32(_mm_unpacklo_epi16(v0, zero),
                      _mm_unpackhi_epi16(v0, zero)),
        _mm_add_epi32(_mm_unpacklo_epi16(v1, zero),
                      _mm_unpackhi_epi16(v1, zero)));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
    out[i] = static_cast<std::uint32_t>(_mm_cvtsi128_si32(s));
  }
}

// AVX2: all 16 table lookups become two vpgatherdd instructions. Indices
// are u16-element positions (subspace * 256 + code byte), gathered at
// scale 2 as 32-bit loads and masked down to the low 16 bits — the
// AdcTable's two-entry tail pad keeps the final over-wide load in bounds.
// Two codes per iteration keep four independent gather chains in flight
// (vpgatherdd is throughput-bound; back-to-back dependent reductions
// would leave it half idle), and their horizontal sums share one hadd
// tree. Integer adds are exact, so pairing cannot change any result.
__attribute__((target("avx2"))) void adc_scan_avx2(
    const std::uint16_t* lut, const std::uint8_t* codes,
    const std::uint32_t* ids, std::size_t n, std::uint32_t* out) noexcept {
  const __m256i offs_lo =
      _mm256_setr_epi32(0, 256, 512, 768, 1024, 1280, 1536, 1792);
  const __m256i offs_hi =
      _mm256_setr_epi32(2048, 2304, 2560, 2816, 3072, 3328, 3584, 3840);
  const __m256i mask = _mm256_set1_epi32(0xFFFF);
  const int* base = reinterpret_cast<const int*>(lut);
  // A lambda would not inherit the avx2 target attribute (GCC refuses to
  // inline the intrinsics into it), hence the macro-free repeated body via
  // a file-scope helper is avoided and the gather is expanded inline.
#define VP_ADC_GATHER16(c, dst)                                              \
  do {                                                                       \
    const __m128i code_ =                                                    \
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(c));                \
    const __m256i idx_lo_ =                                                  \
        _mm256_add_epi32(_mm256_cvtepu8_epi32(code_), offs_lo);              \
    const __m256i idx_hi_ = _mm256_add_epi32(                                \
        _mm256_cvtepu8_epi32(_mm_srli_si128(code_, 8)), offs_hi);            \
    const __m256i g_lo_ =                                                    \
        _mm256_and_si256(_mm256_i32gather_epi32(base, idx_lo_, 2), mask);    \
    const __m256i g_hi_ =                                                    \
        _mm256_and_si256(_mm256_i32gather_epi32(base, idx_hi_, 2), mask);    \
    (dst) = _mm256_add_epi32(g_lo_, g_hi_);                                  \
  } while (0)
  std::size_t i = 0;
  for (; i + 1 < n; i += 2) {
    if (i + kPrefetchAhead < n) {
      __builtin_prefetch(code_at(codes, ids, i + kPrefetchAhead));
      __builtin_prefetch(code_at(codes, ids, i + kPrefetchAhead + 1));
    }
    __m256i sum0, sum1;
    VP_ADC_GATHER16(code_at(codes, ids, i), sum0);
    VP_ADC_GATHER16(code_at(codes, ids, i + 1), sum1);
    const __m128i s0 = _mm_add_epi32(_mm256_castsi256_si128(sum0),
                                     _mm256_extracti128_si256(sum0, 1));
    const __m128i s1 = _mm_add_epi32(_mm256_castsi256_si128(sum1),
                                     _mm256_extracti128_si256(sum1, 1));
    __m128i h = _mm_hadd_epi32(s0, s1);  // [s0ab s0cd s1ab s1cd]
    h = _mm_hadd_epi32(h, h);            // [s0 s1 s0 s1]
    out[i] = static_cast<std::uint32_t>(_mm_cvtsi128_si32(h));
    out[i + 1] = static_cast<std::uint32_t>(_mm_extract_epi32(h, 1));
  }
  for (; i < n; ++i) {
    __m256i sum;
    VP_ADC_GATHER16(code_at(codes, ids, i), sum);
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(sum),
                              _mm256_extracti128_si256(sum, 1));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
    out[i] = static_cast<std::uint32_t>(_mm_cvtsi128_si32(s));
  }
#undef VP_ADC_GATHER16
}

#endif  // VP_ADC_X86

#if VP_ADC_NEON

// NEON has no gather either; like SSE4.1 the loads are scalar and the
// widening accumulation is vectorized.
void adc_scan_neon(const std::uint16_t* lut, const std::uint8_t* codes,
                   const std::uint32_t* ids, std::size_t n,
                   std::uint32_t* out) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchAhead < n) {
      __builtin_prefetch(code_at(codes, ids, i + kPrefetchAhead));
    }
    const std::uint8_t* c = code_at(codes, ids, i);
    std::uint16_t g[kPqSubspaces];
    for (std::size_t s = 0; s < kPqSubspaces; ++s) {
      g[s] = lut[(s << 8) | c[s]];
    }
    const uint16x8_t v0 = vld1q_u16(g);
    const uint16x8_t v1 = vld1q_u16(g + 8);
    const uint32x4_t sum =
        vaddq_u32(vaddl_u16(vget_low_u16(v0), vget_low_u16(v1)),
                  vaddl_u16(vget_high_u16(v0), vget_high_u16(v1)));
#if defined(__aarch64__)
    out[i] = vaddvq_u32(sum);
#else
    const uint32x2_t half = vadd_u32(vget_low_u32(sum), vget_high_u32(sum));
    out[i] = vget_lane_u32(vpadd_u32(half, half), 0);
#endif
  }
}

#endif  // VP_ADC_NEON

AdcScanFn adc_kernel_fn(DistanceKernel kernel) noexcept {
  switch (kernel) {
#if VP_ADC_X86
    case DistanceKernel::kSse41:
      return &adc_scan_sse41;
    case DistanceKernel::kAvx2:
      return &adc_scan_avx2;
#endif
#if VP_ADC_NEON
    case DistanceKernel::kNeon:
      return &adc_scan_neon;
#endif
    default:
      return &adc_scan_scalar;
  }
}

bool adc_kernel_runnable(DistanceKernel kernel) noexcept {
  switch (kernel) {
    case DistanceKernel::kScalar:
      return true;
#if VP_ADC_X86
    case DistanceKernel::kSse41:
      return cpu_features().sse41;
    case DistanceKernel::kAvx2:
      return cpu_features().avx2;
#endif
#if VP_ADC_NEON
    case DistanceKernel::kNeon:
      return true;  // compiled only when the target guarantees NEON
#endif
    default:
      return false;
  }
}

constexpr std::array kCompiledAdcKernels = {
    DistanceKernel::kScalar,
#if VP_ADC_X86
    DistanceKernel::kSse41,
    DistanceKernel::kAvx2,
#endif
#if VP_ADC_NEON
    DistanceKernel::kNeon,
#endif
};

DistanceKernel best_adc_kernel() noexcept {
  DistanceKernel best = DistanceKernel::kScalar;
  for (const DistanceKernel k : kCompiledAdcKernels) {
    if (adc_kernel_runnable(k)) best = k;  // list is ordered fastest-last
  }
  return best;
}

std::atomic<DistanceKernel> g_adc_active{best_adc_kernel()};
std::atomic<AdcScanFn> g_adc_fn{adc_kernel_fn(best_adc_kernel())};

}  // namespace

// ---------------------------------------------------------------------------
// PqCodebook

PqCodebook PqCodebook::train(const std::uint8_t* descriptors,
                             std::size_t count, const PqTrainConfig& config) {
  PqCodebook book;
  if (count == 0) return book;
  book.centroids_.assign(kPqCodebookBytes, 0);

  // Fixed-stride subsample: index i -> descriptor i * count / samples.
  // Deterministic and order-stable, unlike reservoir sampling.
  const std::size_t samples = std::min(count, config.max_samples);
  std::vector<std::uint32_t> pick(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    pick[i] = static_cast<std::uint32_t>(i * count / samples);
  }
  Rng rng(config.seed);
  const std::size_t first = rng.uniform_u64(samples);

  std::vector<std::uint8_t> sub(samples * kPqSubDims);
  std::vector<std::uint32_t> min_d(samples);
  std::vector<std::uint8_t> assign(samples);
  std::vector<std::uint64_t> sums(kPqCentroids * kPqSubDims);
  std::vector<std::uint32_t> sizes(kPqCentroids);

  for (std::size_t s = 0; s < kPqSubspaces; ++s) {
    // Gather this subspace's training subvectors contiguously.
    for (std::size_t i = 0; i < samples; ++i) {
      const std::uint8_t* d =
          descriptors + static_cast<std::size_t>(pick[i]) * kDescriptorDims +
          s * kPqSubDims;
      std::copy_n(d, kPqSubDims, sub.data() + i * kPqSubDims);
    }
    std::uint8_t* cents =
        book.centroids_.data() + s * kPqCentroids * kPqSubDims;

    // Farthest-point initialization: the seeded pick starts the chain,
    // every later centroid is the sample farthest from all chosen so far
    // (ties to the lowest sample index). With fewer samples than
    // centroids, the tail cycles through the samples again.
    std::copy_n(sub.data() + first * kPqSubDims, kPqSubDims, cents);
    std::fill(min_d.begin(), min_d.end(), 0u);
    for (std::size_t i = 0; i < samples; ++i) {
      min_d[i] = sub_distance2(cents, sub.data() + i * kPqSubDims);
    }
    for (std::size_t c = 1; c < kPqCentroids; ++c) {
      std::size_t far = 0;
      if (c < samples) {
        for (std::size_t i = 1; i < samples; ++i) {
          if (min_d[i] > min_d[far]) far = i;
        }
      } else {
        far = c % samples;
      }
      std::uint8_t* cent = cents + c * kPqSubDims;
      std::copy_n(sub.data() + far * kPqSubDims, kPqSubDims, cent);
      for (std::size_t i = 0; i < samples; ++i) {
        min_d[i] = std::min(min_d[i],
                            sub_distance2(cent, sub.data() + i * kPqSubDims));
      }
    }

    // Lloyd rounds with round-to-nearest u8 means; empty clusters keep
    // their previous centroid. Early exit once assignments are stable.
    std::fill(assign.begin(), assign.end(), std::uint8_t{0});
    for (std::size_t iter = 0; iter < config.iterations; ++iter) {
      bool changed = false;
      for (std::size_t i = 0; i < samples; ++i) {
        const std::uint8_t c =
            nearest_centroid(cents, sub.data() + i * kPqSubDims);
        if (c != assign[i]) {
          assign[i] = c;
          changed = true;
        }
      }
      if (!changed && iter > 0) break;
      std::fill(sums.begin(), sums.end(), std::uint64_t{0});
      std::fill(sizes.begin(), sizes.end(), 0u);
      for (std::size_t i = 0; i < samples; ++i) {
        const std::size_t c = assign[i];
        ++sizes[c];
        for (std::size_t d = 0; d < kPqSubDims; ++d) {
          sums[c * kPqSubDims + d] += sub[i * kPqSubDims + d];
        }
      }
      for (std::size_t c = 0; c < kPqCentroids; ++c) {
        if (sizes[c] == 0) continue;
        for (std::size_t d = 0; d < kPqSubDims; ++d) {
          cents[c * kPqSubDims + d] = static_cast<std::uint8_t>(
              (sums[c * kPqSubDims + d] + sizes[c] / 2) / sizes[c]);
        }
      }
    }
  }
  return book;
}

void PqCodebook::encode(const std::uint8_t* descriptor,
                        std::uint8_t* code) const noexcept {
  for (std::size_t s = 0; s < kPqSubspaces; ++s) {
    code[s] = nearest_centroid(
        centroids_.data() + s * kPqCentroids * kPqSubDims,
        descriptor + s * kPqSubDims);
  }
}

void PqCodebook::reconstruct(const std::uint8_t* code,
                             std::uint8_t* descriptor) const noexcept {
  for (std::size_t s = 0; s < kPqSubspaces; ++s) {
    std::copy_n(centroid(s, code[s]), kPqSubDims,
                descriptor + s * kPqSubDims);
  }
}

void PqCodebook::build_adc_table(const std::uint8_t* query,
                                 AdcTable& out) const noexcept {
  for (std::size_t s = 0; s < kPqSubspaces; ++s) {
    const std::uint8_t* q = query + s * kPqSubDims;
    const std::uint8_t* cents =
        centroids_.data() + s * kPqCentroids * kPqSubDims;
    std::uint16_t* row = out.d.data() + s * kPqCentroids;
    for (std::size_t c = 0; c < kPqCentroids; ++c) {
      // Saturate per-subspace distances into u16 so the whole table stays
      // 8 KB (L1-resident on the scan). Worst case 8 * 255^2 = 520'200
      // only occurs for pathological subvectors; real SIFT subvectors sit
      // far below the 0xFFFF clip, and the clip is deterministic either
      // way.
      row[c] = static_cast<std::uint16_t>(std::min<std::uint32_t>(
          sub_distance2(q, cents + c * kPqSubDims), 0xFFFFu));
    }
  }
}

std::shared_ptr<const PqCodebook::SymmetricLut> PqCodebook::symmetric_lut()
    const {
  auto lut = symmetric_.load(std::memory_order_acquire);
  if (lut != nullptr) return lut;
  // First use: compute every centroid-vs-centroid subspace distance with
  // the exact arithmetic (and u16 saturation) of build_adc_table, so a
  // gathered row is bit-identical to a table built from the reconstructed
  // query. Concurrent first callers may both build; the CAS keeps one and
  // the loser's copy is dropped — wasted work, never a wrong answer.
  auto built = std::make_shared<SymmetricLut>(kPqSubspaces * kPqCentroids *
                                              kPqCentroids);
  for (std::size_t s = 0; s < kPqSubspaces; ++s) {
    const std::uint8_t* cents = centroids_.data() + s * kPqCentroids * kPqSubDims;
    std::uint16_t* plane = built->data() + s * kPqCentroids * kPqCentroids;
    for (std::size_t a = 0; a < kPqCentroids; ++a) {
      std::uint16_t* row = plane + a * kPqCentroids;
      for (std::size_t b = 0; b < kPqCentroids; ++b) {
        row[b] = static_cast<std::uint16_t>(std::min<std::uint32_t>(
            sub_distance2(cents + a * kPqSubDims, cents + b * kPqSubDims),
            0xFFFFu));
      }
    }
  }
  std::shared_ptr<const SymmetricLut> expected;
  std::shared_ptr<const SymmetricLut> install = std::move(built);
  if (symmetric_.compare_exchange_strong(expected, install,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
    return install;
  }
  return expected;  // another thread won the race; use its matrix
}

void PqCodebook::build_symmetric_adc_table(const std::uint8_t* code,
                                           AdcTable& out) const {
  const auto lut = symmetric_lut();
  for (std::size_t s = 0; s < kPqSubspaces; ++s) {
    const std::uint16_t* row =
        lut->data() + (s * kPqCentroids + code[s]) * kPqCentroids;
    std::copy_n(row, kPqCentroids, out.d.data() + s * kPqCentroids);
  }
}

PqCodebook PqCodebook::from_raw(std::span<const std::uint8_t> raw) {
  if (raw.size() != kPqCodebookBytes) {
    throw DecodeError{"pq codebook: expected " +
                      std::to_string(kPqCodebookBytes) + " bytes, got " +
                      std::to_string(raw.size())};
  }
  PqCodebook book;
  book.centroids_.assign(raw.begin(), raw.end());
  return book;
}

// ---------------------------------------------------------------------------
// dispatch surface

std::span<const DistanceKernel> compiled_adc_kernels() noexcept {
  return kCompiledAdcKernels;
}

DistanceKernel active_adc_kernel() noexcept {
  return g_adc_active.load(std::memory_order_relaxed);
}

bool set_adc_kernel(DistanceKernel kernel) noexcept {
  bool compiled = false;
  for (const DistanceKernel k : kCompiledAdcKernels) compiled |= (k == kernel);
  if (!compiled || !adc_kernel_runnable(kernel)) return false;
  g_adc_active.store(kernel, std::memory_order_relaxed);
  g_adc_fn.store(adc_kernel_fn(kernel), std::memory_order_relaxed);
  return true;
}

std::uint32_t adc_distance(const AdcTable& table,
                           const std::uint8_t* code) noexcept {
  std::uint32_t out = 0;
  g_adc_fn.load(std::memory_order_relaxed)(table.d.data(), code, nullptr, 1,
                                           &out);
  return out;
}

void adc_scan(const AdcTable& table, const std::uint8_t* codes,
              const std::uint32_t* ids, std::size_t n,
              std::uint32_t* out) noexcept {
  g_adc_fn.load(std::memory_order_relaxed)(table.d.data(), codes, ids, n, out);
}

void adc_scan_with(DistanceKernel kernel, const AdcTable& table,
                   const std::uint8_t* codes, const std::uint32_t* ids,
                   std::size_t n, std::uint32_t* out) noexcept {
  const AdcScanFn fn = adc_kernel_runnable(kernel) ? adc_kernel_fn(kernel)
                                                   : &adc_scan_scalar;
  fn(table.d.data(), codes, ids, n, out);
}

}  // namespace vp
