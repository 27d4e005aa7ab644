// Product quantization of SIFT descriptors + asymmetric-distance (ADC)
// scan kernels.
//
// A stored 128-byte u8 descriptor is split into 16 contiguous 8-dim
// subvectors; each subvector is quantized to the nearest of 256 per-
// subspace centroids learned by seeded k-means. A descriptor then costs
// 16 code bytes instead of 128 raw bytes (8x), and the whole codebook is
// a fixed 32 KB per shard. This is the compact-descriptor scheme of
// Hybrid Scene Compression (Camposeco et al.): quantized codes answer the
// coarse candidate scan, exact u8-L2 reranking of the top few preserves
// retrieval accuracy.
//
// Ranking a candidate against a query never reconstructs the descriptor.
// Instead the query builds one 16x256 table of u16 subspace distances
// (query subvector vs every centroid, saturated at 0xFFFF), and a
// candidate's asymmetric distance is 16 table lookups summed — integer
// math throughout, so every scan kernel below returns bit-identical sums
// and kernel choice can never change a ranking.
//
// The scan kernels follow the same probe-once/atomic-fn-pointer dispatch
// pattern as features/distance.hpp: AVX2 (vpgatherdd over the table),
// SSE4.1 (vector accumulation of scalar gathers), NEON, and a true-scalar
// reference, pinnable via set_adc_kernel for benches and tests.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "features/distance.hpp"
#include "features/keypoint.hpp"

namespace vp {

/// Subspace geometry: 16 subspaces x 8 dims x 256 centroids. 128-dim
/// descriptors quantize to 16-byte codes (one centroid id per subspace).
inline constexpr std::size_t kPqSubspaces = 16;
inline constexpr std::size_t kPqSubDims = kDescriptorDims / kPqSubspaces;
inline constexpr std::size_t kPqCentroids = 256;
inline constexpr std::size_t kPqCodeBytes = kPqSubspaces;
/// Serialized codebook payload: [subspace][centroid][dim] u8.
inline constexpr std::size_t kPqCodebookBytes =
    kPqSubspaces * kPqCentroids * kPqSubDims;

/// Seeded k-means training parameters. Training is fully deterministic:
/// a fixed-stride subsample of at most `max_samples` descriptors,
/// farthest-point initialization, `iterations` Lloyd rounds with
/// round-to-nearest u8 means, ties always resolved to the lowest index.
struct PqTrainConfig {
  std::size_t iterations = 8;
  std::size_t max_samples = 2048;  ///< training subsample cap per shard
  std::uint64_t seed = 0xADC0DE5Eu;  ///< first-centroid pick
};

/// How an index stores and scans descriptors (LshIndexConfig::pq).
/// Disabled by default: exact-only remains the bit-identity baseline.
struct PqIndexConfig {
  bool enabled = false;
  /// Candidates surviving the coarse ADC scan into exact u8-L2 reranking,
  /// in deterministic (adc_distance, id) order. The ADC stage only runs
  /// when a query gathers more than this many candidates.
  std::uint32_t rerank_depth = 64;
  PqTrainConfig train{};
};

/// Per-query ADC lookup table: d[s * 256 + c] is the squared L2 distance
/// (saturated to 0xFFFF) between the query's subvector s and centroid c.
/// Two entries of tail padding let the AVX2 gather kernel issue its final
/// 32-bit load without reading past the allocation.
struct AdcTable {
  alignas(64) std::array<std::uint16_t, kPqSubspaces * kPqCentroids + 2> d{};
};

/// A trained per-shard codebook: 16 x 256 centroids of 8 u8 dims.
class PqCodebook {
 public:
  PqCodebook() = default;  ///< untrained; encode/table calls are invalid

  bool trained() const noexcept { return !centroids_.empty(); }

  /// Train on `count` descriptors laid out at 128-byte stride (the
  /// LshIndex flat buffer). Deterministic for a given (data, config).
  /// count == 0 yields an untrained codebook.
  static PqCodebook train(const std::uint8_t* descriptors, std::size_t count,
                          const PqTrainConfig& config = {});

  /// Quantize one 128-byte descriptor into a 16-byte code (nearest
  /// centroid per subspace, ties to the lowest centroid id).
  void encode(const std::uint8_t* descriptor,
              std::uint8_t* code) const noexcept;

  /// Inverse of encode up to quantization: concatenate the code's 16
  /// centroid subvectors into a 128-byte descriptor. This is how a compact
  /// query re-enters the exact ranking pipeline server-side.
  void reconstruct(const std::uint8_t* code,
                   std::uint8_t* descriptor) const noexcept;

  /// Build the per-query lookup table for asymmetric scans.
  void build_adc_table(const std::uint8_t* query,
                       AdcTable& out) const noexcept;

  /// Symmetric variant for code-only queries: fill `out` with the rows of
  /// the precomputed centroid-vs-centroid distance matrix selected by the
  /// query's code — 16 row copies instead of 16 x 256 subvector distance
  /// evaluations. Bit-identical to build_adc_table over the reconstructed
  /// descriptor (the query subvector IS a centroid), so the fast path can
  /// never change a ranking. The 2 MiB matrix is built lazily on first use
  /// (thread-safe; a lost race wastes one redundant build) and shared by
  /// codebook copies.
  void build_symmetric_adc_table(const std::uint8_t* code,
                                 AdcTable& out) const;

  const std::uint8_t* centroid(std::size_t subspace,
                               std::size_t c) const noexcept {
    return centroids_.data() + (subspace * kPqCentroids + c) * kPqSubDims;
  }

  /// Serialized payload (kPqCodebookBytes when trained, empty otherwise).
  std::span<const std::uint8_t> raw() const noexcept { return centroids_; }
  /// Rebuild from a serialized payload. Throws DecodeError unless the
  /// payload is exactly kPqCodebookBytes.
  static PqCodebook from_raw(std::span<const std::uint8_t> raw);

 private:
  /// [subspace][a][b] u16 saturated squared L2 between centroids a and b —
  /// the symmetric-ADC row source (kPqSubspaces * 256 * 256 entries, 2 MiB).
  using SymmetricLut = std::vector<std::uint16_t>;

  std::shared_ptr<const SymmetricLut> symmetric_lut() const;

  std::vector<std::uint8_t> centroids_;  ///< [subspace][centroid][dim]
  /// Lazily-built symmetric matrix. Atomic so concurrent readers of one
  /// published shard can race the first build safely; copies of the
  /// codebook share the already-built matrix (see the copy operations).
  mutable std::atomic<std::shared_ptr<const SymmetricLut>> symmetric_{};

 public:
  // Copy/move preserve the built symmetric matrix (std::atomic members
  // delete the defaults). Declared after the members they copy.
  PqCodebook(const PqCodebook& other)
      : centroids_(other.centroids_),
        symmetric_(other.symmetric_.load(std::memory_order_acquire)) {}
  PqCodebook(PqCodebook&& other) noexcept
      : centroids_(std::move(other.centroids_)),
        symmetric_(other.symmetric_.load(std::memory_order_acquire)) {}
  PqCodebook& operator=(const PqCodebook& other) {
    if (this != &other) {
      centroids_ = other.centroids_;
      symmetric_.store(other.symmetric_.load(std::memory_order_acquire),
                       std::memory_order_release);
    }
    return *this;
  }
  PqCodebook& operator=(PqCodebook&& other) noexcept {
    if (this != &other) {
      centroids_ = std::move(other.centroids_);
      symmetric_.store(other.symmetric_.load(std::memory_order_acquire),
                       std::memory_order_release);
    }
    return *this;
  }
};

// --- ADC scan kernel dispatch (same pattern as set_distance_kernel) -----

/// Kernel tiers reuse the DistanceKernel ISA enum: the ADC scan compiles
/// the same AVX2/SSE4.1/NEON/scalar set and probes the same CPU flags.
std::span<const DistanceKernel> compiled_adc_kernels() noexcept;
DistanceKernel active_adc_kernel() noexcept;
/// Pin the ADC scan kernel (benches/tests). Returns false — and changes
/// nothing — when the kernel is not compiled in or the CPU lacks it.
bool set_adc_kernel(DistanceKernel kernel) noexcept;

/// Asymmetric distance of one 16-byte code via the active kernel.
std::uint32_t adc_distance(const AdcTable& table,
                           const std::uint8_t* code) noexcept;

/// Scan `n` codes: out[i] = ADC distance of code `ids[i]` (or code `i`
/// when `ids` is null). `codes` is the kPqCodeBytes-stride base pointer.
/// This is the dispatch granularity — one indirect call per candidate
/// sweep, not per candidate.
void adc_scan(const AdcTable& table, const std::uint8_t* codes,
              const std::uint32_t* ids, std::size_t n,
              std::uint32_t* out) noexcept;

/// Scan with one specific kernel regardless of the active dispatch (test
/// harness). Falls back to scalar when `kernel` is unavailable.
void adc_scan_with(DistanceKernel kernel, const AdcTable& table,
                   const std::uint8_t* codes, const std::uint32_t* ids,
                   std::size_t n, std::uint32_t* out) noexcept;

}  // namespace vp
