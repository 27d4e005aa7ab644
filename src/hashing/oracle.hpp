// The uniqueness "oracle": locality-sensitive Bloom filters (paper Fig. 8).
//
// Indexing a descriptor:
//   1. E2LSH maps the 128-d descriptor into L quantized M-dimensional
//      buckets (Gaussian projections, width W).
//   2. Each bucket is Murmur3-hashed into K indices of a shared counting
//      Bloom filter; each index's saturating counter is incremented.
//   3. The K bit positions are concatenated and hashed into a plain
//      verification Bloom filter ("hash(concat(bitPositions))"), which
//      suppresses false positives at query time.
//
// Querying a descriptor returns an estimated global occurrence count:
// per table, the minimum of the K counters (classic counting-Bloom
// estimate), gated by the verification filter; optionally multiprobing
// the 2M adjacent quantization buckets to rescue off-by-one LSH false
// negatives; finally aggregated across the L tables.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "features/keypoint.hpp"
#include "hashing/bloom.hpp"
#include "hashing/lsh.hpp"

namespace vp {

class ThreadPool;

/// How per-table count estimates are combined into one uniqueness score.
enum class OracleAggregate : std::uint8_t {
  kMin = 0,
  kMedian = 1,
  kMean = 2,
  kMax = 3,
};

struct OracleConfig {
  LshConfig lsh{};                 ///< L=10, M=7, W=500 (paper defaults)
  std::size_t hashes = 8;          ///< K indices per bucket (paper: 8)
  unsigned counter_bits = 10;      ///< saturation at 1023 (paper: "1024")
  std::size_t capacity = 2'500'000;///< descriptors the filter is sized for
  double fp_rate = 0.01;           ///< target Bloom false-positive rate
  std::size_t counters_override = 0; ///< nonzero: explicit counter count
  bool multiprobe = true;          ///< probe adjacent quantization buckets
  bool verification = true;        ///< verification Bloom filter enabled
  OracleAggregate aggregate = OracleAggregate::kMedian;

  /// Counter cells in the primary filter (derived unless overridden).
  std::size_t effective_counters() const;
  /// Bytes of the two bit-packed filters (primary + verification) this
  /// configuration allocates; saturates instead of overflowing.
  std::uint64_t filter_bytes() const;
};

/// Cap on an oracle's bit-packed filters (OracleConfig::filter_bytes). The
/// constructor refuses a larger configuration and deserialize() refuses a
/// header claiming one, so every oracle serialize() writes decodes. The
/// default configuration needs ~330 MB (132 B per descriptor of capacity);
/// the cap admits up to ~4 M descriptors at the default L, K and fp rate.
inline constexpr std::uint64_t kMaxOracleFilterBytes = 512ULL << 20;

class UniquenessOracle {
 public:
  explicit UniquenessOracle(OracleConfig config);

  /// Index one training descriptor (server-side ingest path; constant time).
  void insert(const Descriptor& descriptor);

  /// Estimated global occurrence count of (descriptors similar to) `d`.
  /// 0 means "definitely not seen" (up to LSH false negatives).
  std::uint32_t count(const Descriptor& descriptor) const;

  /// count() for a whole frame's descriptors at once — the client's
  /// keypoint-scoring hot path. Reuses per-worker scratch buffers (bucket,
  /// index and encode storage are hoisted out of the per-descriptor loop)
  /// and, when `pool` is non-null, splits the batch across it. Results are
  /// index-addressed, so output is identical for any pool size.
  std::vector<std::uint32_t> count_batch(std::span<const Descriptor> batch,
                                         ThreadPool* pool = nullptr) const;

  /// Rank helper: lower = more unique. Currently the raw count; kept as a
  /// distinct name so callers express intent.
  std::uint32_t uniqueness_score(const Descriptor& d) const { return count(d); }

  const OracleConfig& config() const noexcept { return config_; }
  const E2Lsh& lsh() const noexcept { return lsh_; }
  std::uint64_t insertions() const noexcept { return insertions_; }

  /// In-memory footprint: primary + verification filters + projections.
  std::size_t byte_size() const noexcept;

  /// Wire and disk format (uncompressed): the configuration header, then
  /// both filters sparse (docs/ORACLE.md "Serialized form"). The client
  /// downloads zlib-compressed bytes of exactly this blob (net/wire.hpp);
  /// the database stores the same blob (core/server_io.cpp).
  Bytes serialize() const;
  /// Throws DecodeError on any malformed blob, and on a header whose
  /// filters exceed kMaxOracleFilterBytes. The cap is the only bound on
  /// what decode allocates: a blob of any size, even the 66 bytes of an
  /// empty oracle, may claim up to 512 MiB of filters.
  static UniquenessOracle deserialize(std::span<const std::uint8_t> data);

  /// The filters themselves (format tests compare them directly).
  const CountingBloomFilter& primary() const noexcept { return primary_; }
  const BloomFilter& verification() const noexcept { return verification_; }

  /// Fill ratio of the primary filter (hotspot diagnostics, §3).
  double primary_fill() const noexcept { return primary_.fill_ratio(); }
  double verification_fill() const noexcept {
    return verification_.fill_ratio();
  }

 private:
  /// Reusable per-worker buffers for the scoring hot path: the quantized
  /// bucket, its byte encoding, the K filter indices, and the per-table
  /// count accumulator.
  struct Scratch {
    LshBucket bucket;
    Bytes encoded;
    std::vector<std::size_t> indices;
    std::vector<std::uint32_t> per_table;
  };

  std::uint32_t count_with(const Descriptor& descriptor, Scratch& s) const;

  /// Count estimate for one table's bucket: min over the K counters, gated
  /// by the verification filter. Returns nullopt when not present.
  std::optional<std::uint32_t> bucket_count(const LshBucket& bucket,
                                            std::size_t table,
                                            Scratch& s) const;

  /// Combine per-table counts into one score; may reorder `counts`
  /// in place (median selection).
  std::uint32_t aggregate_counts(std::span<std::uint32_t> counts) const;

  OracleConfig config_;
  E2Lsh lsh_;
  CountingBloomFilter primary_;
  BloomFilter verification_;
  std::uint64_t insertions_ = 0;
};

}  // namespace vp
