// LSH-indexed nearest-neighbor search over descriptors — the server's
// "large-scale image-based content retrieval table" (§3). Each of the L
// tables maps a hashed quantized bucket to the list of descriptor ids that
// landed there; a query unions candidates from all tables (optionally
// multiprobing adjacent buckets) and ranks them by exact L2 distance.
//
// This is the baseline "LSH" scheme of Fig. 13/15, and doubles as the
// keypoint-to-3D lookup table when the caller keeps a parallel array of
// 3-D positions per descriptor id.
//
// Hot-path layout: descriptors live in one contiguous 128-byte-stride byte
// array, so exact ranking walks a flat buffer with the SIMD distance
// kernel (features/distance.hpp) instead of chasing per-descriptor
// objects. Ranking itself is a bounded max-heap top-k (`select_top_k`),
// and whole-query batches score on a borrowed ThreadPool with per-worker
// scratch (`query_batch`) — same determinism contract as the client path:
// identical results for any pool size.
//
// Optional PQ mode (LshIndexConfig::pq, off by default): a parallel
// 16-byte-stride code buffer mirrors the flat descriptor array, and
// queries whose LSH candidate set exceeds the rerank depth run two
// stages — a cheap asymmetric-distance (ADC) scan over every candidate's
// code keeps the top R in deterministic (adc, id) order, then only those
// R pay the exact 128-dim u8-L2 rerank. Exact-only mode is untouched and
// stays the bit-identity baseline.
//
// Storage ownership: the flat descriptor buffer (and the PQ code buffer)
// can be *owned* (grown by insert) or *borrowed* — a `std::span` over
// bytes someone else keeps alive, typically an mmap'd database segment
// (util/mmap_file.hpp). `bulk_load` installs a borrowed buffer plus a
// type-erased keepalive and rebuilds only the bucket maps, so a cold
// shard faults in without copying its descriptor payload. A borrowed
// index is read-only in spirit; the first insert() transparently
// materializes private copies (copy-on-write), so every mutating caller
// keeps working.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "features/keypoint.hpp"
#include "features/pq.hpp"
#include "hashing/lsh.hpp"

namespace vp {

class ThreadPool;

struct LshIndexConfig {
  LshConfig lsh{};
  bool multiprobe = false;       ///< probe 2M adjacent buckets on query
  std::size_t max_candidates = 4096;  ///< cap candidate set per query
  PqIndexConfig pq{};            ///< coarse-scan-then-exact-rerank storage
};

struct Match {
  std::uint32_t id = 0;          ///< descriptor id (insertion order)
  std::uint32_t distance2 = 0;   ///< exact squared L2 distance
};

/// Strict-weak ranking order for matches: ascending distance, ties broken
/// by ascending id — a total order, so every top-k selection below is
/// deterministic regardless of kernel, pool size, or traversal order.
inline bool match_less(const Match& a, const Match& b) noexcept {
  return a.distance2 != b.distance2 ? a.distance2 < b.distance2
                                    : a.id < b.id;
}

/// Keep the k smallest matches (by match_less) in `matches`, sorted
/// ascending, via a bounded max-heap over the first k slots: O(n log k)
/// and in place, replacing the sort-everything top-k.
void select_top_k(std::vector<Match>& matches, std::size_t k);

class LshIndex {
 public:
  explicit LshIndex(LshIndexConfig config = {});

  /// Insert a descriptor; returns its id (dense, insertion order).
  std::uint32_t insert(const Descriptor& descriptor);

  /// k nearest neighbors among LSH candidates, ascending distance.
  std::vector<Match> query(const Descriptor& descriptor, std::size_t k) const;

  /// query() for a whole fingerprint's descriptors at once — the server's
  /// retrieval hot path. Reuses per-worker scratch (candidate ids and
  /// scored matches are hoisted out of the per-descriptor loop) and, when
  /// `pool` is non-null, splits the batch across it in contiguous chunks.
  /// Results are index-addressed: out[i] == query(queries[i], k) for any
  /// pool size.
  std::vector<std::vector<Match>> query_batch(
      std::span<const Descriptor> queries, std::size_t k,
      ThreadPool* pool = nullptr) const;

  /// query_batch for compact (PQ-coded) queries: `queries` holds the
  /// reconstructed descriptors (the LSH bucketing and the exact rerank use
  /// them) and `codes` the original 16-byte codes, kPqCodeBytes stride,
  /// index-parallel. The coarse ADC stage gathers each query's table rows
  /// from the codebook's precomputed symmetric matrix instead of building
  /// the table from the descriptor — bit-identical results (a reconstructed
  /// subvector IS a centroid), one table-build cheaper per query
  /// descriptor. Requires pq_ready(); falls back to query_batch otherwise.
  std::vector<std::vector<Match>> query_batch_codes(
      std::span<const Descriptor> queries,
      std::span<const std::uint8_t> codes, std::size_t k,
      ThreadPool* pool = nullptr) const;

  /// Pre-size the descriptor array and per-table bucket maps for `n`
  /// inserts (bulk shard rebuilds on database load).
  void reserve(std::size_t n);

  /// Install `count` descriptors at once from a contiguous 128-byte-stride
  /// buffer and rebuild the bucket maps. With a `keepalive` the buffer is
  /// *borrowed* — the index stores only the span and the keepalive keeps
  /// the bytes (an mmap'd segment) valid for the index's lifetime; without
  /// one the bytes are copied into owned storage. Requires an empty index.
  void bulk_load(std::span<const std::uint8_t> descriptors, std::size_t count,
                 std::shared_ptr<const void> keepalive = nullptr);

  /// True when the descriptor (or code) payload is a borrowed span rather
  /// than owned vectors. insert() on a borrowed index copies first.
  bool borrows_storage() const noexcept {
    return !borrowed_flat_.empty() || !borrowed_codes_.empty();
  }

  std::size_t size() const noexcept { return size_; }
  /// Copy of a stored descriptor (the storage itself is a flat byte array).
  Descriptor descriptor(std::uint32_t id) const;
  /// Borrowed pointer to a stored descriptor's 128 contiguous bytes.
  const std::uint8_t* descriptor_ptr(std::uint32_t id) const noexcept {
    return flat_data() + static_cast<std::size_t>(id) * kDescriptorDims;
  }

  // --- PQ storage (coarse-scan-then-exact-rerank) -----------------------

  /// True when PQ mode is configured AND usable: the codebook is trained
  /// and every stored descriptor has a code. Published shards in PQ mode
  /// are always ready; a builder that inserted since the last train_pq()
  /// falls back to exact scans until the next publish.
  bool pq_ready() const noexcept {
    return config_.pq.enabled && codebook_.trained() &&
           codes_span().size() == size_ * kPqCodeBytes;
  }

  /// Train the codebook from the stored descriptors (first call with a
  /// non-empty index; later calls are cheap) and encode any descriptors
  /// inserted since. No-op unless config().pq.enabled. Deterministic:
  /// same descriptors + train config => same codebook and codes.
  void train_pq();

  /// Install a trained codebook + codes (persistence load path). Throws
  /// InvalidArgument unless codes covers exactly size() descriptors.
  void restore_pq(PqCodebook codebook, std::vector<std::uint8_t> codes);

  /// Borrowed-buffer variant: the code bytes stay where they are (an
  /// mmap'd database segment) and `keepalive` pins them; a null keepalive
  /// copies. Same size contract as the owning overload.
  void restore_pq(PqCodebook codebook, std::span<const std::uint8_t> codes,
                  std::shared_ptr<const void> keepalive);

  const PqCodebook& pq_codebook() const noexcept { return codebook_; }
  /// All codes, kPqCodeBytes stride, id order (empty before training).
  std::span<const std::uint8_t> pq_codes() const noexcept {
    return codes_span();
  }
  const std::uint8_t* code_ptr(std::uint32_t id) const noexcept {
    return codes_span().data() + static_cast<std::size_t>(id) * kPqCodeBytes;
  }

  /// Raw descriptor payload bytes (size() * 128).
  std::size_t descriptor_bytes() const noexcept {
    return size_ * kDescriptorDims;
  }
  /// PQ payload bytes: codes + codebook (0 when untrained).
  std::size_t pq_bytes() const noexcept {
    return codes_span().size() + (codebook_.trained() ? kPqCodebookBytes : 0);
  }

  const LshIndexConfig& config() const noexcept { return config_; }

  /// Approximate resident memory of THIS implementation: descriptors
  /// stored once + per-table id lists + hash-map node overhead (+ PQ
  /// codes and codebook when trained).
  std::size_t byte_size() const noexcept;

  /// Memory model of the reference E2LSH implementation the paper
  /// benchmarks against, which replicates the indexed vectors into every
  /// table ("an extremely large memory footprint, much larger than the
  /// input data, due to multiple replications supporting multiple
  /// projections"): per table, a full descriptor copy plus ~2 pointers of
  /// node overhead per entry.
  std::size_t reference_e2lsh_byte_size() const noexcept;

  const E2Lsh& lsh() const noexcept { return lsh_; }

 private:
  using BucketMap = std::unordered_map<std::uint64_t, std::vector<std::uint32_t>>;

  /// Per-worker reusable buffers for the query hot path. The ADC members
  /// are only touched in PQ mode (the 8 KB table lives here so each
  /// worker builds it once per query descriptor, never per candidate).
  struct Scratch {
    std::vector<std::uint32_t> candidates;
    std::vector<Match> matches;
    AdcTable adc_table;
    std::vector<std::uint32_t> adc_dists;
    std::vector<Match> adc_matches;
  };

  std::uint64_t bucket_key(const LshBucket& bucket, std::size_t table) const;
  void gather(const LshBucket& bucket, std::size_t table,
              std::vector<std::uint32_t>& out) const;
  /// `query_code`, when non-null, is the query's own 16-byte PQ code: the
  /// coarse ADC table is then gathered from the symmetric matrix rather
  /// than built from `descriptor` (same table, cheaper).
  void query_into(const Descriptor& descriptor, std::size_t k, Scratch& s,
                  std::vector<Match>& out,
                  const std::uint8_t* query_code = nullptr) const;

  /// Base of the descriptor payload, owned or borrowed.
  const std::uint8_t* flat_data() const noexcept {
    return borrowed_flat_.empty() ? flat_.data() : borrowed_flat_.data();
  }
  /// The code payload view, owned or borrowed.
  std::span<const std::uint8_t> codes_span() const noexcept {
    return borrowed_codes_.empty()
               ? std::span<const std::uint8_t>(codes_)
               : borrowed_codes_;
  }
  /// Copy any borrowed payloads into owned vectors (first mutation).
  void materialize();
  /// Hash descriptor `id` into every table's bucket map.
  void index_descriptor(std::uint32_t id);

  LshIndexConfig config_;
  E2Lsh lsh_;
  std::vector<std::uint8_t> flat_;  ///< owned descriptors (empty if borrowed)
  std::span<const std::uint8_t> borrowed_flat_;  ///< mmap'd descriptors
  std::size_t size_ = 0;
  std::vector<BucketMap> tables_;
  PqCodebook codebook_;             ///< untrained unless PQ mode trained
  std::vector<std::uint8_t> codes_; ///< owned codes (empty if borrowed)
  std::span<const std::uint8_t> borrowed_codes_;  ///< mmap'd codes
  std::shared_ptr<const void> keepalive_;  ///< pins both borrowed spans
};

}  // namespace vp
