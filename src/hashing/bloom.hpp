// Bloom filters: plain (bit) and counting (saturating n-bit counters).
//
// The counting filter matches the paper's construction: "Each bit index
// counter is represented in 10 bits, for a count saturation ... of 1024.
// Beyond 1024, we treat a keypoint as not unique enough for consideration."
// Counters are bit-packed in memory (Fig. 15's RAM footprint). On the wire
// and on disk a filter is sparse: only its nonzero counters or set bits,
// as varint gaps, so a mostly empty filter costs bytes per entry, not per
// cell.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/bytes.hpp"

namespace vp {

/// Classic bit-vector Bloom filter (the "verification" filter role).
class BloomFilter {
 public:
  /// `bits` is rounded up to a multiple of 64.
  explicit BloomFilter(std::size_t bits);

  /// Size a filter for `capacity` elements at `fp_rate` false positives;
  /// returns the optimal bit count (m = -n ln p / ln^2 2).
  static std::size_t optimal_bits(std::size_t capacity, double fp_rate);
  static std::size_t optimal_hashes(std::size_t bits, std::size_t capacity);

  void set(std::size_t index) noexcept;
  bool test(std::size_t index) const noexcept;

  std::size_t bit_count() const noexcept { return bits_; }
  std::size_t set_bit_count() const noexcept;
  std::size_t byte_size() const noexcept { return words_.size() * 8; }

  /// Fraction of bits set — predicts the false-positive rate (q^k).
  double fill_ratio() const noexcept;

  /// Sparse encoding: varint set-bit count, then one varint gap per set
  /// bit (the clear bits skipped since the previous set bit).
  void write_sparse(ByteWriter& w) const;
  /// Sets the bits written by write_sparse for a filter of this size
  /// (call on a fresh, all-clear filter). Throws DecodeError on a count
  /// the payload cannot hold, a gap past the last bit, and truncation;
  /// the filter is then partly filled and must be discarded.
  void read_sparse(ByteReader& r);

  bool operator==(const BloomFilter&) const = default;

 private:
  std::size_t bits_;
  std::vector<std::uint64_t> words_;
};

/// Counting Bloom filter with bit-packed saturating counters.
class CountingBloomFilter {
 public:
  /// `counters` cells of `counter_bits` bits each (range [1, 16]).
  CountingBloomFilter(std::size_t counters, unsigned counter_bits);

  /// Saturating increment; returns the post-increment value.
  std::uint32_t increment(std::size_t index) noexcept;

  /// Saturating decrement (supports deletion, a counting-filter property).
  std::uint32_t decrement(std::size_t index) noexcept;

  std::uint32_t count(std::size_t index) const noexcept;

  std::size_t counter_count() const noexcept { return counters_; }
  unsigned counter_bits() const noexcept { return counter_bits_; }
  std::uint32_t saturation() const noexcept { return max_value_; }
  std::size_t byte_size() const noexcept { return words_.size() * 8; }

  /// Fraction of nonzero counters.
  double fill_ratio() const noexcept;

  /// Sparse encoding: varint nonzero-counter count, then one varint gap
  /// per nonzero counter (the zero counters skipped since the previous
  /// one), then each of their values minus 1 as a varint, in index order.
  /// Gaps and values apart deflate ~12% smaller than interleaved pairs
  /// (157,204 vs 178,603 B at zlib-9 on perfbench's seed-301 oracle).
  void write_sparse(ByteWriter& w) const;
  /// Fills the counters written by write_sparse for a filter of this size
  /// and width (call on a fresh, all-zero filter). Throws DecodeError on a
  /// count the payload cannot hold, a gap past the last counter, a value
  /// above saturation, and truncation; the filter is then partly filled
  /// and must be discarded.
  void read_sparse(ByteReader& r);

  bool operator==(const CountingBloomFilter&) const = default;

 private:
  std::size_t counters_;
  unsigned counter_bits_;
  std::uint32_t max_value_;
  std::vector<std::uint64_t> words_;

  std::uint32_t get(std::size_t index) const noexcept;
  void put(std::size_t index, std::uint32_t value) noexcept;
};

}  // namespace vp
