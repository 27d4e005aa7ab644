#include "hashing/bloom.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/error.hpp"

namespace vp {

BloomFilter::BloomFilter(std::size_t bits)
    : bits_((bits + 63) / 64 * 64), words_(bits_ / 64, 0) {
  VP_REQUIRE(bits > 0, "BloomFilter needs at least one bit");
}

std::size_t BloomFilter::optimal_bits(std::size_t capacity, double fp_rate) {
  VP_REQUIRE(capacity > 0, "optimal_bits: zero capacity");
  VP_REQUIRE(fp_rate > 0 && fp_rate < 1, "fp_rate in (0,1)");
  const double ln2 = std::log(2.0);
  const double m =
      -static_cast<double>(capacity) * std::log(fp_rate) / (ln2 * ln2);
  return static_cast<std::size_t>(std::ceil(m));
}

std::size_t BloomFilter::optimal_hashes(std::size_t bits,
                                        std::size_t capacity) {
  VP_REQUIRE(capacity > 0, "optimal_hashes: zero capacity");
  const double k = std::log(2.0) * static_cast<double>(bits) /
                   static_cast<double>(capacity);
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(k)));
}

void BloomFilter::set(std::size_t index) noexcept {
  index %= bits_;
  words_[index / 64] |= (1ULL << (index % 64));
}

bool BloomFilter::test(std::size_t index) const noexcept {
  index %= bits_;
  return (words_[index / 64] >> (index % 64)) & 1ULL;
}

std::size_t BloomFilter::set_bit_count() const noexcept {
  std::size_t n = 0;
  for (auto w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

double BloomFilter::fill_ratio() const noexcept {
  return static_cast<double>(set_bit_count()) / static_cast<double>(bits_);
}

void BloomFilter::write_sparse(ByteWriter& w) const {
  w.varint(set_bit_count());
  std::size_t next = 0;  // first bit not yet covered by a gap
  for (std::size_t k = 0; k < words_.size(); ++k) {
    for (std::uint64_t word = words_[k]; word != 0; word &= word - 1) {
      const std::size_t bit =
          k * 64 + static_cast<std::size_t>(std::countr_zero(word));
      w.varint(bit - next);
      next = bit + 1;
    }
  }
}

void BloomFilter::read_sparse(ByteReader& r) {
  const std::uint64_t n = r.varint();
  // Every set bit costs at least one gap byte.
  if (n > bits_ || n > r.remaining()) {
    throw DecodeError{"bloom filter: set-bit count exceeds payload"};
  }
  std::uint64_t next = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t gap = r.varint();
    if (gap >= bits_ - next) throw DecodeError{"bloom filter: gap past end"};
    const std::uint64_t bit = next + gap;
    words_[bit / 64] |= 1ULL << (bit % 64);
    next = bit + 1;
  }
}

CountingBloomFilter::CountingBloomFilter(std::size_t counters,
                                         unsigned counter_bits)
    : counters_(counters),
      counter_bits_(counter_bits),
      max_value_((1u << counter_bits) - 1),
      words_((counters * counter_bits + 63) / 64, 0) {
  VP_REQUIRE(counters > 0, "CountingBloomFilter needs counters");
  VP_REQUIRE(counter_bits >= 1 && counter_bits <= 16,
             "counter_bits in [1,16]");
}

std::uint32_t CountingBloomFilter::get(std::size_t index) const noexcept {
  const std::size_t bit = index * counter_bits_;
  const std::size_t word = bit / 64;
  const unsigned shift = bit % 64;
  std::uint64_t v = words_[word] >> shift;
  if (shift + counter_bits_ > 64) {
    v |= words_[word + 1] << (64 - shift);
  }
  return static_cast<std::uint32_t>(v & max_value_);
}

void CountingBloomFilter::put(std::size_t index, std::uint32_t value) noexcept {
  const std::size_t bit = index * counter_bits_;
  const std::size_t word = bit / 64;
  const unsigned shift = bit % 64;
  const std::uint64_t mask = static_cast<std::uint64_t>(max_value_) << shift;
  words_[word] = (words_[word] & ~mask) |
                 (static_cast<std::uint64_t>(value) << shift);
  if (shift + counter_bits_ > 64) {
    const unsigned spill = shift + counter_bits_ - 64;
    const std::uint64_t hi_mask = (1ULL << spill) - 1;
    words_[word + 1] = (words_[word + 1] & ~hi_mask) |
                       (static_cast<std::uint64_t>(value) >>
                        (counter_bits_ - spill));
  }
}

std::uint32_t CountingBloomFilter::increment(std::size_t index) noexcept {
  index %= counters_;
  std::uint32_t v = get(index);
  if (v < max_value_) put(index, ++v);
  return v;
}

std::uint32_t CountingBloomFilter::decrement(std::size_t index) noexcept {
  index %= counters_;
  std::uint32_t v = get(index);
  if (v > 0) put(index, --v);
  return v;
}

std::uint32_t CountingBloomFilter::count(std::size_t index) const noexcept {
  return get(index % counters_);
}

double CountingBloomFilter::fill_ratio() const noexcept {
  std::size_t nonzero = 0;
  for (std::size_t i = 0; i < counters_; ++i) {
    if (get(i) != 0) ++nonzero;
  }
  return static_cast<double>(nonzero) / static_cast<double>(counters_);
}

void CountingBloomFilter::write_sparse(ByteWriter& w) const {
  // Only counters with a bit in a nonzero word can be nonzero, so zero
  // words (most of a sparse filter) are skipped without unpacking.
  std::vector<std::size_t> nonzero;
  std::size_t unchecked = 0;  // counters below this index are done
  for (std::size_t k = 0; k < words_.size(); ++k) {
    if (words_[k] == 0) continue;
    const std::size_t last =
        std::min(counters_ - 1, ((k + 1) * 64 - 1) / counter_bits_);
    for (std::size_t i = std::max(unchecked, k * 64 / counter_bits_);
         i <= last; ++i) {
      if (get(i) != 0) nonzero.push_back(i);
    }
    unchecked = last + 1;
  }
  w.varint(nonzero.size());
  std::size_t next = 0;  // first counter not yet covered by a gap
  for (const std::size_t i : nonzero) {
    w.varint(i - next);
    next = i + 1;
  }
  for (const std::size_t i : nonzero) w.varint(get(i) - 1);
}

void CountingBloomFilter::read_sparse(ByteReader& r) {
  const std::uint64_t n = r.varint();
  // Every nonzero counter costs at least a gap byte and a value byte.
  if (n > counters_ || n > r.remaining() / 2) {
    throw DecodeError{"counting bloom: nonzero count exceeds payload"};
  }
  // The gaps come first and the values after them, so walk the gaps once
  // to validate them and find the values, then again in step with the
  // values to fill the counters in place.
  ByteReader gaps = r;
  std::uint64_t next = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t gap = r.varint();
    if (gap >= counters_ - next) {
      throw DecodeError{"counting bloom: gap past end"};
    }
    next += gap + 1;
  }
  next = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t index = next + gaps.varint();
    const std::uint64_t value_minus_1 = r.varint();
    if (value_minus_1 >= max_value_) {
      throw DecodeError{"counting bloom: counter above saturation"};
    }
    put(static_cast<std::size_t>(index),
        static_cast<std::uint32_t>(value_minus_1 + 1));
    next = index + 1;
  }
}

}  // namespace vp
