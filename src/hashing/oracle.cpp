#include "hashing/oracle.hpp"

#include <algorithm>
#include <cmath>

#include "hashing/murmur3.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace vp {
namespace {

/// Hash seed namespaces so the primary indices, the verification hash, and
/// each LSH table draw from independent hash streams.
constexpr std::uint32_t kPrimarySeedBase = 0x9d2c5680u;
constexpr std::uint32_t kVerifySeed = 0x5f3759dfu;

constexpr std::uint32_t kOracleMagic = 0x56504f52u;  // "VPOR"
/// The only blob version read or written; docs/ORACLE.md "Serialized
/// form" gives its layout.
constexpr std::uint16_t kOracleVersion = 2;

/// Little-endian bucket encoding into a reusable buffer; byte-compatible
/// with E2Lsh::encode_bucket.
void encode_bucket_into(const LshBucket& bucket, Bytes& out) {
  out.clear();
  for (const std::int32_t v : bucket) {
    const auto u = static_cast<std::uint32_t>(v);
    out.push_back(static_cast<std::uint8_t>(u));
    out.push_back(static_cast<std::uint8_t>(u >> 8));
    out.push_back(static_cast<std::uint8_t>(u >> 16));
    out.push_back(static_cast<std::uint8_t>(u >> 24));
  }
}

/// K primary-filter indices for a bucket of table `t`. `enc` is scratch
/// for the bucket encoding (hoisted so batch scoring never reallocates).
void primary_indices(const LshBucket& bucket, std::size_t table,
                     std::size_t k, std::size_t counters, Bytes& enc,
                     std::vector<std::size_t>& out) {
  encode_bucket_into(bucket, enc);
  out.clear();
  bloom_indices(enc, kPrimarySeedBase + static_cast<std::uint32_t>(table), k,
                counters, std::back_inserter(out));
}

/// Verification-filter index: hash of the concatenated primary positions.
std::size_t verification_index(std::span<const std::size_t> positions,
                               std::size_t bits) {
  ByteWriter w(positions.size() * 8);
  for (std::size_t p : positions) w.u64(p);
  const auto [h1, h2] = murmur3_x64_128(w.bytes(), kVerifySeed);
  (void)h2;
  return static_cast<std::size_t>(h1 % bits);
}

}  // namespace

std::size_t OracleConfig::effective_counters() const {
  if (counters_override != 0) return counters_override;
  // Each descriptor is inserted once per LSH table, so the primary filter
  // effectively stores capacity * L elements.
  return BloomFilter::optimal_bits(capacity * std::max<std::size_t>(1, lsh.tables),
                                   fp_rate);
}

std::uint64_t OracleConfig::filter_bytes() const {
  const std::uint64_t counters = effective_counters();
  // Past 2^59 counters the product below could overflow (counter_bits is
  // at most 16); no such filter could be allocated anyway.
  if (counters > (~std::uint64_t{0} >> 5)) return ~std::uint64_t{0};
  return (counters * counter_bits + 63) / 64 * 8 + (counters + 63) / 64 * 8;
}

namespace {

/// `config`, once its filters are known to fit under kMaxOracleFilterBytes;
/// checked before any member allocates.
const OracleConfig& within_cap(const OracleConfig& config) {
  VP_REQUIRE(config.filter_bytes() <= kMaxOracleFilterBytes,
             "oracle filters exceed kMaxOracleFilterBytes");
  return config;
}

}  // namespace

UniquenessOracle::UniquenessOracle(OracleConfig config)
    : config_(within_cap(config)),
      lsh_(config.lsh.tables, config.lsh.projections, config.lsh.width,
           config.lsh.seed),
      primary_(config.effective_counters(), config.counter_bits),
      verification_(config.effective_counters()) {
  VP_REQUIRE(config.hashes >= 1 && config.hashes <= 32,
             "oracle hashes in [1,32]");
}

void UniquenessOracle::insert(const Descriptor& descriptor) {
  LshBucket bucket;
  Bytes enc;
  std::vector<std::size_t> idx;
  for (std::size_t t = 0; t < lsh_.tables(); ++t) {
    lsh_.bucket_into(descriptor, t, bucket);
    primary_indices(bucket, t, config_.hashes, primary_.counter_count(), enc,
                    idx);
    for (std::size_t i : idx) primary_.increment(i);
    if (config_.verification) {
      verification_.set(verification_index(idx, verification_.bit_count()));
    }
  }
  ++insertions_;
}

std::optional<std::uint32_t> UniquenessOracle::bucket_count(
    const LshBucket& bucket, std::size_t table, Scratch& s) const {
  primary_indices(bucket, table, config_.hashes, primary_.counter_count(),
                  s.encoded, s.indices);
  std::uint32_t min_count = primary_.saturation() + 1;
  for (std::size_t i : s.indices) {
    min_count = std::min(min_count, primary_.count(i));
  }
  if (min_count == 0) return std::nullopt;
  if (config_.verification &&
      !verification_.test(
          verification_index(s.indices, verification_.bit_count()))) {
    return std::nullopt;  // primary hit was a false positive
  }
  return min_count;
}

std::uint32_t UniquenessOracle::aggregate_counts(
    std::span<std::uint32_t> counts) const {
  VP_ASSERT(!counts.empty());
  switch (config_.aggregate) {
    case OracleAggregate::kMin:
      return *std::min_element(counts.begin(), counts.end());
    case OracleAggregate::kMax:
      return *std::max_element(counts.begin(), counts.end());
    case OracleAggregate::kMean: {
      std::uint64_t sum = 0;
      for (auto c : counts) sum += c;
      return static_cast<std::uint32_t>(sum / counts.size());
    }
    case OracleAggregate::kMedian:
    default: {
      // In-place selection: counts is the caller's scratch accumulator.
      std::nth_element(counts.begin(),
                       counts.begin() + static_cast<std::ptrdiff_t>(counts.size() / 2),
                       counts.end());
      return counts[counts.size() / 2];
    }
  }
}

std::uint32_t UniquenessOracle::count_with(const Descriptor& descriptor,
                                           Scratch& s) const {
  s.per_table.clear();
  for (std::size_t t = 0; t < lsh_.tables(); ++t) {
    lsh_.bucket_into(descriptor, t, s.bucket);
    std::uint32_t best = 0;
    if (const auto exact = bucket_count(s.bucket, t, s)) {
      best = *exact;
    } else if (config_.multiprobe) {
      // Off-by-one rescue: probe the 2M adjacent quantization buckets and
      // keep the first verified hit (paper §3, "multi-probe" checks into
      // adjacent quantization buckets).
      for (std::size_t m = 0; m < s.bucket.size() && best == 0; ++m) {
        for (const std::int32_t delta : {-1, +1}) {
          s.bucket[m] += delta;
          const auto probed = bucket_count(s.bucket, t, s);
          s.bucket[m] -= delta;
          if (probed) {
            best = *probed;
            break;
          }
        }
      }
    }
    s.per_table.push_back(best);
  }
  return aggregate_counts(s.per_table);
}

std::uint32_t UniquenessOracle::count(const Descriptor& descriptor) const {
  Scratch s;
  return count_with(descriptor, s);
}

std::vector<std::uint32_t> UniquenessOracle::count_batch(
    std::span<const Descriptor> batch, ThreadPool* pool) const {
  VP_OBS_SPAN("oracle.score");
  std::vector<std::uint32_t> out(batch.size());
  if (batch.empty()) return out;
  if (pool == nullptr) {
    Scratch s;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      out[i] = count_with(batch[i], s);
    }
    return out;
  }
  // One scratch per contiguous chunk, one chunk per pool slot; lookups are
  // read-only against the filters so the only shared write is `out`, which
  // every chunk addresses disjointly.
  const std::size_t chunks =
      std::min<std::size_t>(batch.size(), std::max<std::size_t>(1, pool->thread_count()));
  const std::size_t per = (batch.size() + chunks - 1) / chunks;
  pool->parallel_for(chunks, [&](std::size_t c) {
    Scratch s;
    const std::size_t lo = c * per;
    const std::size_t hi = std::min(batch.size(), lo + per);
    for (std::size_t i = lo; i < hi; ++i) out[i] = count_with(batch[i], s);
  });
  return out;
}

std::size_t UniquenessOracle::byte_size() const noexcept {
  return primary_.byte_size() + verification_.byte_size() +
         lsh_.serialized_size();
}

Bytes UniquenessOracle::serialize() const {
  ByteWriter w;
  w.u32(kOracleMagic);
  w.u16(kOracleVersion);
  w.u16(static_cast<std::uint16_t>(config_.lsh.tables));
  w.u16(static_cast<std::uint16_t>(config_.lsh.projections));
  w.u16(static_cast<std::uint16_t>(config_.hashes));
  w.f64(config_.lsh.width);
  w.u64(config_.lsh.seed);
  w.u8(static_cast<std::uint8_t>(config_.counter_bits));
  w.u8(static_cast<std::uint8_t>(config_.multiprobe ? 1 : 0));
  w.u8(static_cast<std::uint8_t>(config_.verification ? 1 : 0));
  w.u8(static_cast<std::uint8_t>(config_.aggregate));
  w.u64(config_.capacity);
  w.f64(config_.fp_rate);
  w.u64(config_.counters_override);
  w.u64(insertions_);
  primary_.write_sparse(w);
  verification_.write_sparse(w);
  return w.take();
}

UniquenessOracle UniquenessOracle::deserialize(
    std::span<const std::uint8_t> data) {
  ByteReader r(data);
  if (r.u32() != kOracleMagic) throw DecodeError{"oracle: bad magic"};
  if (r.u16() != kOracleVersion) {
    throw DecodeError{"oracle: unsupported version"};
  }
  OracleConfig cfg;
  cfg.lsh.tables = r.u16();
  cfg.lsh.projections = r.u16();
  cfg.hashes = r.u16();
  cfg.lsh.width = r.f64();
  cfg.lsh.seed = r.u64();
  cfg.counter_bits = r.u8();
  cfg.multiprobe = r.u8() != 0;
  cfg.verification = r.u8() != 0;
  cfg.aggregate = static_cast<OracleAggregate>(r.u8());
  cfg.capacity = r.u64();
  cfg.fp_rate = r.f64();
  cfg.counters_override = r.u64();
  const std::uint64_t insertions = r.u64();

  // Reject implausible configurations, and filters over
  // kMaxOracleFilterBytes, before any allocation: a flipped capacity or
  // override byte must not trigger a giant allocation. The blob's length
  // cannot bound the filters: a sparse body is as short as the oracle is
  // empty (an empty default-sized oracle is 66 bytes for ~330 MB of filters).
  if (cfg.lsh.tables < 1 || cfg.lsh.tables > 64 || cfg.lsh.projections < 1 ||
      cfg.lsh.projections > 32 || cfg.hashes < 1 || cfg.hashes > 32 ||
      !(cfg.lsh.width > 0) ||
      cfg.counter_bits < 1 || cfg.counter_bits > 16 || cfg.capacity == 0 ||
      cfg.capacity > (1ULL << 40) ||
      !(cfg.fp_rate > 0 && cfg.fp_rate < 1) ||
      cfg.counters_override > (1ULL << 40)) {
    throw DecodeError{"oracle: implausible configuration header"};
  }
  if (cfg.filter_bytes() > kMaxOracleFilterBytes) {
    throw DecodeError{"oracle: filters exceed kMaxOracleFilterBytes"};
  }

  // Built once; the sparse sections fill its zeroed filters in place.
  UniquenessOracle oracle(cfg);
  oracle.primary_.read_sparse(r);
  oracle.verification_.read_sparse(r);
  oracle.insertions_ = insertions;
  if (!r.done()) throw DecodeError{"oracle: trailing bytes"};
  return oracle;
}

}  // namespace vp
