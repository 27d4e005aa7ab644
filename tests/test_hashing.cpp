#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <set>

#include "hashing/bloom.hpp"
#include "hashing/lsh.hpp"
#include "hashing/murmur3.hpp"
#include "hashing/oracle.hpp"
#include "net/wire.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

// Largest single heap request since the last reset, so a decode test can
// check that a rejected blob never allocated what its header claimed.
namespace {
std::atomic<std::size_t> g_largest_allocation{0};
}  // namespace

void* operator new(std::size_t n) {
  std::size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
  while (n > seen && !g_largest_allocation.compare_exchange_weak(
                         seen, n, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}
// GCC pairs the inlined replacement new with these frees and warns.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace vp {
namespace {

std::span<const std::uint8_t> bytes_of(const char* s) {
  return {reinterpret_cast<const std::uint8_t*>(s), std::strlen(s)};
}

Descriptor random_descriptor(Rng& rng) {
  Descriptor d;
  for (auto& v : d) v = static_cast<std::uint8_t>(rng.uniform_u64(80));
  return d;
}

Descriptor perturb(const Descriptor& d, Rng& rng, int magnitude) {
  Descriptor out = d;
  for (auto& v : out) {
    const int nv = static_cast<int>(v) +
                   static_cast<int>(rng.uniform_int(-magnitude, magnitude));
    v = static_cast<std::uint8_t>(std::clamp(nv, 0, 255));
  }
  return out;
}

// Reference vectors for MurmurHash3 x86_32 (Appleby's and Wikipedia's
// published test values).
TEST(Murmur3, KnownVectors32) {
  EXPECT_EQ(murmur3_x86_32({}, 0), 0u);
  EXPECT_EQ(murmur3_x86_32({}, 1), 0x514E28B7u);
  EXPECT_EQ(murmur3_x86_32({}, 0xFFFFFFFFu), 0x81F16F39u);
  EXPECT_EQ(murmur3_x86_32(bytes_of("test"), 0), 0xba6bd213u);
  EXPECT_EQ(murmur3_x86_32(bytes_of("test"), 0x9747b28cu), 0x704b81dcu);
  EXPECT_EQ(murmur3_x86_32(bytes_of("Hello, world!"), 0), 0xc0363e43u);
  EXPECT_EQ(murmur3_x86_32(
                bytes_of("The quick brown fox jumps over the lazy dog"),
                0x9747b28cu),
            0x2FA826CDu);
}

TEST(Murmur3, EmptyInput128) {
  const auto [h1, h2] = murmur3_x64_128({}, 0);
  EXPECT_EQ(h1, 0u);
  EXPECT_EQ(h2, 0u);
}

TEST(Murmur3, DeterministicAndSeedSensitive128) {
  const auto a = murmur3_x64_128(bytes_of("visualprint"), 1);
  const auto b = murmur3_x64_128(bytes_of("visualprint"), 1);
  const auto c = murmur3_x64_128(bytes_of("visualprint"), 2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Murmur3, AvalancheOnSingleBitFlip) {
  Bytes data(64, 0x55);
  const auto a = murmur3_x64_128(data, 0);
  data[10] ^= 1;
  const auto b = murmur3_x64_128(data, 0);
  const std::uint64_t diff = a.first ^ b.first;
  int bits = 0;
  for (int i = 0; i < 64; ++i) bits += (diff >> i) & 1;
  EXPECT_GT(bits, 16);  // roughly half the bits should flip
}

TEST(Murmur3, AllTailLengths) {
  // Exercise every switch-case tail length in both variants.
  Bytes data(32);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  std::set<std::uint32_t> seen32;
  std::set<std::uint64_t> seen128;
  for (std::size_t len = 0; len <= 17; ++len) {
    seen32.insert(murmur3_x86_32(std::span(data.data(), len), 7));
    seen128.insert(murmur3_x64_128(std::span(data.data(), len), 7).first);
  }
  EXPECT_EQ(seen32.size(), 18u);   // all distinct
  EXPECT_EQ(seen128.size(), 18u);
}

TEST(BloomIndices, ProducesKDistinctishIndices) {
  std::vector<std::size_t> idx;
  bloom_indices(bytes_of("bucket"), 3, 8, 1'000'003, std::back_inserter(idx));
  EXPECT_EQ(idx.size(), 8u);
  for (auto i : idx) EXPECT_LT(i, 1'000'003u);
}

TEST(BloomFilter, SetTestBasics) {
  BloomFilter f(1024);
  EXPECT_FALSE(f.test(77));
  f.set(77);
  EXPECT_TRUE(f.test(77));
  EXPECT_EQ(f.set_bit_count(), 1u);
  f.set(77);
  EXPECT_EQ(f.set_bit_count(), 1u);  // idempotent
}

TEST(BloomFilter, IndexWrapsModuloBits) {
  BloomFilter f(64);
  f.set(64);  // wraps to 0
  EXPECT_TRUE(f.test(0));
}

TEST(BloomFilter, OptimalSizing) {
  // 1e6 elements at 1%: canonical answer is ~9.59 bits per element.
  const std::size_t bits = BloomFilter::optimal_bits(1'000'000, 0.01);
  EXPECT_NEAR(static_cast<double>(bits) / 1e6, 9.585, 0.01);
  EXPECT_EQ(BloomFilter::optimal_hashes(bits, 1'000'000), 7u);
}

TEST(BloomFilter, MeasuredFpRateNearTarget) {
  const std::size_t n = 5000;
  const double target = 0.02;
  const std::size_t bits = BloomFilter::optimal_bits(n, target);
  const std::size_t k = BloomFilter::optimal_hashes(bits, n);
  BloomFilter f(bits);
  Rng rng(1);
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < n; ++i) {
    ByteWriter w;
    w.u64(i);
    idx.clear();
    bloom_indices(w.bytes(), 9, k, f.bit_count(), std::back_inserter(idx));
    for (auto j : idx) f.set(j);
  }
  std::size_t fps = 0;
  const std::size_t probes = 20'000;
  for (std::size_t i = 0; i < probes; ++i) {
    ByteWriter w;
    w.u64(1'000'000 + i);  // never inserted
    idx.clear();
    bloom_indices(w.bytes(), 9, k, f.bit_count(), std::back_inserter(idx));
    bool hit = true;
    for (auto j : idx) hit = hit && f.test(j);
    fps += hit;
  }
  const double rate = static_cast<double>(fps) / probes;
  EXPECT_LT(rate, target * 2.5);
}

/// write_sparse -> read_sparse into `back` (a fresh filter of the same
/// shape) -> write_sparse gives the same bytes and an equal filter.
template <typename Filter>
void expect_sparse_bit_exact(const Filter& f, Filter back) {
  ByteWriter w;
  f.write_sparse(w);
  ByteReader r(w.bytes());
  back.read_sparse(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back, f);
  ByteWriter again;
  back.write_sparse(again);
  EXPECT_EQ(again.bytes(), w.bytes());
}

TEST(BloomFilter, SerializeRoundtrip) {
  BloomFilter f(256);
  expect_sparse_bit_exact(f, BloomFilter(256));  // empty
  f.set(0);
  f.set(3);
  f.set(64);
  f.set(200);
  f.set(255);  // the last bit
  ByteWriter w;
  f.write_sparse(w);
  // Count, then gaps 0, 2, 60, 135 (two bytes), 54.
  EXPECT_EQ(w.bytes(), (Bytes{5, 0, 2, 60, 0x87, 0x01, 54}));
  expect_sparse_bit_exact(f, BloomFilter(256));
}

TEST(CountingBloom, IncrementDecrement) {
  CountingBloomFilter f(128, 10);
  EXPECT_EQ(f.count(5), 0u);
  EXPECT_EQ(f.increment(5), 1u);
  EXPECT_EQ(f.increment(5), 2u);
  EXPECT_EQ(f.count(5), 2u);
  EXPECT_EQ(f.decrement(5), 1u);
  EXPECT_EQ(f.decrement(5), 0u);
  EXPECT_EQ(f.decrement(5), 0u);  // floor at zero
}

TEST(CountingBloom, SaturatesAtMax) {
  CountingBloomFilter f(16, 4);  // max 15
  for (int i = 0; i < 100; ++i) f.increment(3);
  EXPECT_EQ(f.count(3), 15u);
  EXPECT_EQ(f.saturation(), 15u);
}

TEST(CountingBloom, TenBitSaturation) {
  CountingBloomFilter f(8, 10);
  for (int i = 0; i < 2000; ++i) f.increment(0);
  EXPECT_EQ(f.count(0), 1023u);  // the paper's "saturation of 1024" counter
}

TEST(CountingBloom, WordBoundaryCounters) {
  // 10-bit counters straddle 64-bit word boundaries; verify neighbors
  // don't corrupt each other across the straddle.
  CountingBloomFilter f(64, 10);
  for (std::size_t i = 0; i < 64; ++i) {
    for (std::size_t n = 0; n < i % 7; ++n) f.increment(i);
  }
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(f.count(i), i % 7) << "counter " << i;
  }
}

TEST(CountingBloom, SerializeRoundtrip) {
  CountingBloomFilter f(100, 10);
  f.increment(1);
  f.increment(1);
  f.increment(99);
  ByteWriter w;
  f.write_sparse(w);
  // Count, gaps (1, 97), values minus 1 (1, 0).
  EXPECT_EQ(w.bytes(), (Bytes{2, 1, 97, 1, 0}));
  expect_sparse_bit_exact(f, CountingBloomFilter(100, 10));

  // 10-bit counters 6 (bits 60..69), 12 (120..129) and 51 (510..519)
  // straddle a 64-bit word. 1020 leaves counter 51's two bits in word 7
  // clear, so that word is zero and only word 8 shows the counter.
  CountingBloomFilter edges(1000, 10);
  expect_sparse_bit_exact(edges, CountingBloomFilter(1000, 10));  // empty
  edges.increment(0);
  for (int i = 0; i < 77; ++i) edges.increment(6);
  for (int i = 0; i < 2000; ++i) edges.increment(12);  // saturates at 1023
  for (int i = 0; i < 1020; ++i) edges.increment(51);
  for (int i = 0; i < 5; ++i) edges.increment(999);  // the last counter
  ASSERT_EQ(edges.count(12), 1023u);
  ASSERT_EQ(edges.count(51), 1020u);
  expect_sparse_bit_exact(edges, CountingBloomFilter(1000, 10));

  CountingBloomFilter dense(4096, 10);
  Rng rng(71);
  for (int i = 0; i < 2840; ++i) {
    dense.increment(static_cast<std::size_t>(rng.uniform_u64(4096)));
  }
  ASSERT_GT(dense.fill_ratio(), 0.4);
  ASSERT_LT(dense.fill_ratio(), 0.6);
  expect_sparse_bit_exact(dense, CountingBloomFilter(4096, 10));
}

TEST(CountingBloom, DeserializeRejectsGarbage) {
  const auto rejects = [](Bytes b) {
    ByteReader r(b);
    CountingBloomFilter f(100, 10);
    EXPECT_THROW(f.read_sparse(r), DecodeError) << ::testing::PrintToString(b);
  };
  rejects({1, 100, 0});           // gap past the last counter
  rejects({2, 98, 1, 0, 0});      // second counter lands past the end
  rejects({1, 5, 0xFF, 0x07});    // value 1023 + 1 above saturation
  rejects({3, 0, 0, 0, 0});       // three counters need six bytes
  rejects({101, 0});              // more counters than the filter has
  rejects({1, 0x80, 0x80});       // truncated varint
}

TEST(ByteCodec, VarintRoundtripAndLimits) {
  ByteWriter w;
  for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{127},
                                std::uint64_t{128}, std::uint64_t{1} << 63,
                                ~std::uint64_t{0}}) {
    w.varint(v);
  }
  // 1 + 1 + 2 + 10 + 10 bytes.
  ASSERT_EQ(w.size(), 24u);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.varint(), 0u);
  EXPECT_EQ(r.varint(), 127u);
  EXPECT_EQ(r.varint(), 128u);
  EXPECT_EQ(r.varint(), std::uint64_t{1} << 63);
  EXPECT_EQ(r.varint(), ~std::uint64_t{0});
  EXPECT_TRUE(r.done());

  const auto rejects = [](Bytes b) {
    ByteReader bad(b);
    EXPECT_THROW((void)bad.varint(), DecodeError);
  };
  Bytes eleven(11, 0x80);
  eleven.back() = 0x00;
  rejects(eleven);                // 11 bytes
  Bytes wide(10, 0xFF);
  wide.back() = 0x02;
  rejects(wide);                  // 10 bytes, bit 64 set
  rejects({0x80, 0x80});          // truncated
}

TEST(E2Lsh, SameDescriptorSameBuckets) {
  E2Lsh lsh(10, 7, 500.0, 42);
  Rng rng(1);
  const Descriptor d = random_descriptor(rng);
  const auto a = lsh.all_buckets(d);
  const auto b = lsh.all_buckets(d);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 10u);
  EXPECT_EQ(a[0].size(), 7u);
}

TEST(E2Lsh, SeedChangesProjections) {
  E2Lsh a(4, 7, 500.0, 1), b(4, 7, 500.0, 2);
  Rng rng(2);
  const Descriptor d = random_descriptor(rng);
  EXPECT_NE(a.bucket(d, 0), b.bucket(d, 0));
}

TEST(E2Lsh, LocalitySensitivity) {
  // Nearby descriptors collide in most tables; far ones rarely do.
  E2Lsh lsh(10, 7, 500.0, 7);
  Rng rng(3);
  int near_hits = 0, far_hits = 0, trials = 40;
  for (int i = 0; i < trials; ++i) {
    const Descriptor base = random_descriptor(rng);
    const Descriptor near_d = perturb(base, rng, 2);
    const Descriptor far_d = random_descriptor(rng);
    for (std::size_t t = 0; t < lsh.tables(); ++t) {
      near_hits += lsh.bucket(base, t) == lsh.bucket(near_d, t);
      far_hits += lsh.bucket(base, t) == lsh.bucket(far_d, t);
    }
  }
  const double near_rate = near_hits / (40.0 * 10);
  const double far_rate = far_hits / (40.0 * 10);
  EXPECT_GT(near_rate, 0.5);
  EXPECT_LT(far_rate, near_rate / 3);
}

TEST(E2Lsh, WidthControlsQuantization) {
  Rng rng(4);
  const Descriptor base = random_descriptor(rng);
  const Descriptor nearby = perturb(base, rng, 6);
  // Coarser width -> more collisions between neighbors.
  int fine_hits = 0, coarse_hits = 0;
  E2Lsh fine(16, 7, 100.0, 5);
  E2Lsh coarse(16, 7, 2000.0, 5);
  for (std::size_t t = 0; t < 16; ++t) {
    fine_hits += fine.bucket(base, t) == fine.bucket(nearby, t);
    coarse_hits += coarse.bucket(base, t) == coarse.bucket(nearby, t);
  }
  EXPECT_GE(coarse_hits, fine_hits);
}

OracleConfig small_oracle_config() {
  OracleConfig cfg;
  cfg.capacity = 20'000;  // keep filters small for tests
  return cfg;
}

TEST(Oracle, UnseenDescriptorScoresZero) {
  UniquenessOracle oracle(small_oracle_config());
  Rng rng(5);
  EXPECT_EQ(oracle.count(random_descriptor(rng)), 0u);
}

TEST(Oracle, RepeatedInsertIncreasesCount) {
  UniquenessOracle oracle(small_oracle_config());
  Rng rng(6);
  const Descriptor d = random_descriptor(rng);
  for (int i = 0; i < 5; ++i) oracle.insert(d);
  EXPECT_GE(oracle.count(d), 4u);
  EXPECT_LE(oracle.count(d), 6u);
  EXPECT_EQ(oracle.insertions(), 5u);
}

TEST(Oracle, NearbyDescriptorSharesCount) {
  UniquenessOracle oracle(small_oracle_config());
  Rng rng(7);
  const Descriptor d = random_descriptor(rng);
  for (int i = 0; i < 10; ++i) oracle.insert(d);
  const Descriptor nearby = perturb(d, rng, 1);
  EXPECT_GE(oracle.count(nearby), 5u);  // LSH locality + multiprobe
}

TEST(Oracle, RanksCommonAboveUnique) {
  // The core VisualPrint property: a repeated descriptor must score higher
  // (less unique) than one inserted once.
  UniquenessOracle oracle(small_oracle_config());
  Rng rng(8);
  const Descriptor common = random_descriptor(rng);
  const Descriptor unique = random_descriptor(rng);
  for (int i = 0; i < 50; ++i) oracle.insert(perturb(common, rng, 1));
  oracle.insert(unique);
  EXPECT_GT(oracle.count(common), oracle.count(unique) + 10);
}

TEST(Oracle, SaturationCapsCount) {
  OracleConfig cfg = small_oracle_config();
  cfg.counter_bits = 4;  // saturate at 15
  UniquenessOracle oracle(cfg);
  Rng rng(9);
  const Descriptor d = random_descriptor(rng);
  for (int i = 0; i < 200; ++i) oracle.insert(d);
  EXPECT_LE(oracle.count(d), 15u);
  EXPECT_GE(oracle.count(d), 14u);
}

TEST(Oracle, VerificationFilterCutsFalsePositives) {
  // Insert many random descriptors; probe with fresh randoms. With the
  // verification filter the nonzero-count rate should not exceed the
  // rate without it.
  Rng rng(10);
  OracleConfig with = small_oracle_config();
  with.counters_override = 20'000;  // deliberately undersized -> collisions
  OracleConfig without = with;
  without.verification = false;
  UniquenessOracle a(with), b(without);
  for (int i = 0; i < 3000; ++i) {
    const Descriptor d = random_descriptor(rng);
    a.insert(d);
    b.insert(d);
  }
  int fa = 0, fb = 0;
  Rng probe_rng(11);
  for (int i = 0; i < 300; ++i) {
    const Descriptor q = random_descriptor(probe_rng);
    fa += a.count(q) > 0;
    fb += b.count(q) > 0;
  }
  EXPECT_LE(fa, fb);
}

TEST(Oracle, MultiprobeRescuesBoundaryNeighbors) {
  Rng rng(12);
  OracleConfig with = small_oracle_config();
  OracleConfig without = with;
  without.multiprobe = false;
  UniquenessOracle a(with), b(without);
  // Insert one cluster of similar descriptors in both oracles.
  const Descriptor base = random_descriptor(rng);
  for (int i = 0; i < 20; ++i) {
    const Descriptor d = perturb(base, rng, 2);
    a.insert(d);
    b.insert(d);
  }
  // Probe with perturbed queries; multiprobe should find at least as many.
  int hits_with = 0, hits_without = 0;
  for (int i = 0; i < 50; ++i) {
    const Descriptor q = perturb(base, rng, 2);
    hits_with += a.count(q) > 0;
    hits_without += b.count(q) > 0;
  }
  EXPECT_GE(hits_with, hits_without);
}

// Directed multiprobe test: with one table and one projection, all-constant
// descriptors walk the quantization ladder monotonically, so we can find a
// pair whose buckets are exactly adjacent with the inserted bucket one step
// ABOVE the query's — reachable only by the +1 probe, never the -1 probe.
TEST(Oracle, MultiprobeFindsHitAtPlusOne) {
  OracleConfig cfg = small_oracle_config();
  cfg.lsh.tables = 1;
  cfg.lsh.projections = 1;
  cfg.lsh.width = 40.0;  // narrow enough that the ladder has many rungs
  OracleConfig no_probe = cfg;
  no_probe.multiprobe = false;
  UniquenessOracle probed(cfg), plain(no_probe);

  auto desc_of = [](int v) {
    Descriptor d;
    d.fill(static_cast<std::uint8_t>(v));
    return d;
  };
  const E2Lsh& lsh = probed.lsh();
  int insert_v = -1, query_v = -1;
  for (int v = 1; v < 256 && insert_v < 0; ++v) {
    const std::int32_t prev = lsh.bucket(desc_of(v - 1), 0)[0];
    const std::int32_t cur = lsh.bucket(desc_of(v), 0)[0];
    if (cur == prev + 1) {
      insert_v = v;
      query_v = v - 1;
    } else if (cur == prev - 1) {
      insert_v = v - 1;
      query_v = v;
    }
  }
  ASSERT_GE(insert_v, 0) << "no adjacent bucket pair on the ladder";
  const Descriptor ins = desc_of(insert_v);
  const Descriptor query = desc_of(query_v);
  ASSERT_EQ(lsh.bucket(ins, 0)[0], lsh.bucket(query, 0)[0] + 1);

  for (int i = 0; i < 5; ++i) {
    probed.insert(ins);
    plain.insert(ins);
  }
  EXPECT_EQ(plain.count(query), 0u);  // primary bucket misses
  EXPECT_GE(probed.count(query), 4u);  // the +1 probe rescues it
}

TEST(Oracle, CountBatchMatchesScalarCount) {
  UniquenessOracle oracle(small_oracle_config());
  Rng rng(15);
  std::vector<Descriptor> batch;
  for (int i = 0; i < 60; ++i) {
    const Descriptor d = random_descriptor(rng);
    // Mix of unseen, singleton, and repeated descriptors.
    for (int j = 0; j < i % 4; ++j) oracle.insert(d);
    batch.push_back(perturb(d, rng, 1));
  }
  std::vector<std::uint32_t> expected;
  for (const auto& d : batch) expected.push_back(oracle.count(d));

  EXPECT_EQ(oracle.count_batch(batch), expected);
  ThreadPool pool(4);
  EXPECT_EQ(oracle.count_batch(batch, &pool), expected);
  EXPECT_TRUE(oracle.count_batch({}, &pool).empty());
}

/// serialize -> deserialize -> serialize gives the same bytes, equal
/// filters, and equal counts for `probes`.
void expect_oracle_bit_exact(const UniquenessOracle& oracle,
                             std::span<const Descriptor> probes) {
  const Bytes blob = oracle.serialize();
  const UniquenessOracle back = UniquenessOracle::deserialize(blob);
  EXPECT_EQ(back.serialize(), blob);
  EXPECT_EQ(back.primary(), oracle.primary());
  EXPECT_EQ(back.verification(), oracle.verification());
  EXPECT_EQ(back.insertions(), oracle.insertions());
  for (const Descriptor& d : probes) EXPECT_EQ(back.count(d), oracle.count(d));
}

TEST(Oracle, SerializeRoundtripPreservesCounts) {
  Rng rng(13);
  std::vector<Descriptor> inserted;
  for (int i = 0; i < 40; ++i) inserted.push_back(random_descriptor(rng));

  UniquenessOracle empty(small_oracle_config());
  expect_oracle_bit_exact(empty, inserted);
  // Header plus two zero counts: the blob does not grow with capacity.
  EXPECT_LT(empty.serialize().size(), 100u);

  UniquenessOracle oracle(small_oracle_config());
  for (const Descriptor& d : inserted) oracle.insert(d);
  expect_oracle_bit_exact(oracle, inserted);
  for (int i = 0; i < 1100; ++i) oracle.insert(inserted[0]);  // saturates
  ASSERT_EQ(oracle.count(inserted[0]), 1023u);
  expect_oracle_bit_exact(oracle, inserted);

  OracleConfig small = small_oracle_config();
  small.counters_override = 20'000;
  UniquenessOracle dense(small);
  for (int i = 0; i < 175; ++i) dense.insert(random_descriptor(rng));
  ASSERT_GT(dense.primary_fill(), 0.4);
  ASSERT_LT(dense.primary_fill(), 0.6);
  expect_oracle_bit_exact(dense, inserted);
}

TEST(Oracle, DeserializeRejectsCorruptMagic) {
  UniquenessOracle oracle(small_oracle_config());
  Bytes blob = oracle.serialize();
  blob[0] ^= 0xFF;
  EXPECT_THROW(UniquenessOracle::deserialize(blob), DecodeError);
}

/// A v2 oracle header for `counters` explicit 10-bit counters; the caller
/// appends the sparse body.
ByteWriter oracle_header(std::uint64_t counters, std::uint16_t hashes = 8) {
  ByteWriter w;
  w.u32(0x56504f52u);  // "VPOR"
  w.u16(2);
  w.u16(10);  // tables
  w.u16(7);   // projections
  w.u16(hashes);
  w.f64(500.0);  // width
  w.u64(1);      // seed
  w.u8(10);      // counter bits
  w.u8(1);       // multiprobe
  w.u8(1);       // verification
  w.u8(static_cast<std::uint8_t>(OracleAggregate::kMedian));
  w.u64(20'000);  // capacity
  w.f64(0.01);    // fp rate
  w.u64(counters);
  w.u64(0);  // insertions
  return w;
}

TEST(Oracle, DeserializeRejectsMalformedSparseBody) {
  const auto rejects = [](std::initializer_list<std::uint8_t> body,
                          const char* what, std::uint64_t counters = 1000) {
    ByteWriter w = oracle_header(counters);
    for (const std::uint8_t b : body) w.u8(b);
    g_largest_allocation = 0;
    EXPECT_THROW((void)UniquenessOracle::deserialize(w.bytes()), DecodeError)
        << what;
    // At most the 1000-counter filters themselves, never the claim.
    EXPECT_LT(g_largest_allocation.load(), std::size_t{1} << 16) << what;
  };
  ByteWriter minimal = oracle_header(1000);
  minimal.u8(0);  // no nonzero counters
  minimal.u8(0);  // no set verification bits
  ASSERT_NO_THROW((void)UniquenessOracle::deserialize(minimal.bytes()));
  rejects({}, "no body");
  rejects({1, 0xE8, 0x07, 0, 0}, "gap past the end");  // gap 1000
  rejects({1, 3, 0xFF, 0x07, 0}, "value above saturation");
  rejects({4, 0, 0, 0, 0}, "count larger than the payload");
  rejects({0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00,
           0},
          "varint longer than 10 bytes");
  rejects({1, 3, 0, 1, 9, 0}, "trailing bytes");  // one set bit, then 0
  // ~100 bytes claiming 2^40 ten-bit counters (1.4 TB of filter).
  rejects({0, 0}, "2^40 counters", std::uint64_t{1} << 40);
  // A header the oracle constructor would refuse is corruption too.
  ByteWriter no_hashes = oracle_header(1000, /*hashes=*/0);
  no_hashes.u8(0);
  no_hashes.u8(0);
  EXPECT_THROW((void)UniquenessOracle::deserialize(no_hashes.bytes()),
               DecodeError);
}

TEST(Oracle, FilterCapAdmitsEveryConstructibleOracle) {
  // filter_bytes() is exactly what the constructor allocates.
  OracleConfig odd = small_oracle_config();
  odd.counters_override = 6401;  // 10-bit counters ending mid-word
  odd.counter_bits = 10;
  for (const OracleConfig& cfg : {small_oracle_config(), odd}) {
    const UniquenessOracle oracle(cfg);
    EXPECT_EQ(cfg.filter_bytes(), oracle.primary().byte_size() +
                                      oracle.verification().byte_size());
  }
  EXPECT_LE(OracleConfig{}.filter_bytes(), kMaxOracleFilterBytes);

  // Just over the cap: the constructor refuses it before allocating, and
  // a header claiming it is refused the same way.
  OracleConfig over = small_oracle_config();
  over.counters_override = kMaxOracleFilterBytes * 8 / 11 + 64;
  ASSERT_GT(over.filter_bytes(), kMaxOracleFilterBytes);
  ASSERT_LT(over.filter_bytes(), kMaxOracleFilterBytes + 1024);
  g_largest_allocation = 0;
  EXPECT_THROW(UniquenessOracle{over}, InvalidArgument);
  EXPECT_LT(g_largest_allocation.load(), std::size_t{1} << 16);
  ByteWriter w = oracle_header(over.counters_override);
  w.u8(0);
  w.u8(0);
  g_largest_allocation = 0;
  EXPECT_THROW((void)UniquenessOracle::deserialize(w.bytes()), DecodeError);
  EXPECT_LT(g_largest_allocation.load(), std::size_t{1} << 16);
}

TEST(Oracle, DefaultSizedOracleRoundTrips) {
  // The default configuration: ~330 MB of bit-packed filters, whose blob
  // is 66 bytes empty and a few KB after a handful of insertions. Each
  // oracle is dropped before the next is decoded, so at most one is alive.
  Rng rng(15);
  std::vector<Descriptor> probes;
  for (int i = 0; i < 20; ++i) probes.push_back(random_descriptor(rng));
  Bytes empty_blob, blob;
  Bytes reply;
  std::vector<std::uint32_t> counts;
  {
    UniquenessOracle oracle{OracleConfig{}};
    empty_blob = oracle.serialize();
    for (const Descriptor& d : probes) oracle.insert(d);
    blob = oracle.serialize();
    reply = OracleDownload::pack(oracle, 1).encode();
    for (const Descriptor& d : probes) counts.push_back(oracle.count(d));
  }
  EXPECT_EQ(empty_blob.size(), 66u);
  for (const Bytes* b : {&empty_blob, &blob}) {
    const UniquenessOracle back = UniquenessOracle::deserialize(*b);
    EXPECT_EQ(back.serialize(), *b);
    EXPECT_EQ(back.primary().byte_size() + back.verification().byte_size(),
              OracleConfig{}.filter_bytes());
  }
  const UniquenessOracle downloaded = OracleDownload::decode(reply).unpack();
  EXPECT_EQ(downloaded.serialize(), blob);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(downloaded.count(probes[i]), counts[i]);
  }
}

TEST(Oracle, AggregateModes) {
  Rng rng(14);
  for (auto agg : {OracleAggregate::kMin, OracleAggregate::kMedian,
                   OracleAggregate::kMean, OracleAggregate::kMax}) {
    OracleConfig cfg = small_oracle_config();
    cfg.aggregate = agg;
    UniquenessOracle oracle(cfg);
    const Descriptor d = random_descriptor(rng);
    for (int i = 0; i < 7; ++i) oracle.insert(d);
    // Exact re-query: every table agrees, so all aggregates see ~7.
    EXPECT_GE(oracle.count(d), 6u);
    EXPECT_LE(oracle.count(d), 8u);
  }
}

}  // namespace
}  // namespace vp
