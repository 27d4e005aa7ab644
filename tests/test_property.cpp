// Property-based and parameterized sweeps over the core invariants:
// Bloom counter packing at every width, LSH locality across parameter
// grids, serialization fuzzing (truncation/corruption must throw, never
// crash), and selection-policy invariants.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "core/client.hpp"
#include "hashing/bloom.hpp"
#include "hashing/lsh.hpp"
#include "hashing/oracle.hpp"
#include "net/wire.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace vp {
namespace {

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

// ---------------------------------------------------------------------------
// Counting Bloom filter: every counter width packs/unpacks correctly.
class CounterBitsTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(CounterBitsTest, PackedCountersIndependent) {
  const unsigned bits = GetParam();
  const std::uint32_t max = (1u << bits) - 1;
  CountingBloomFilter f(97, bits);  // prime count forces straddling
  Rng rng(bits);
  std::vector<std::uint32_t> shadow(97, 0);
  for (int step = 0; step < 3000; ++step) {
    const auto i = static_cast<std::size_t>(rng.uniform_u64(97));
    if (rng.chance(0.7)) {
      f.increment(i);
      shadow[i] = std::min(max, shadow[i] + 1);
    } else {
      f.decrement(i);
      shadow[i] = shadow[i] > 0 ? shadow[i] - 1 : 0;
    }
  }
  for (std::size_t i = 0; i < 97; ++i) {
    EXPECT_EQ(f.count(i), shadow[i]) << "bits=" << bits << " idx=" << i;
  }
}

TEST_P(CounterBitsTest, SerializeRoundtrip) {
  const unsigned bits = GetParam();
  CountingBloomFilter f(61, bits);
  Rng rng(bits * 7 + 1);
  for (int i = 0; i < 200; ++i) {
    f.increment(static_cast<std::size_t>(rng.uniform_u64(61)));
  }
  ByteWriter w;
  f.write_sparse(w);
  ByteReader r(w.bytes());
  CountingBloomFilter back(61, bits);
  back.read_sparse(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back, f);
}

INSTANTIATE_TEST_SUITE_P(AllWidths, CounterBitsTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 7u, 8u, 10u,
                                           13u, 16u));

// ---------------------------------------------------------------------------
// LSH locality holds across the (L, M, W) parameter grid.
struct LshParams {
  std::size_t tables;
  std::size_t projections;
  double width;
};

class LshGridTest : public ::testing::TestWithParam<LshParams> {};

TEST_P(LshGridTest, NearCollidesMoreThanFar) {
  const auto p = GetParam();
  E2Lsh lsh(p.tables, p.projections, p.width, 11);
  Rng rng(17);
  int near_hits = 0, far_hits = 0;
  const int trials = 30;
  for (int i = 0; i < trials; ++i) {
    const Descriptor base = random_descriptor(rng);
    const Descriptor near_d = perturb(base, rng, 1);
    const Descriptor far_d = random_descriptor(rng);
    for (std::size_t t = 0; t < p.tables; ++t) {
      near_hits += lsh.bucket(base, t) == lsh.bucket(near_d, t);
      far_hits += lsh.bucket(base, t) == lsh.bucket(far_d, t);
    }
  }
  EXPECT_GT(near_hits, far_hits) << "L=" << p.tables << " M=" << p.projections
                                 << " W=" << p.width;
}

INSTANTIATE_TEST_SUITE_P(
    ParamGrid, LshGridTest,
    ::testing::Values(LshParams{4, 4, 300}, LshParams{4, 7, 500},
                      LshParams{10, 7, 500}, LshParams{10, 10, 500},
                      LshParams{16, 7, 800}, LshParams{10, 7, 1500}));

// ---------------------------------------------------------------------------
// Oracle ranking quality across aggregates and K.
// ctest names each case after a byte dump of its parameter, so the seven
// bytes after the one-byte aggregate are a zeroed field: as padding they
// held stack garbage and renamed the test on every run.
struct OracleParams {
  OracleAggregate aggregate;
  std::array<std::uint8_t, 7> zero{};
  std::size_t hashes;
};

class OracleGridTest : public ::testing::TestWithParam<OracleParams> {};

TEST_P(OracleGridTest, CommonOutranksUnique) {
  OracleConfig cfg;
  cfg.capacity = 20'000;
  cfg.aggregate = GetParam().aggregate;
  cfg.hashes = GetParam().hashes;
  UniquenessOracle oracle(cfg);
  Rng rng(23);
  const Descriptor common = random_descriptor(rng);
  std::vector<Descriptor> uniques;
  for (int i = 0; i < 30; ++i) oracle.insert(perturb(common, rng, 1));
  for (int i = 0; i < 10; ++i) {
    uniques.push_back(random_descriptor(rng));
    oracle.insert(uniques.back());
  }
  const auto common_count = oracle.count(common);
  for (const auto& u : uniques) {
    EXPECT_GT(common_count, oracle.count(u));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Aggregates, OracleGridTest,
    ::testing::Values(
        OracleParams{.aggregate = OracleAggregate::kMin, .hashes = 8},
        OracleParams{.aggregate = OracleAggregate::kMedian, .hashes = 8},
        OracleParams{.aggregate = OracleAggregate::kMean, .hashes = 8},
        OracleParams{.aggregate = OracleAggregate::kMax, .hashes = 8},
        OracleParams{.aggregate = OracleAggregate::kMedian, .hashes = 4},
        OracleParams{.aggregate = OracleAggregate::kMedian, .hashes = 12}));

// ---------------------------------------------------------------------------
// Serialization fuzz: truncations and random corruptions never crash.
TEST(Fuzz, QueryDecodeNeverCrashesOnTruncation) {
  FingerprintQuery q;
  Rng rng(31);
  q.features.resize(4);
  for (auto& f : q.features) f.descriptor = random_descriptor(rng);
  const Bytes full = q.encode();
  for (std::size_t len = 0; len < full.size(); ++len) {
    Bytes cut(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(FingerprintQuery::decode(cut), DecodeError) << "len=" << len;
  }
}

TEST(Fuzz, QueryDecodeSurvivesRandomCorruption) {
  FingerprintQuery q;
  Rng rng(37);
  q.features.resize(8);
  const Bytes full = q.encode();
  for (int trial = 0; trial < 300; ++trial) {
    Bytes mutated = full;
    const auto pos = static_cast<std::size_t>(rng.uniform_u64(mutated.size()));
    mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_u64(255));
    try {
      const auto decoded = FingerprintQuery::decode(mutated);
      // Decoding may succeed (payload bytes flipped); sizes stay sane.
      EXPECT_LE(decoded.features.size(), 1'000'000u);
    } catch (const DecodeError&) {
      // Equally fine: corruption detected.
    }
  }
}

TEST(Fuzz, OracleDeserializeSurvivesCorruption) {
  OracleConfig cfg;
  cfg.capacity = 5'000;
  UniquenessOracle oracle(cfg);
  Rng rng(41);
  for (int i = 0; i < 5; ++i) oracle.insert(random_descriptor(rng));
  const Bytes blob = oracle.serialize();
  for (int trial = 0; trial < 100; ++trial) {
    Bytes mutated = blob;
    const auto pos = static_cast<std::size_t>(rng.uniform_u64(64));
    mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_u64(255));
    try {
      (void)UniquenessOracle::deserialize(mutated);
    } catch (const Error&) {
      // DecodeError or InvalidArgument are both acceptable outcomes.
    }
  }
}

TEST(Fuzz, OracleSparseBodySurvivesCorruption) {
  // The varint lists after the 64-byte header: a flipped byte there either
  // decodes to an oracle that re-serializes stably or throws DecodeError
  // (the header is intact, so never InvalidArgument); every truncation
  // throws DecodeError.
  OracleConfig cfg;
  cfg.capacity = 5'000;
  UniquenessOracle oracle(cfg);
  Rng rng(42);
  for (int i = 0; i < 20; ++i) oracle.insert(random_descriptor(rng));
  const Bytes blob = oracle.serialize();
  ASSERT_GT(blob.size(), 1000u);
  const auto survives = [](std::span<const std::uint8_t> bytes) {
    try {
      const UniquenessOracle decoded = UniquenessOracle::deserialize(bytes);
      const UniquenessOracle again =
          UniquenessOracle::deserialize(decoded.serialize());
      EXPECT_EQ(again.primary(), decoded.primary());
      EXPECT_EQ(again.verification(), decoded.verification());
    } catch (const DecodeError&) {
    }
  };
  for (int trial = 0; trial < 1000; ++trial) {
    Bytes mutated = blob;
    const auto pos =
        64 + static_cast<std::size_t>(rng.uniform_u64(blob.size() - 64));
    mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_u64(255));
    survives(mutated);
  }
  // Every count comes before its list, so each proper prefix runs short.
  for (std::size_t len = 64; len < blob.size(); ++len) {
    EXPECT_THROW(
        (void)UniquenessOracle::deserialize(
            std::span<const std::uint8_t>(blob).first(len)),
        DecodeError)
        << len;
  }
}

TEST(Fuzz, LocationResponseTruncation) {
  LocationResponse resp;
  resp.place_label = "somewhere";
  const Bytes full = resp.encode();
  for (std::size_t len = 0; len < full.size(); ++len) {
    Bytes cut(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(LocationResponse::decode(cut), DecodeError);
  }
}

// ---------------------------------------------------------------------------
// Selection invariants across policies and k.
class SelectionKTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SelectionKTest, SelectionSizeAndMembership) {
  const std::size_t k = GetParam();
  Rng rng(43);
  std::vector<Feature> features(37);
  for (auto& f : features) f.descriptor = random_descriptor(rng);

  OracleConfig oc;
  oc.capacity = 5'000;
  UniquenessOracle oracle(oc);
  for (const auto& f : features) oracle.insert(f.descriptor);

  for (auto policy : {SelectionPolicy::kMostUnique, SelectionPolicy::kRandom}) {
    ClientConfig cc;
    cc.policy = policy;
    VisualPrintClient client(cc, 7);
    if (policy == SelectionPolicy::kMostUnique) {
      client.install_oracle(UniquenessOracle::deserialize(oracle.serialize()));
    }
    const auto selected = client.select_features(features, k);
    EXPECT_EQ(selected.size(), std::min(k, features.size()));
    // Every selected descriptor must come from the input set.
    for (const auto& s : selected) {
      const bool member =
          std::any_of(features.begin(), features.end(), [&](const Feature& f) {
            return f.descriptor == s.descriptor;
          });
      EXPECT_TRUE(member);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(VariousK, SelectionKTest,
                         ::testing::Values(1u, 5u, 20u, 37u, 100u));

// ---------------------------------------------------------------------------
// CDF invariants on random data.
TEST(PropertyStats, CdfIsADistributionFunction) {
  Rng rng(47);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> v;
    const int n = 1 + static_cast<int>(rng.uniform_u64(200));
    for (int i = 0; i < n; ++i) v.push_back(rng.gaussian(0, 10));
    EmpiricalCdf cdf(v);
    EXPECT_DOUBLE_EQ(cdf.at(1e18), 1.0);
    EXPECT_DOUBLE_EQ(cdf.at(-1e18), 0.0);
    const double q25 = cdf.quantile(0.25);
    const double q75 = cdf.quantile(0.75);
    EXPECT_LE(q25, q75);
    EXPECT_GE(cdf.at(q75) - cdf.at(q25), 0.0);
  }
}

TEST(PropertyStats, PercentileWithinMinMax) {
  Rng rng(53);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> v;
    const int n = 1 + static_cast<int>(rng.uniform_u64(50));
    for (int i = 0; i < n; ++i) v.push_back(rng.uniform(-5, 5));
    const double p = rng.uniform(0, 100);
    const double val = percentile(v, p);
    EXPECT_GE(val, *std::min_element(v.begin(), v.end()) - 1e-12);
    EXPECT_LE(val, *std::max_element(v.begin(), v.end()) + 1e-12);
  }
}

}  // namespace
}  // namespace vp
