#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <set>

#include "features/distance.hpp"
#include "index/brute_force.hpp"
#include "index/lsh_index.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

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

TEST(LshIndex, InsertAssignsSequentialIds) {
  LshIndex index;
  Rng rng(1);
  EXPECT_EQ(index.insert(random_descriptor(rng)), 0u);
  EXPECT_EQ(index.insert(random_descriptor(rng)), 1u);
  EXPECT_EQ(index.size(), 2u);
}

TEST(LshIndex, ExactQueryFindsSelf) {
  LshIndex index;
  Rng rng(2);
  std::vector<Descriptor> db;
  for (int i = 0; i < 200; ++i) {
    db.push_back(random_descriptor(rng));
    index.insert(db.back());
  }
  int found = 0;
  for (int i = 0; i < 50; ++i) {
    const auto matches = index.query(db[static_cast<std::size_t>(i * 4)], 1);
    if (!matches.empty() && matches[0].distance2 == 0) ++found;
  }
  EXPECT_GE(found, 48);  // LSH may rarely miss, never often
}

TEST(LshIndex, NearQueryRecallVsBruteForce) {
  LshIndex index;
  Rng rng(3);
  std::vector<Descriptor> db;
  for (int i = 0; i < 300; ++i) {
    db.push_back(random_descriptor(rng));
    index.insert(db.back());
  }
  const BruteForceMatcher brute(db);
  int agree = 0, trials = 40;
  for (int i = 0; i < trials; ++i) {
    const Descriptor q = perturb(db[static_cast<std::size_t>(i * 7)], rng, 2);
    const auto lsh_match = index.query(q, 1);
    const Match exact = brute.nearest(q);
    if (!lsh_match.empty() && lsh_match[0].id == exact.id) ++agree;
  }
  EXPECT_GT(agree, trials * 7 / 10);
}

TEST(LshIndex, KnnSortedAscending) {
  LshIndex index;
  Rng rng(4);
  const Descriptor base = random_descriptor(rng);
  for (int i = 0; i < 50; ++i) index.insert(perturb(base, rng, 3));
  const auto matches = index.query(base, 10);
  ASSERT_GE(matches.size(), 2u);
  for (std::size_t i = 1; i < matches.size(); ++i) {
    EXPECT_GE(matches[i].distance2, matches[i - 1].distance2);
  }
}

TEST(LshIndex, MultiprobeImprovesRecall) {
  LshIndexConfig with;
  with.multiprobe = true;
  LshIndexConfig without;
  without.multiprobe = false;
  LshIndex a(with), b(without);
  Rng rng(5);
  std::vector<Descriptor> db;
  for (int i = 0; i < 200; ++i) {
    db.push_back(random_descriptor(rng));
    a.insert(db.back());
    b.insert(db.back());
  }
  int hits_a = 0, hits_b = 0;
  for (int i = 0; i < 60; ++i) {
    const Descriptor q = perturb(db[static_cast<std::size_t>(i * 3)], rng, 3);
    hits_a += !a.query(q, 1).empty();
    hits_b += !b.query(q, 1).empty();
  }
  EXPECT_GE(hits_a, hits_b);
}

TEST(LshIndex, MemoryGrowsWithReplication) {
  LshIndexConfig small;
  small.lsh.tables = 2;
  LshIndexConfig big;
  big.lsh.tables = 20;
  LshIndex a(small), b(big);
  Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    const Descriptor d = random_descriptor(rng);
    a.insert(d);
    b.insert(d);
  }
  // The Fig. 15 observation: more tables -> multiplicatively more memory.
  EXPECT_GT(b.byte_size(), a.byte_size());
}

TEST(SelectTopK, MatchesFullSortForEveryK) {
  Rng rng(20);
  std::vector<Match> pool;
  for (int i = 0; i < 200; ++i) {
    // Few distinct distances so ties (resolved by id) are common.
    pool.push_back({static_cast<std::uint32_t>(i),
                    static_cast<std::uint32_t>(rng.uniform_u64(8))});
  }
  shuffle(pool.begin(), pool.end(), rng);
  for (const std::size_t k : {0u, 1u, 5u, 199u, 200u, 500u}) {
    std::vector<Match> expected = pool;
    std::sort(expected.begin(), expected.end(), match_less);
    if (expected.size() > k) expected.resize(k);
    std::vector<Match> got = pool;
    select_top_k(got, k);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, expected[i].id);
      EXPECT_EQ(got[i].distance2, expected[i].distance2);
    }
  }
}

TEST(LshIndex, QueryBatchMatchesPerQueryPathForAnyPoolSize) {
  LshIndexConfig cfg;
  cfg.multiprobe = true;
  LshIndex index(cfg);
  Rng rng(21);
  std::vector<Descriptor> db;
  for (int i = 0; i < 400; ++i) {
    db.push_back(random_descriptor(rng));
    index.insert(db.back());
  }
  std::vector<Descriptor> queries;
  for (int i = 0; i < 64; ++i) {
    queries.push_back(perturb(db[static_cast<std::size_t>(i * 5)], rng, 3));
  }
  const auto serial = index.query_batch(queries, 3, nullptr);
  ASSERT_EQ(serial.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto single = index.query(queries[i], 3);
    ASSERT_EQ(serial[i].size(), single.size());
    for (std::size_t j = 0; j < single.size(); ++j) {
      EXPECT_EQ(serial[i][j].id, single[j].id);
      EXPECT_EQ(serial[i][j].distance2, single[j].distance2);
    }
  }
  for (const std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    const auto batched = index.query_batch(queries, 3, &pool);
    ASSERT_EQ(batched.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(batched[i].size(), serial[i].size());
      for (std::size_t j = 0; j < serial[i].size(); ++j) {
        EXPECT_EQ(batched[i][j].id, serial[i][j].id);
        EXPECT_EQ(batched[i][j].distance2, serial[i][j].distance2);
      }
    }
  }
}

TEST(LshIndex, MatchListsBitIdenticalAcrossKernels) {
  LshIndex index;
  Rng rng(22);
  std::vector<Descriptor> db;
  for (int i = 0; i < 300; ++i) {
    db.push_back(random_descriptor(rng));
    index.insert(db.back());
  }
  std::vector<Descriptor> queries;
  for (int i = 0; i < 32; ++i) {
    queries.push_back(perturb(db[static_cast<std::size_t>(i * 9)], rng, 2));
  }
  const SimdLevel original = distance_kernels().active();
  ASSERT_TRUE(distance_kernels().set(SimdLevel::kScalar));
  const auto reference = index.query_batch(queries, 4, nullptr);
  for (const SimdLevel level : kCompiledSimdLevels) {
    SCOPED_TRACE(std::string(simd_level_name(level)));
    ASSERT_TRUE(distance_kernels().set(level));
    const auto got = index.query_batch(queries, 4, nullptr);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].size(), reference[i].size());
      for (std::size_t j = 0; j < got[i].size(); ++j) {
        EXPECT_EQ(got[i][j].id, reference[i][j].id);
        EXPECT_EQ(got[i][j].distance2, reference[i][j].distance2);
      }
    }
  }
  ASSERT_TRUE(distance_kernels().set(original));
}

TEST(LshIndex, DescriptorAccessorsRoundtripFlatStorage) {
  LshIndex index;
  Rng rng(23);
  std::vector<Descriptor> db;
  for (int i = 0; i < 20; ++i) {
    db.push_back(random_descriptor(rng));
    index.insert(db.back());
  }
  for (std::uint32_t id = 0; id < db.size(); ++id) {
    EXPECT_EQ(index.descriptor(id), db[id]);
    EXPECT_EQ(std::memcmp(index.descriptor_ptr(id), db[id].data(),
                          kDescriptorDims),
              0);
  }
  EXPECT_THROW(index.descriptor(static_cast<std::uint32_t>(db.size())),
               std::exception);
}

LshIndexConfig pq_config(std::uint32_t rerank_depth) {
  LshIndexConfig cfg;
  cfg.multiprobe = true;  // fat candidate sets: the ADC stage actually runs
  cfg.pq.enabled = true;
  cfg.pq.rerank_depth = rerank_depth;
  return cfg;
}

TEST(PqIndex, TrainEncodesEveryDescriptorAndReportsBytes) {
  LshIndex index(pq_config(16));
  Rng rng(30);
  std::vector<Descriptor> db;
  for (int i = 0; i < 300; ++i) {
    db.push_back(random_descriptor(rng));
    index.insert(db.back());
  }
  EXPECT_FALSE(index.pq_ready());  // enabled but untrained
  const std::size_t exact_only_bytes = index.byte_size();
  index.train_pq();
  ASSERT_TRUE(index.pq_ready());
  ASSERT_EQ(index.pq_codes().size(), db.size() * kPqCodeBytes);
  // The code payload is exactly 8x smaller than the raw descriptors; the
  // fixed 32 KB codebook rides on top and shows up in byte_size.
  EXPECT_EQ(index.descriptor_bytes(), 8 * index.pq_codes().size());
  EXPECT_EQ(index.pq_bytes(), index.pq_codes().size() + kPqCodebookBytes);
  EXPECT_GT(index.byte_size(), exact_only_bytes);
  std::array<std::uint8_t, kPqCodeBytes> expect{};
  for (std::uint32_t id = 0; id < db.size(); ++id) {
    index.pq_codebook().encode(db[id].data(), expect.data());
    EXPECT_EQ(std::memcmp(index.code_ptr(id), expect.data(), kPqCodeBytes), 0);
  }
}

TEST(PqIndex, TrainIsNoOpWhenDisabledOrEmpty) {
  LshIndex disabled;
  Rng rng(31);
  disabled.insert(random_descriptor(rng));
  disabled.train_pq();
  EXPECT_FALSE(disabled.pq_ready());
  EXPECT_EQ(disabled.pq_bytes(), 0u);

  LshIndex empty(pq_config(16));
  empty.train_pq();
  EXPECT_FALSE(empty.pq_ready());
}

TEST(PqIndex, IncrementalInsertAfterTrainStaysReady) {
  LshIndex index(pq_config(16));
  Rng rng(32);
  std::vector<Descriptor> db;
  for (int i = 0; i < 200; ++i) {
    db.push_back(random_descriptor(rng));
    index.insert(db.back());
  }
  index.train_pq();
  const auto codebook_before = index.pq_codebook().raw();
  std::vector<std::uint8_t> raw_before(codebook_before.begin(),
                                       codebook_before.end());
  for (int i = 0; i < 100; ++i) {
    db.push_back(random_descriptor(rng));
    index.insert(db.back());
  }
  // insert() encodes as it goes once trained; a later train_pq() call
  // must neither retrain nor re-encode.
  EXPECT_TRUE(index.pq_ready());
  index.train_pq();
  const auto codebook_after = index.pq_codebook().raw();
  EXPECT_TRUE(std::equal(raw_before.begin(), raw_before.end(),
                         codebook_after.begin()));
  ASSERT_EQ(index.pq_codes().size(), db.size() * kPqCodeBytes);
  std::array<std::uint8_t, kPqCodeBytes> expect{};
  for (std::uint32_t id = 0; id < db.size(); ++id) {
    index.pq_codebook().encode(db[id].data(), expect.data());
    EXPECT_EQ(std::memcmp(index.code_ptr(id), expect.data(), kPqCodeBytes), 0);
  }
}

TEST(PqIndex, RestorePqValidatesCoverage) {
  LshIndex index(pq_config(16));
  Rng rng(33);
  for (int i = 0; i < 50; ++i) index.insert(random_descriptor(rng));
  index.train_pq();
  PqCodebook book = PqCodebook::from_raw(
      {index.pq_codebook().raw().data(), index.pq_codebook().raw().size()});
  EXPECT_THROW(
      index.restore_pq(std::move(book),
                       std::vector<std::uint8_t>(49 * kPqCodeBytes)),
      std::exception);
  EXPECT_THROW(index.restore_pq(PqCodebook{},
                                std::vector<std::uint8_t>(50 * kPqCodeBytes)),
               std::exception);
}

TEST(PqIndex, MatchesExactOnlyWhenRerankCoversCandidates) {
  // rerank_depth >= max_candidates: the ADC stage can never prune, so the
  // PQ index must return the exact-only index's match lists verbatim.
  LshIndexConfig cfg = pq_config(8192);
  LshIndexConfig exact_cfg;
  exact_cfg.multiprobe = true;
  LshIndex pq(cfg), exact(exact_cfg);
  Rng rng(34);
  std::vector<Descriptor> db;
  for (int i = 0; i < 400; ++i) {
    db.push_back(random_descriptor(rng));
    pq.insert(db.back());
    exact.insert(db.back());
  }
  pq.train_pq();
  ASSERT_TRUE(pq.pq_ready());
  for (int i = 0; i < 40; ++i) {
    const Descriptor q = perturb(db[static_cast<std::size_t>(i * 9)], rng, 3);
    const auto a = pq.query(q, 4);
    const auto b = exact.query(q, 4);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].id, b[j].id);
      EXPECT_EQ(a[j].distance2, b[j].distance2);
    }
  }
}

// The determinism contract extended to PQ mode: identical match lists for
// every compiled ADC kernel, every compiled exact-distance kernel, and
// every pool size. A dense cluster around few bases guarantees candidate
// sets far deeper than the rerank depth, so the ADC stage really prunes.
TEST(PqIndex, AdcResultsDeterministicAcrossKernelsAndPools) {
  LshIndex index(pq_config(8));
  Rng rng(35);
  std::vector<Descriptor> bases;
  for (int i = 0; i < 4; ++i) bases.push_back(random_descriptor(rng));
  for (int i = 0; i < 600; ++i) {
    index.insert(perturb(bases[static_cast<std::size_t>(i % 4)], rng, 2));
  }
  index.train_pq();
  ASSERT_TRUE(index.pq_ready());
  std::vector<Descriptor> queries;
  for (int i = 0; i < 24; ++i) {
    queries.push_back(perturb(bases[static_cast<std::size_t>(i % 4)], rng, 2));
  }

  const SimdLevel dist_original = distance_kernels().active();
  const SimdLevel adc_original = adc_kernels().active();
  ASSERT_TRUE(distance_kernels().set(SimdLevel::kScalar));
  ASSERT_TRUE(adc_kernels().set(SimdLevel::kScalar));
  const auto reference = index.query_batch(queries, 4, nullptr);

  for (const SimdLevel adc : kCompiledSimdLevels) {
    ASSERT_TRUE(adc_kernels().set(adc));
    for (const SimdLevel dist : kCompiledSimdLevels) {
      ASSERT_TRUE(distance_kernels().set(dist));
      SCOPED_TRACE("adc=" + std::string(simd_level_name(adc)) +
                   " dist=" + std::string(simd_level_name(dist)));
      for (const std::size_t threads : {0u, 1u, 4u}) {
        std::unique_ptr<ThreadPool> pool;
        if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
        const auto got = index.query_batch(queries, 4, pool.get());
        ASSERT_EQ(got.size(), reference.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].size(), reference[i].size());
          for (std::size_t j = 0; j < got[i].size(); ++j) {
            EXPECT_EQ(got[i][j].id, reference[i][j].id);
            EXPECT_EQ(got[i][j].distance2, reference[i][j].distance2);
          }
        }
      }
    }
  }
  ASSERT_TRUE(distance_kernels().set(dist_original));
  ASSERT_TRUE(adc_kernels().set(adc_original));
}

// Recall-regression guard (acceptance bar: >= 0.95). The coarse ADC scan
// may only reorder candidates before the exact rerank; against the
// exact-only index's top-1 on perturbed stored descriptors it must stay
// essentially lossless at the default rerank depth.
TEST(PqIndex, RecallAtOneVsExactOnlyAboveGuard) {
  LshIndex pq(pq_config(64)), exact([] {
    LshIndexConfig cfg;
    cfg.multiprobe = true;
    return cfg;
  }());
  Rng rng(36);
  std::vector<Descriptor> bases;
  for (int i = 0; i < 8; ++i) bases.push_back(random_descriptor(rng));
  for (int i = 0; i < 2000; ++i) {
    const Descriptor d = perturb(bases[static_cast<std::size_t>(i % 8)], rng, 4);
    pq.insert(d);
    exact.insert(d);
  }
  pq.train_pq();
  ASSERT_TRUE(pq.pq_ready());
  int total = 0, hit = 0;
  bool pruned = false;
  for (int i = 0; i < 200; ++i) {
    const Descriptor q = perturb(bases[static_cast<std::size_t>(i % 8)], rng, 4);
    const auto e = exact.query(q, 1);
    if (e.empty()) continue;
    const auto p = pq.query(q, 1);
    ASSERT_FALSE(p.empty());
    ++total;
    hit += (p[0].id == e[0].id);
    pruned = true;  // every query sees ~250 clustered candidates > depth 64
  }
  ASSERT_TRUE(pruned);
  ASSERT_GE(total, 150);
  EXPECT_GE(static_cast<double>(hit), 0.95 * static_cast<double>(total));
}

// Recall-regression guard for the compact uplink (acceptance bar:
// >= 0.95 vs raw). The client-side PQ encode is lossy — the server ranks
// a reconstructed (quantized) query instead of the raw descriptor — so
// this guard measures that quantization's end-to-end retrieval cost: the
// compact pipeline's top-1 must agree with the raw pipeline's top-1 on at
// least 95% of queries.
TEST(CompactUplink, RecallAtOneVsRawAboveGuard) {
  // Distinct stored descriptors, queries perturbed off stored ones: the
  // regime the uplink actually runs in (SIFT descriptors of distinct
  // keypoints are far apart relative to view-to-view jitter). Quantization
  // noise must stay well inside that margin. Dense near-duplicate blobs
  // are deliberately NOT the corpus here — when hundreds of neighbors are
  // nearly equidistant, top-1 identity under any lossy code is a coin
  // flip, which measures the corpus, not the codec.
  LshIndex index(pq_config(64));
  Rng rng(38);
  std::vector<Descriptor> db;
  for (int i = 0; i < 2000; ++i) {
    db.push_back(random_descriptor(rng));
    index.insert(db.back());
  }
  index.train_pq();
  ASSERT_TRUE(index.pq_ready());
  const PqCodebook& book = index.pq_codebook();
  int total = 0, hit = 0;
  for (int i = 0; i < 200; ++i) {
    const Descriptor q = perturb(db[static_cast<std::size_t>(i * 9)], rng, 3);
    const auto raw = index.query(q, 1);
    if (raw.empty()) continue;
    // The compact path: client encodes, server reconstructs and ranks.
    std::array<std::uint8_t, kPqCodeBytes> code{};
    book.encode(q.data(), code.data());
    Descriptor rebuilt{};
    book.reconstruct(code.data(), rebuilt.data());
    const auto compact = index.query(rebuilt, 1);
    ASSERT_FALSE(compact.empty());
    ++total;
    hit += (compact[0].id == raw[0].id);
  }
  ASSERT_GE(total, 150);
  EXPECT_GE(static_cast<double>(hit), 0.95 * static_cast<double>(total));
}

// Bit-identity of the compact serving paths: for reconstructed queries,
// query_batch_codes (symmetric-ADC rows gathered from the precomputed
// centroid matrix) must equal query_batch (table built from the
// reconstructed descriptor), match for match, across every compiled ADC
// kernel, exact-distance kernel, and pool size.
TEST(CompactUplink, SymmetricCodesPathBitIdenticalAcrossKernelsAndPools) {
  LshIndex index(pq_config(8));
  Rng rng(39);
  std::vector<Descriptor> bases;
  for (int i = 0; i < 4; ++i) bases.push_back(random_descriptor(rng));
  for (int i = 0; i < 600; ++i) {
    index.insert(perturb(bases[static_cast<std::size_t>(i % 4)], rng, 2));
  }
  index.train_pq();
  ASSERT_TRUE(index.pq_ready());
  const PqCodebook& book = index.pq_codebook();

  // Compact queries as the server sees them: codes + reconstructions.
  std::vector<Descriptor> queries;
  std::vector<std::uint8_t> codes;
  for (int i = 0; i < 24; ++i) {
    const Descriptor q =
        perturb(bases[static_cast<std::size_t>(i % 4)], rng, 2);
    std::array<std::uint8_t, kPqCodeBytes> code{};
    book.encode(q.data(), code.data());
    codes.insert(codes.end(), code.begin(), code.end());
    Descriptor rebuilt{};
    book.reconstruct(code.data(), rebuilt.data());
    queries.push_back(rebuilt);
  }

  const SimdLevel dist_original = distance_kernels().active();
  const SimdLevel adc_original = adc_kernels().active();
  ASSERT_TRUE(distance_kernels().set(SimdLevel::kScalar));
  ASSERT_TRUE(adc_kernels().set(SimdLevel::kScalar));
  const auto reference = index.query_batch(queries, 4, nullptr);

  for (const SimdLevel adc : kCompiledSimdLevels) {
    ASSERT_TRUE(adc_kernels().set(adc));
    for (const SimdLevel dist : kCompiledSimdLevels) {
      ASSERT_TRUE(distance_kernels().set(dist));
      SCOPED_TRACE("adc=" + std::string(simd_level_name(adc)) +
                   " dist=" + std::string(simd_level_name(dist)));
      for (const std::size_t threads : {0u, 1u, 4u}) {
        std::unique_ptr<ThreadPool> pool;
        if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
        const auto got = index.query_batch_codes(queries, codes, 4, pool.get());
        ASSERT_EQ(got.size(), reference.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].size(), reference[i].size());
          for (std::size_t j = 0; j < got[i].size(); ++j) {
            EXPECT_EQ(got[i][j].id, reference[i][j].id);
            EXPECT_EQ(got[i][j].distance2, reference[i][j].distance2);
          }
        }
      }
    }
  }
  ASSERT_TRUE(distance_kernels().set(dist_original));
  ASSERT_TRUE(adc_kernels().set(adc_original));
}

TEST(CompactUplink, QueryBatchCodesFallsBackWhenPqUnready) {
  // A plain exact index has no codebook: the codes overload must serve the
  // batch through the ordinary path instead of crashing or mis-ranking.
  LshIndex index;
  Rng rng(40);
  std::vector<Descriptor> db;
  for (int i = 0; i < 100; ++i) {
    db.push_back(random_descriptor(rng));
    index.insert(db.back());
  }
  std::vector<Descriptor> queries{db[3], db[42]};
  const std::vector<std::uint8_t> codes(queries.size() * kPqCodeBytes, 0);
  const auto via_codes = index.query_batch_codes(queries, codes, 2, nullptr);
  const auto via_batch = index.query_batch(queries, 2, nullptr);
  ASSERT_EQ(via_codes.size(), via_batch.size());
  for (std::size_t i = 0; i < via_codes.size(); ++i) {
    ASSERT_EQ(via_codes[i].size(), via_batch[i].size());
    for (std::size_t j = 0; j < via_codes[i].size(); ++j) {
      EXPECT_EQ(via_codes[i][j].id, via_batch[i][j].id);
    }
  }
}

#if VP_OBS_ENABLED
TEST(PqIndex, AdcScanCounterTracksScannedCandidates) {
  LshIndex index(pq_config(8));
  Rng rng(37);
  const Descriptor base = random_descriptor(rng);
  for (int i = 0; i < 300; ++i) index.insert(perturb(base, rng, 1));
  index.train_pq();
  ASSERT_TRUE(index.pq_ready());
  auto& counter = obs::Registry::global().counter("index.adc_scans");
  const std::uint64_t before = counter.value();
  const auto matches = index.query(base, 4);
  EXPECT_EQ(matches.size(), 4u);
  EXPECT_GT(counter.value(), before);
}
#endif

#if VP_OBS_ENABLED
TEST(LshIndex, CandidateCapTruncatesBeforeRankingAndCounts) {
  LshIndexConfig cfg;
  cfg.max_candidates = 8;  // tiny cap, trivially exceeded
  cfg.multiprobe = true;
  LshIndex index(cfg);
  Rng rng(24);
  const Descriptor base = random_descriptor(rng);
  for (int i = 0; i < 300; ++i) index.insert(perturb(base, rng, 1));
  auto& counter =
      obs::Registry::global().counter("index.candidates_truncated");
  const std::uint64_t before = counter.value();
  const auto matches = index.query(base, 4);
  EXPECT_EQ(matches.size(), 4u);  // cap >= k: ranking still fills k
  EXPECT_GT(counter.value(), before);
}
#endif

TEST(BruteForce, ExactNearest) {
  Rng rng(7);
  std::vector<Descriptor> db;
  for (int i = 0; i < 100; ++i) db.push_back(random_descriptor(rng));
  const BruteForceMatcher brute(db);
  // Query with a copy of a known entry.
  const Match m = brute.nearest(db[42]);
  EXPECT_EQ(m.id, 42u);
  EXPECT_EQ(m.distance2, 0u);
}

TEST(BruteForce, KnnOrderingAndContent) {
  Rng rng(8);
  std::vector<Descriptor> db;
  const Descriptor base = random_descriptor(rng);
  db.push_back(base);
  for (int i = 0; i < 60; ++i) db.push_back(perturb(base, rng, 5));
  const BruteForceMatcher brute(db);
  const auto knn = brute.knn(base, 5);
  ASSERT_EQ(knn.size(), 5u);
  EXPECT_EQ(knn[0].id, 0u);
  for (std::size_t i = 1; i < knn.size(); ++i) {
    EXPECT_GE(knn[i].distance2, knn[i - 1].distance2);
  }
}

TEST(BruteForce, BatchMatchesSerial) {
  Rng rng(9);
  std::vector<Descriptor> db, queries;
  for (int i = 0; i < 150; ++i) db.push_back(random_descriptor(rng));
  for (int i = 0; i < 30; ++i) queries.push_back(random_descriptor(rng));
  ThreadPool pool(3);
  const BruteForceMatcher par(db, &pool);
  const BruteForceMatcher ser(db, nullptr);
  const auto batch = par.nearest_batch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Match m = ser.nearest(queries[i]);
    EXPECT_EQ(batch[i].id, m.id);
    EXPECT_EQ(batch[i].distance2, m.distance2);
  }
}

TEST(RandomSubselect, SizesAndUniqueness) {
  Rng rng(10);
  const auto ids = random_subselect(100, 30, rng);
  EXPECT_EQ(ids.size(), 30u);
  const std::set<std::size_t> uniq(ids.begin(), ids.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (auto i : ids) EXPECT_LT(i, 100u);
  // Requesting more than available returns everything.
  EXPECT_EQ(random_subselect(10, 50, rng).size(), 10u);
}

TEST(RandomSubselect, RoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(20, 0);
  for (int t = 0; t < 2000; ++t) {
    for (auto i : random_subselect(20, 5, rng)) {
      ++counts[i];
    }
  }
  // Each index expected 2000 * 5/20 = 500 times.
  for (int c : counts) {
    EXPECT_GT(c, 380);
    EXPECT_LT(c, 620);
  }
}

}  // namespace
}  // namespace vp
