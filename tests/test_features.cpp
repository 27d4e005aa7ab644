#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include "features/distance.hpp"
#include "features/pq.hpp"
#include "features/draw.hpp"
#include "features/keypoint.hpp"
#include "features/pca.hpp"
#include "features/sift.hpp"
#include "imaging/filters.hpp"
#include "scene/environments.hpp"
#include "scene/render.hpp"
#include "scene/texture.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace vp {
namespace {

/// A textured test image with plenty of corners and blobs.
ImageF test_pattern(int w, int h, std::uint64_t seed) {
  Rng rng(seed);
  return painting_texture(w, h, rng);
}

TEST(Descriptor, DistanceBasics) {
  Descriptor a{}, b{};
  EXPECT_EQ(descriptor_distance2(a, b), 0u);
  b[0] = 3;
  b[127] = 4;
  EXPECT_EQ(descriptor_distance2(a, b), 25u);
  EXPECT_EQ(descriptor_distance2(b, a), 25u);  // symmetric
}

TEST(Descriptor, DistanceMaxBound) {
  Descriptor a{}, b{};
  for (auto& v : b) v = 255;
  EXPECT_EQ(descriptor_distance2(a, b), 128u * 255u * 255u);
}

TEST(DistanceKernels, ScalarAlwaysCompiledAndActiveIsCompiled) {
  const auto kernels = compiled_distance_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(kernels.front(), DistanceKernel::kScalar);
  bool active_listed = false;
  for (const auto k : kernels) active_listed |= (k == active_distance_kernel());
  EXPECT_TRUE(active_listed);
  EXPECT_FALSE(kernel_name(active_distance_kernel()).empty());
}

// Every compiled-in kernel must agree bit-for-bit with the scalar loop:
// 10k random pairs plus the adversarial extremes (all-zero, all-255, and
// saturating alternations that maximize each i16 lane product).
TEST(DistanceKernels, BitIdenticalToScalarOnRandomAndAdversarialPairs) {
  std::vector<std::pair<Descriptor, Descriptor>> pairs;
  Rng rng(0xd15ul);
  for (int i = 0; i < 10'000; ++i) {
    Descriptor a, b;
    for (auto& v : a) v = static_cast<std::uint8_t>(rng.uniform_u64(256));
    for (auto& v : b) v = static_cast<std::uint8_t>(rng.uniform_u64(256));
    pairs.emplace_back(a, b);
  }
  Descriptor zeros{}, maxed{}, alt_a{}, alt_b{};
  for (auto& v : maxed) v = 255;
  for (std::size_t i = 0; i < kDescriptorDims; ++i) {
    alt_a[i] = (i % 2 == 0) ? 255 : 0;  // max |diff| in every lane, both
    alt_b[i] = (i % 2 == 0) ? 0 : 255;  // signs through the widen+madd
  }
  pairs.emplace_back(zeros, zeros);
  pairs.emplace_back(zeros, maxed);
  pairs.emplace_back(maxed, maxed);
  pairs.emplace_back(alt_a, alt_b);
  pairs.emplace_back(alt_a, maxed);

  for (const DistanceKernel kernel : compiled_distance_kernels()) {
    SCOPED_TRACE(std::string(kernel_name(kernel)));
    for (const auto& [a, b] : pairs) {
      const std::uint32_t expected =
          distance2_u8_128_with(DistanceKernel::kScalar, a.data(), b.data());
      EXPECT_EQ(distance2_u8_128_with(kernel, a.data(), b.data()), expected);
    }
  }
}

TEST(DistanceKernels, SetKernelSwitchesDispatchAndRejectsUncompiled) {
  const DistanceKernel original = active_distance_kernel();
  for (const DistanceKernel kernel : compiled_distance_kernels()) {
    ASSERT_TRUE(set_distance_kernel(kernel));
    EXPECT_EQ(active_distance_kernel(), kernel);
    Descriptor a{}, b{};
    b[0] = 3;
    b[127] = 4;
    EXPECT_EQ(descriptor_distance2(a, b), 25u);  // dispatch stays exact
  }
  // A kernel for a foreign architecture is never switchable: NEON on x86
  // builds, AVX2 on ARM builds (and everything but scalar under
  // VP_DISABLE_SIMD).
  const auto kernels = compiled_distance_kernels();
  for (const DistanceKernel probe :
       {DistanceKernel::kSse41, DistanceKernel::kAvx2, DistanceKernel::kNeon}) {
    bool compiled = false;
    for (const auto k : kernels) compiled |= (k == probe);
    if (!compiled) {
      EXPECT_FALSE(set_distance_kernel(probe));
    }
  }
  ASSERT_TRUE(set_distance_kernel(original));
}

TEST(HammingKernels, ScalarAlwaysCompiledAndActiveIsCompiled) {
  const auto kernels = compiled_hamming_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(kernels.front(), HammingKernel::kScalar);
  bool active_listed = false;
  for (const auto k : kernels) active_listed |= (k == active_hamming_kernel());
  EXPECT_TRUE(active_listed);
  EXPECT_FALSE(kernel_name(active_hamming_kernel()).empty());
}

// Every compiled-in popcount kernel must agree bit-for-bit with a naive
// bit-at-a-time count: 10k random word pairs plus the adversarial
// patterns (all-zero, all-ones, alternating nibbles that exercise every
// entry of the AVX2 nibble lookup, and single-bit words).
TEST(HammingKernels, BitIdenticalToNaiveOnRandomAndAdversarialWords) {
  using Words = std::array<std::uint64_t, 4>;
  std::vector<std::pair<Words, Words>> pairs;
  Rng rng(0xbadb17ul);
  for (int i = 0; i < 10'000; ++i) {
    Words a, b;
    for (auto& w : a) w = rng.next_u64();
    for (auto& w : b) w = rng.next_u64();
    pairs.emplace_back(a, b);
  }
  const Words zeros{}, ones{0xFFFFFFFFFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull,
                          0xFFFFFFFFFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull};
  const Words nibbles{0x0123456789ABCDEFull, 0xFEDCBA9876543210ull,
                      0xAAAAAAAAAAAAAAAAull, 0x5555555555555555ull};
  Words one_bit{};
  one_bit[3] = 1ull << 63;
  pairs.emplace_back(zeros, zeros);
  pairs.emplace_back(zeros, ones);
  pairs.emplace_back(ones, ones);
  pairs.emplace_back(nibbles, zeros);
  pairs.emplace_back(one_bit, zeros);

  for (const auto& [a, b] : pairs) {
    std::uint32_t naive = 0;
    for (std::size_t w = 0; w < kHammingWords; ++w) {
      const std::uint64_t x = a[w] ^ b[w];
      for (int bit = 0; bit < 64; ++bit) naive += (x >> bit) & 1u;
    }
    for (const HammingKernel kernel : compiled_hamming_kernels()) {
      SCOPED_TRACE(std::string(kernel_name(kernel)));
      EXPECT_EQ(hamming256_with(kernel, a.data(), b.data()), naive);
    }
  }
}

TEST(HammingKernels, SetKernelSwitchesDispatchAndRejectsUncompiled) {
  const HammingKernel original = active_hamming_kernel();
  const std::array<std::uint64_t, 4> a{1, 2, 3, 4};
  const std::array<std::uint64_t, 4> b{0, 2, 3, 0xF4};
  // a^b = {1, 0, 0, 0xF0} -> 1 + 0 + 0 + 4 bits.
  for (const HammingKernel kernel : compiled_hamming_kernels()) {
    ASSERT_TRUE(set_hamming_kernel(kernel));
    EXPECT_EQ(active_hamming_kernel(), kernel);
    EXPECT_EQ(hamming256(a.data(), b.data()), 5u);
  }
  const auto kernels = compiled_hamming_kernels();
  for (const HammingKernel probe :
       {HammingKernel::kPopcnt, HammingKernel::kAvx2, HammingKernel::kNeon}) {
    bool compiled = false;
    for (const auto k : kernels) compiled |= (k == probe);
    if (!compiled) {
      EXPECT_FALSE(set_hamming_kernel(probe));
    }
  }
  ASSERT_TRUE(set_hamming_kernel(original));
}

/// `count` random full-range descriptors at 128-byte stride (the LshIndex
/// flat-buffer layout PqCodebook::train consumes).
std::vector<std::uint8_t> random_flat_descriptors(std::size_t count,
                                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> flat(count * kDescriptorDims);
  for (auto& v : flat) v = static_cast<std::uint8_t>(rng.uniform_u64(256));
  return flat;
}

TEST(Pq, TrainIsDeterministicAndEncodesStably) {
  const auto flat = random_flat_descriptors(600, 0x9001ul);
  const PqCodebook a = PqCodebook::train(flat.data(), 600);
  const PqCodebook b = PqCodebook::train(flat.data(), 600);
  ASSERT_TRUE(a.trained());
  ASSERT_EQ(a.raw().size(), kPqCodebookBytes);
  ASSERT_TRUE(std::equal(a.raw().begin(), a.raw().end(), b.raw().begin()));
  std::array<std::uint8_t, kPqCodeBytes> ca{}, cb{};
  a.encode(flat.data(), ca.data());
  b.encode(flat.data(), cb.data());
  EXPECT_EQ(ca, cb);
  // An untrained codebook comes from an empty training set.
  EXPECT_FALSE(PqCodebook::train(flat.data(), 0).trained());
}

TEST(Pq, EncodePicksNearestCentroidTiesToLowest) {
  // Hand-crafted codebook: in every subspace, centroid c is the constant
  // vector (c). A descriptor of constant value v must encode to round(v)
  // per subspace; centroids 0 and 1 duplicated would tie to the lower id.
  std::vector<std::uint8_t> raw(kPqCodebookBytes);
  for (std::size_t s = 0; s < kPqSubspaces; ++s) {
    for (std::size_t c = 0; c < kPqCentroids; ++c) {
      for (std::size_t d = 0; d < kPqSubDims; ++d) {
        raw[(s * kPqCentroids + c) * kPqSubDims + d] =
            static_cast<std::uint8_t>(c);
      }
    }
  }
  const PqCodebook book = PqCodebook::from_raw(raw);
  Descriptor q;
  for (std::size_t i = 0; i < kDescriptorDims; ++i) {
    q[i] = static_cast<std::uint8_t>(17 * (i / kPqSubDims));
  }
  std::array<std::uint8_t, kPqCodeBytes> code{};
  book.encode(q.data(), code.data());
  for (std::size_t s = 0; s < kPqSubspaces; ++s) {
    EXPECT_EQ(code[s], static_cast<std::uint8_t>(17 * s));
  }
}

TEST(Pq, FromRawRoundtripAndRejectsBadSize) {
  const auto flat = random_flat_descriptors(300, 0x9002ul);
  const PqCodebook book = PqCodebook::train(flat.data(), 300);
  const PqCodebook back =
      PqCodebook::from_raw({book.raw().data(), book.raw().size()});
  ASSERT_TRUE(back.trained());
  EXPECT_TRUE(std::equal(book.raw().begin(), book.raw().end(),
                         back.raw().begin()));
  std::vector<std::uint8_t> short_raw(kPqCodebookBytes - 1);
  std::vector<std::uint8_t> long_raw(kPqCodebookBytes + 1);
  EXPECT_THROW(PqCodebook::from_raw(short_raw), DecodeError);
  EXPECT_THROW(PqCodebook::from_raw(long_raw), DecodeError);
  EXPECT_THROW(PqCodebook::from_raw({}), DecodeError);
}

TEST(Pq, ReconstructConcatenatesTheCodesCentroids) {
  const auto flat = random_flat_descriptors(400, 0x9008ul);
  const PqCodebook book = PqCodebook::train(flat.data(), 400);
  std::array<std::uint8_t, kPqCodeBytes> code{};
  book.encode(flat.data() + 11 * kDescriptorDims, code.data());
  Descriptor rebuilt{};
  book.reconstruct(code.data(), rebuilt.data());
  for (std::size_t s = 0; s < kPqSubspaces; ++s) {
    const std::uint8_t* cent = book.centroid(s, code[s]);
    for (std::size_t d = 0; d < kPqSubDims; ++d) {
      EXPECT_EQ(rebuilt[s * kPqSubDims + d], cent[d]);
    }
  }
  // Encoding the reconstruction is a fixed point: the nearest centroid of
  // a centroid is itself (ties to the lowest id can only pick an equal
  // centroid, which leaves the reconstruction unchanged).
  std::array<std::uint8_t, kPqCodeBytes> again{};
  book.encode(rebuilt.data(), again.data());
  Descriptor rebuilt2{};
  book.reconstruct(again.data(), rebuilt2.data());
  EXPECT_EQ(rebuilt, rebuilt2);
}

TEST(Pq, SymmetricAdcTableMatchesAsymmetricOnReconstruction) {
  // The compact-uplink fast path: gathering rows of the precomputed
  // centroid-distance matrix must equal building the table from the
  // reconstructed descriptor, entry for entry — that identity is what
  // lets the server skip the table build without changing any ranking.
  const auto flat = random_flat_descriptors(500, 0x9009ul);
  const PqCodebook book = PqCodebook::train(flat.data(), 500);
  for (const std::size_t pick : {std::size_t{0}, std::size_t{123},
                                 std::size_t{499}}) {
    SCOPED_TRACE(pick);
    std::array<std::uint8_t, kPqCodeBytes> code{};
    book.encode(flat.data() + pick * kDescriptorDims, code.data());
    Descriptor rebuilt{};
    book.reconstruct(code.data(), rebuilt.data());
    AdcTable asym, sym;
    book.build_adc_table(rebuilt.data(), asym);
    book.build_symmetric_adc_table(code.data(), sym);
    for (std::size_t i = 0; i < kPqSubspaces * kPqCentroids; ++i) {
      ASSERT_EQ(sym.d[i], asym.d[i]) << "entry " << i;
    }
  }
  // Codebook copies share the lazily built matrix and agree with it.
  const PqCodebook copy = book;
  std::array<std::uint8_t, kPqCodeBytes> code{};
  book.encode(flat.data(), code.data());
  AdcTable a, b;
  book.build_symmetric_adc_table(code.data(), a);
  copy.build_symmetric_adc_table(code.data(), b);
  EXPECT_EQ(a.d, b.d);
}

TEST(AdcKernels, ScalarAlwaysCompiledAndActiveIsCompiled) {
  const auto kernels = compiled_adc_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(kernels.front(), DistanceKernel::kScalar);
  bool active_listed = false;
  for (const auto k : kernels) active_listed |= (k == active_adc_kernel());
  EXPECT_TRUE(active_listed);
}

TEST(AdcKernels, AdcDistanceMatchesNaiveTableSum) {
  const auto flat = random_flat_descriptors(500, 0x9003ul);
  const PqCodebook book = PqCodebook::train(flat.data(), 500);
  const auto query = random_flat_descriptors(1, 0x9004ul);
  AdcTable table;
  book.build_adc_table(query.data(), table);
  // Every table entry is the saturated exact subspace distance.
  for (std::size_t s = 0; s < kPqSubspaces; ++s) {
    for (std::size_t c = 0; c < kPqCentroids; ++c) {
      std::uint32_t d2 = 0;
      const std::uint8_t* cent = book.centroid(s, c);
      for (std::size_t d = 0; d < kPqSubDims; ++d) {
        const std::int32_t diff =
            static_cast<std::int32_t>(query[s * kPqSubDims + d]) - cent[d];
        d2 += static_cast<std::uint32_t>(diff * diff);
      }
      EXPECT_EQ(table.d[s * kPqCentroids + c],
                static_cast<std::uint16_t>(std::min<std::uint32_t>(d2, 0xFFFF)));
    }
  }
  std::array<std::uint8_t, kPqCodeBytes> code{};
  book.encode(flat.data() + 37 * kDescriptorDims, code.data());
  std::uint32_t naive = 0;
  for (std::size_t s = 0; s < kPqSubspaces; ++s) {
    naive += table.d[s * kPqCentroids + code[s]];
  }
  EXPECT_EQ(adc_distance(table, code.data()), naive);
}

// Every compiled ADC kernel must produce the scalar kernel's sums, both
// for sequential scans (ids == nullptr) and gathered id lists, including
// a table where entries saturate at 0xFFFF — which also proves the AVX2
// gather masks its 32-bit loads down to the 16-bit entry.
TEST(AdcKernels, BitIdenticalToScalarWithAndWithoutIds) {
  const std::size_t n = 517;  // odd length: exercises kernel tails
  const auto flat = random_flat_descriptors(n, 0x9005ul);
  const PqCodebook trained = PqCodebook::train(flat.data(), n);
  std::vector<std::uint8_t> codes(n * kPqCodeBytes);
  for (std::size_t i = 0; i < n; ++i) {
    trained.encode(flat.data() + i * kDescriptorDims,
                   codes.data() + i * kPqCodeBytes);
  }
  // Saturating codebook: every centroid byte 255, query all zero ->
  // every table entry is exactly 0xFFFF.
  const PqCodebook maxed = PqCodebook::from_raw(
      std::vector<std::uint8_t>(kPqCodebookBytes, 255));
  const Descriptor zero_query{};
  Rng rng(0x9006ul);
  std::vector<std::uint32_t> ids(257);
  for (auto& id : ids) {
    id = static_cast<std::uint32_t>(rng.uniform_u64(n));
  }

  for (const bool saturated : {false, true}) {
    SCOPED_TRACE(saturated ? "saturated" : "trained");
    AdcTable table;
    if (saturated) {
      maxed.build_adc_table(zero_query.data(), table);
      EXPECT_EQ(table.d[0], 0xFFFFu);
      EXPECT_EQ(table.d[kPqSubspaces * kPqCentroids - 1], 0xFFFFu);
    } else {
      trained.build_adc_table(flat.data() + 3 * kDescriptorDims, table);
    }
    std::vector<std::uint32_t> expect_seq(n), expect_ids(ids.size());
    adc_scan_with(DistanceKernel::kScalar, table, codes.data(), nullptr, n,
                  expect_seq.data());
    adc_scan_with(DistanceKernel::kScalar, table, codes.data(), ids.data(),
                  ids.size(), expect_ids.data());
    if (saturated) {
      EXPECT_EQ(expect_seq[0], 16u * 0xFFFFu);
    }
    for (const DistanceKernel kernel : compiled_adc_kernels()) {
      SCOPED_TRACE(std::string(kernel_name(kernel)));
      std::vector<std::uint32_t> got_seq(n), got_ids(ids.size());
      adc_scan_with(kernel, table, codes.data(), nullptr, n, got_seq.data());
      adc_scan_with(kernel, table, codes.data(), ids.data(), ids.size(),
                    got_ids.data());
      EXPECT_EQ(got_seq, expect_seq);
      EXPECT_EQ(got_ids, expect_ids);
    }
  }
}

TEST(AdcKernels, SetKernelSwitchesDispatchAndRejectsUncompiled) {
  const DistanceKernel original = active_adc_kernel();
  const auto flat = random_flat_descriptors(300, 0x9007ul);
  const PqCodebook book = PqCodebook::train(flat.data(), 300);
  AdcTable table;
  book.build_adc_table(flat.data(), table);
  std::array<std::uint8_t, kPqCodeBytes> code{};
  book.encode(flat.data(), code.data());
  std::uint32_t expected = 0;
  for (std::size_t s = 0; s < kPqSubspaces; ++s) {
    expected += table.d[s * kPqCentroids + code[s]];
  }
  for (const DistanceKernel kernel : compiled_adc_kernels()) {
    ASSERT_TRUE(set_adc_kernel(kernel));
    EXPECT_EQ(active_adc_kernel(), kernel);
    EXPECT_EQ(adc_distance(table, code.data()), expected);
  }
  const auto kernels = compiled_adc_kernels();
  for (const DistanceKernel probe :
       {DistanceKernel::kSse41, DistanceKernel::kAvx2, DistanceKernel::kNeon}) {
    bool compiled = false;
    for (const auto k : kernels) compiled |= (k == probe);
    if (!compiled) {
      EXPECT_FALSE(set_adc_kernel(probe));
    }
  }
  ASSERT_TRUE(set_adc_kernel(original));
}

TEST(Feature, SerializeRoundtrip) {
  Feature f;
  f.keypoint = {12.5f, 33.25f, 2.0f, -1.2f, 0.5f, 1};
  for (std::size_t i = 0; i < kDescriptorDims; ++i) {
    f.descriptor[i] = static_cast<std::uint8_t>(i * 2);
  }
  ByteWriter w;
  serialize_feature(f, w);
  EXPECT_EQ(w.size(), kFeatureWireBytes);
  ByteReader r(w.bytes());
  const Feature back = deserialize_feature(r);
  EXPECT_EQ(back.keypoint.x, f.keypoint.x);
  EXPECT_EQ(back.keypoint.orientation, f.keypoint.orientation);
  EXPECT_EQ(back.descriptor, f.descriptor);
}

TEST(Feature, ListSerializeRoundtripAndTrailingBytes) {
  std::vector<Feature> fs(3);
  fs[1].keypoint.x = 7;
  Bytes b = serialize_features(fs);
  const auto back = deserialize_features(b);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[1].keypoint.x, 7);
  b.push_back(0);
  EXPECT_THROW(deserialize_features(b), DecodeError);
}

TEST(Sift, FindsKeypointsOnTexturedImage) {
  const ImageF img = test_pattern(200, 150, 1);
  const auto features = sift_detect(img);
  EXPECT_GT(features.size(), 30u);
  for (const auto& f : features) {
    EXPECT_GE(f.keypoint.x, 0);
    EXPECT_LT(f.keypoint.x, 200);
    EXPECT_GE(f.keypoint.y, 0);
    EXPECT_LT(f.keypoint.y, 150);
    EXPECT_GT(f.keypoint.scale, 0);
  }
}

TEST(Sift, BlankImageHasNoKeypoints) {
  const ImageF img(128, 128, 1, 128.0f);
  EXPECT_TRUE(sift_detect(img).empty());
}

TEST(Sift, DeterministicAcrossRuns) {
  const ImageF img = test_pattern(160, 120, 2);
  const auto a = sift_detect(img);
  const auto b = sift_detect(img);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].keypoint.x, b[i].keypoint.x);
    EXPECT_EQ(a[i].descriptor, b[i].descriptor);
  }
}

// The contract the threaded pipeline must honor: the pool is a pure speed
// knob. Every pool size yields byte-identical descriptors in the same
// keypoint order as the sequential path.
TEST(Sift, BitIdenticalAcrossPoolSizes) {
  const ImageF img = test_pattern(320, 240, 4);
  const auto baseline = sift_detect(img);
  ASSERT_GT(baseline.size(), 30u);

  for (const unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    SiftConfig cfg;
    cfg.pool = &pool;
    const auto got = sift_detect(img, cfg);
    ASSERT_EQ(got.size(), baseline.size()) << threads << " threads";
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].keypoint.x, baseline[i].keypoint.x);
      EXPECT_EQ(got[i].keypoint.y, baseline[i].keypoint.y);
      EXPECT_EQ(got[i].keypoint.scale, baseline[i].keypoint.scale);
      EXPECT_EQ(got[i].keypoint.orientation, baseline[i].keypoint.orientation);
      EXPECT_EQ(got[i].keypoint.response, baseline[i].keypoint.response);
      EXPECT_EQ(got[i].keypoint.octave, baseline[i].keypoint.octave);
      EXPECT_EQ(got[i].descriptor, baseline[i].descriptor);
    }
  }
}

void expect_same_features(const std::vector<Feature>& got,
                          const std::vector<Feature>& want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Keypoint& a = got[i].keypoint;
    const Keypoint& b = want[i].keypoint;
    ASSERT_TRUE(std::memcmp(&a.x, &b.x, sizeof a.x) == 0 &&
                std::memcmp(&a.y, &b.y, sizeof a.y) == 0 &&
                std::memcmp(&a.scale, &b.scale, sizeof a.scale) == 0 &&
                std::memcmp(&a.orientation, &b.orientation,
                            sizeof a.orientation) == 0 &&
                std::memcmp(&a.response, &b.response, sizeof a.response) ==
                    0 &&
                a.octave == b.octave &&
                got[i].descriptor == want[i].descriptor)
        << what << ": feature " << i;
  }
}

// The scale-space kernels are a pure speed knob, like the pool: on a
// rendered 920x540 office frame (the benchmark's query size), the scalar
// blur + extrema scan and the active kernels give byte-identical features
// and pyramids, at pool sizes 0, 1 and 4.
TEST(Sift, ScalarAndActiveScaleSpaceKernelsAgreeOnOfficeFrame) {
  Rng rng(2016);
  const World world = build_office(
      RoomConfig{.width = 18, .depth = 10, .height = 3, .num_scenes = 6},
      rng);
  const Camera cam =
      look_at(CameraIntrinsics{920, 540, 1.15192}, {9, 5, 1.5}, {9, 8, 1.5});
  const ImageF frame = render(world, cam, {}, rng).image;

  const BlurKernel active = active_blur_kernel();
  ASSERT_TRUE(set_blur_kernel(BlurKernel::kScalar));
  const auto reference = sift_detect(frame);
  const auto reference_ss = detail::build_scale_space(frame, {});
  ASSERT_TRUE(set_blur_kernel(active));
  ASSERT_GT(reference.size(), 50u);

  const auto ss = detail::build_scale_space(frame, {});
  ASSERT_EQ(ss.gaussians, reference_ss.gaussians);
  ASSERT_EQ(ss.dogs, reference_ss.dogs);
  for (const unsigned threads : {0u, 1u, 4u}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    SiftConfig cfg;
    cfg.pool = pool.get();
    expect_same_features(sift_detect(frame, cfg), reference,
                         std::string(blur_kernel_name(active)) + ", " +
                             std::to_string(threads) + " threads");
  }
}

// The preliminary threshold is compared in double (|v| <= t skips v). The
// vector scans compare floats, so a DoG value exactly at the threshold's
// float or one ulp either side must get the scalar decision from every
// kernel: for a threshold a float represents (1.25), the default one
// (0.5 * 255 * 0.03 / 3 = 1.275, whose float rounds down) and one whose
// float rounds up (0.1).
TEST(Sift, ExtremaThresholdDecidedExactlyAtTheBoundary) {
  for (const double thresh : {1.25, 0.5 * 255.0 * 0.03 / 3, 0.1}) {
    const float at = static_cast<float>(thresh);
    const float inf = std::numeric_limits<float>::infinity();
    std::vector<float> values;
    for (const float f :
         {std::nextafter(at, -inf), at, std::nextafter(at, inf)}) {
      values.push_back(f);
      values.push_back(-f);  // minima take the same threshold on |v|
    }
    // Each value sits on a zero plane, two columns apart, so it is a strict
    // max (or min) of its 26 neighbours: only the threshold decides it.
    constexpr int kBorder = 1;
    const int w = 2 * static_cast<int>(values.size()) + 2 * kBorder + 9;
    ImageF prev(w, 3), cur(w, 3), next(w, 3);
    std::vector<int> want;
    for (std::size_t i = 0; i < values.size(); ++i) {
      const int x = kBorder + 1 + 2 * static_cast<int>(i);
      cur(x, 1) = values[i];
      if (!(std::abs(values[i]) <= thresh)) want.push_back(x);
    }
    // Both decisions occur among the three magnitudes.
    ASSERT_GT(want.size(), 0u);
    ASSERT_LT(want.size(), values.size());
    for (const BlurKernel kernel : compiled_blur_kernels()) {
      std::vector<int> got;
      detail::row_extrema(prev, cur, next, 1, kBorder, thresh, kernel, got);
      EXPECT_EQ(got, want) << blur_kernel_name(kernel) << " threshold "
                           << thresh;
    }
  }
}

TEST(Sift, ShiftEquivariance) {
  // Embed the same pattern at two offsets; keypoints should shift along.
  const ImageF pattern = test_pattern(100, 100, 3);
  auto embed = [&](int off) {
    ImageF canvas(220, 220, 1, 100.0f);
    for (int y = 0; y < 100; ++y) {
      for (int x = 0; x < 100; ++x) {
        canvas(x + off, y + off) = pattern(x, y);
      }
    }
    return canvas;
  };
  const auto a = sift_detect_keypoints(embed(20));
  const auto b = sift_detect_keypoints(embed(60));
  ASSERT_GT(a.size(), 10u);
  // For each keypoint in a (interior), expect a close match in b at +40.
  int matched = 0, considered = 0;
  for (const auto& ka : a) {
    if (ka.x < 30 || ka.x > 110 || ka.y < 30 || ka.y > 110) continue;
    ++considered;
    for (const auto& kb : b) {
      if (std::abs(kb.x - (ka.x + 40)) < 1.5 &&
          std::abs(kb.y - (ka.y + 40)) < 1.5) {
        ++matched;
        break;
      }
    }
  }
  ASSERT_GT(considered, 5);
  EXPECT_GT(static_cast<double>(matched) / considered, 0.8);
}

TEST(Sift, BlurReducesKeypointCount) {
  const ImageF img = test_pattern(200, 150, 4);
  const auto sharp = sift_detect_keypoints(img);
  const auto blurred = sift_detect_keypoints(gaussian_blur(img, 3.0));
  EXPECT_LT(blurred.size(), sharp.size() * 4 / 5);
}

TEST(Sift, MaxFeaturesKeepsStrongest) {
  const ImageF img = test_pattern(200, 150, 5);
  SiftConfig unlimited;
  SiftConfig capped;
  capped.max_features = 20;
  const auto all = sift_detect(img, unlimited);
  const auto top = sift_detect(img, capped);
  ASSERT_GT(all.size(), top.size());
  // Strongest response in the capped set should match the global max.
  float max_all = 0, max_top = 0;
  for (const auto& f : all) max_all = std::max(max_all, f.keypoint.response);
  for (const auto& f : top) max_top = std::max(max_top, f.keypoint.response);
  EXPECT_EQ(max_all, max_top);
}

TEST(Sift, DescriptorMatchesUnderNoise) {
  // The same scene with mild noise: descriptors should match their
  // counterparts far better than chance.
  const ImageF img = test_pattern(180, 140, 6);
  ImageF noisy = img;
  Rng rng(7);
  add_gaussian_noise(noisy, 3.0, rng);

  const auto fa = sift_detect(img);
  const auto fb = sift_detect(noisy);
  ASSERT_GT(fa.size(), 20u);
  ASSERT_GT(fb.size(), 20u);

  int good = 0, total = 0;
  for (const auto& a : fa) {
    // Find spatially-corresponding keypoint in b.
    const Feature* best = nullptr;
    for (const auto& b : fb) {
      if (std::abs(b.keypoint.x - a.keypoint.x) < 2 &&
          std::abs(b.keypoint.y - a.keypoint.y) < 2) {
        best = &b;
        break;
      }
    }
    if (!best) continue;
    ++total;
    // Distance to its counterpart should be small relative to the typical
    // random-pair distance (~2 * 512^2 for unit-norm-512 descriptors).
    if (descriptor_distance2(a.descriptor, best->descriptor) < 120'000) {
      ++good;
    }
  }
  ASSERT_GT(total, 10);
  EXPECT_GT(static_cast<double>(good) / total, 0.7);
}

TEST(Sift, UpsampledFirstOctaveFindsMore) {
  const ImageF img = test_pattern(120, 90, 8);
  SiftConfig normal;
  SiftConfig up;
  up.upsample_first_octave = true;
  EXPECT_GE(sift_detect_keypoints(img, up).size(),
            sift_detect_keypoints(img, normal).size());
}

TEST(Sift, ScaleSpaceShape) {
  const ImageF img = test_pattern(128, 128, 9);
  SiftConfig cfg;
  const auto ss = detail::build_scale_space(img, cfg);
  ASSERT_GE(ss.gaussians.size(), 2u);
  for (std::size_t o = 0; o < ss.gaussians.size(); ++o) {
    EXPECT_EQ(ss.gaussians[o].size(),
              static_cast<std::size_t>(cfg.intervals + 3));
    EXPECT_EQ(ss.dogs[o].size(), static_cast<std::size_t>(cfg.intervals + 2));
  }
  // Each octave halves resolution.
  EXPECT_EQ(ss.gaussians[1][0].width(), ss.gaussians[0][0].width() / 2);
}

TEST(Sift, DescriptorQuantizationBounds) {
  const ImageF img = test_pattern(160, 120, 10);
  for (const auto& f : sift_detect(img)) {
    // Normalized-clamped-renormalized u8 quantization: no element can
    // exceed 512 * 0.2 * renorm factor; 255 cap enforced.
    std::uint32_t norm2 = 0;
    for (auto v : f.descriptor) norm2 += v * v;
    // Unit-ish norm at 512 quantization: |d| should be near 512.
    EXPECT_GT(norm2, 100'000u);
    EXPECT_LT(norm2, 400'000u);
  }
}

TEST(Pca, NormalizedEigenvaluesDescending) {
  Rng rng(11);
  std::vector<Descriptor> descs;
  const ImageF img = test_pattern(200, 160, 12);
  for (const auto& f : sift_detect(img)) descs.push_back(f.descriptor);
  ASSERT_GE(descs.size(), 30u);
  const auto vals = pca_normalized_eigenvalues(descs);
  ASSERT_EQ(vals.size(), kDescriptorDims);
  EXPECT_DOUBLE_EQ(vals[0], 1.0);
  for (std::size_t i = 1; i < vals.size(); ++i) {
    EXPECT_LE(vals[i], vals[i - 1] + 1e-9);
    EXPECT_GE(vals[i], 0.0);
  }
}

TEST(Pca, FewDimensionsCaptureMostVariance) {
  // The paper's Fig. 6(b) claim: a small number of PCA dimensions explain
  // most covariance of real SIFT descriptors.
  std::vector<Descriptor> descs;
  for (std::uint64_t seed : {13, 14, 15}) {
    const ImageF img = test_pattern(240, 180, seed);
    for (const auto& f : sift_detect(img)) descs.push_back(f.descriptor);
  }
  ASSERT_GE(descs.size(), 50u);
  const auto vals = pca_normalized_eigenvalues(descs);
  EXPECT_GT(pca_variance_captured(vals, 32), 0.6);
  EXPECT_GT(pca_variance_captured(vals, 64),
            pca_variance_captured(vals, 16));
}

TEST(Pca, DimensionProfileSorted) {
  std::vector<std::pair<Descriptor, Descriptor>> pairs;
  Rng rng(14);
  for (int i = 0; i < 40; ++i) {
    Descriptor a{}, b{};
    for (std::size_t d = 0; d < kDescriptorDims; ++d) {
      a[d] = static_cast<std::uint8_t>(rng.uniform_u64(256));
      b[d] = static_cast<std::uint8_t>(rng.uniform_u64(256));
    }
    pairs.emplace_back(a, b);
  }
  const auto profile = dimension_difference_profile(pairs);
  ASSERT_EQ(profile.size(), kDescriptorDims);
  // Rank-0 (largest diff) must dominate the last rank.
  EXPECT_GT(profile.front().median, profile.back().median);
  for (std::size_t i = 1; i < profile.size(); ++i) {
    EXPECT_LE(profile[i].median, profile[i - 1].median + 1e-9);
  }
}

TEST(Draw, KeypointOverlayStaysInBounds) {
  ImageU8 base(64, 48, 1, 10);
  std::vector<Keypoint> kps{{-5, -5, 3, 0, 0, 0},
                            {63.9f, 47.9f, 10, 2.0f, 0, 0},
                            {32, 24, 4, 1.0f, 0, 0}};
  const ImageU8 out = draw_keypoints(base, kps);
  EXPECT_EQ(out.channels(), 3);
  EXPECT_EQ(out.width(), 64);
  // Center keypoint should have drawn green somewhere near (32,24).
  bool green = false;
  for (int y = 10; y < 40 && !green; ++y) {
    for (int x = 16; x < 48 && !green; ++x) {
      if (out(x, y, 1) == 255 && out(x, y, 0) == 0) green = true;
    }
  }
  EXPECT_TRUE(green);
}

TEST(Draw, LineEndpoints) {
  ImageU8 img(10, 10, 3, 0);
  draw_line(img, 1, 1, 8, 8, {255, 0, 0});
  EXPECT_EQ(img(1, 1, 0), 255);
  EXPECT_EQ(img(8, 8, 0), 255);
}

}  // namespace
}  // namespace vp
