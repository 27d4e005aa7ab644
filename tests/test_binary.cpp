// Tests for the paper-§5 extension: rotated-BRIEF binary descriptors and
// the bit-sampling-LSH binary uniqueness oracle.
#include <gtest/gtest.h>

#include "features/brief.hpp"
#include "features/sift.hpp"
#include "hashing/binary_oracle.hpp"
#include "imaging/filters.hpp"
#include "scene/texture.hpp"
#include "util/rng.hpp"

namespace vp {
namespace {

BinaryDescriptor random_binary(Rng& rng) {
  BinaryDescriptor d;
  for (auto& w : d) w = rng.next_u64();
  return d;
}

BinaryDescriptor flip_bits(const BinaryDescriptor& d, int n, Rng& rng) {
  BinaryDescriptor out = d;
  for (int i = 0; i < n; ++i) {
    const auto bit = rng.uniform_u64(kBinaryDescriptorBits);
    out[bit / 64] ^= (1ULL << (bit % 64));
  }
  return out;
}

TEST(Hamming, DistanceBasics) {
  BinaryDescriptor a{}, b{};
  EXPECT_EQ(hamming_distance(a, b), 0u);
  b[0] = 0b1011;
  EXPECT_EQ(hamming_distance(a, b), 3u);
  b[3] = ~0ULL;
  EXPECT_EQ(hamming_distance(a, b), 67u);
  EXPECT_EQ(hamming_distance(b, a), 67u);

  // All ones against zero, and one bit in each word (the top bit of the
  // last word included).
  const BinaryDescriptor zeros{};
  const BinaryDescriptor ones{~0ULL, ~0ULL, ~0ULL, ~0ULL};
  EXPECT_EQ(hamming_distance(ones, zeros), 256u);
  EXPECT_EQ(hamming_distance(ones, ones), 0u);
  for (std::size_t w = 0; w < zeros.size(); ++w) {
    for (const int bit : {0, 31, 63}) {
      BinaryDescriptor one_bit{};
      one_bit[w] = 1ULL << bit;
      EXPECT_EQ(hamming_distance(one_bit, zeros), 1u);
      EXPECT_EQ(hamming_distance(one_bit, ones), 255u);
    }
  }

  // Random words against a bit-at-a-time count.
  Rng rng(0xbadb17ul);
  for (int i = 0; i < 1000; ++i) {
    const BinaryDescriptor x = random_binary(rng);
    const BinaryDescriptor y = random_binary(rng);
    unsigned naive = 0;
    for (std::size_t w = 0; w < x.size(); ++w) {
      for (int bit = 0; bit < 64; ++bit) naive += ((x[w] ^ y[w]) >> bit) & 1u;
    }
    EXPECT_EQ(hamming_distance(x, y), naive);
  }
}

TEST(Brief, DescribesAllKeypoints) {
  Rng rng(1);
  const ImageF img = painting_texture(200, 150, rng);
  const auto kps = sift_detect_keypoints(img);
  ASSERT_GT(kps.size(), 10u);
  const auto features = brief_describe(img, kps);
  EXPECT_EQ(features.size(), kps.size());
}

TEST(Brief, Deterministic) {
  Rng rng(2);
  const ImageF img = painting_texture(160, 120, rng);
  const auto kps = sift_detect_keypoints(img);
  const auto a = brief_describe(img, kps);
  const auto b = brief_describe(img, kps);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].descriptor, b[i].descriptor);
  }
}

TEST(Brief, DescriptorsAreInformative) {
  // Bits should be roughly balanced across a population (not all 0/1).
  Rng rng(3);
  const ImageF img = painting_texture(240, 180, rng);
  const auto features = orb_like_detect(img, SiftConfig{});
  ASSERT_GT(features.size(), 20u);
  std::size_t ones = 0;
  for (const auto& f : features) {
    for (auto w : f.descriptor) ones += static_cast<std::size_t>(std::popcount(w));
  }
  const double frac = static_cast<double>(ones) /
                      (static_cast<double>(features.size()) * kBinaryDescriptorBits);
  EXPECT_GT(frac, 0.25);
  EXPECT_LT(frac, 0.75);
}

TEST(Brief, RobustToNoiseMatchesCounterpart) {
  Rng rng(4);
  const ImageF img = painting_texture(200, 160, rng);
  ImageF noisy = img;
  add_gaussian_noise(noisy, 2.0, rng);
  const auto fa = orb_like_detect(img, SiftConfig{});
  const auto fb = orb_like_detect(noisy, SiftConfig{});
  int good = 0, total = 0;
  for (const auto& a : fa) {
    for (const auto& b : fb) {
      if (std::abs(a.keypoint.x - b.keypoint.x) < 2 &&
          std::abs(a.keypoint.y - b.keypoint.y) < 2 &&
          std::abs(a.keypoint.orientation - b.keypoint.orientation) < 0.3) {
        ++total;
        // Random pairs average 128 bits apart; counterparts must be close.
        if (hamming_distance(a.descriptor, b.descriptor) < 70) ++good;
        break;
      }
    }
  }
  ASSERT_GT(total, 10);
  EXPECT_GT(static_cast<double>(good) / total, 0.7);
}

BinaryOracleConfig small_config() {
  BinaryOracleConfig cfg;
  cfg.capacity = 20'000;
  return cfg;
}

TEST(BinaryOracle, UnseenScoresZero) {
  BinaryUniquenessOracle oracle(small_config());
  Rng rng(5);
  EXPECT_EQ(oracle.count(random_binary(rng)), 0u);
}

TEST(BinaryOracle, RepeatedInsertCounts) {
  BinaryUniquenessOracle oracle(small_config());
  Rng rng(6);
  const BinaryDescriptor d = random_binary(rng);
  for (int i = 0; i < 6; ++i) oracle.insert(d);
  EXPECT_GE(oracle.count(d), 5u);
  EXPECT_LE(oracle.count(d), 7u);
}

TEST(BinaryOracle, NearbyDescriptorShares) {
  BinaryUniquenessOracle oracle(small_config());
  Rng rng(7);
  const BinaryDescriptor d = random_binary(rng);
  for (int i = 0; i < 12; ++i) oracle.insert(flip_bits(d, 3, rng));
  // A probe within a few bits should read a substantial count.
  EXPECT_GE(oracle.count(flip_bits(d, 3, rng)), 4u);
}

TEST(BinaryOracle, CommonOutranksUnique) {
  BinaryUniquenessOracle oracle(small_config());
  Rng rng(8);
  const BinaryDescriptor common = random_binary(rng);
  const BinaryDescriptor unique = random_binary(rng);
  for (int i = 0; i < 40; ++i) oracle.insert(flip_bits(common, 2, rng));
  oracle.insert(unique);
  EXPECT_GT(oracle.count(common), oracle.count(unique) + 5);
}

TEST(BinaryOracle, MultiprobeHelps) {
  BinaryOracleConfig with = small_config();
  BinaryOracleConfig without = small_config();
  without.multiprobe = false;
  BinaryUniquenessOracle a(with), b(without);
  Rng rng(9);
  const BinaryDescriptor base = random_binary(rng);
  for (int i = 0; i < 15; ++i) {
    const auto d = flip_bits(base, 4, rng);
    a.insert(d);
    b.insert(d);
  }
  int hits_with = 0, hits_without = 0;
  for (int i = 0; i < 40; ++i) {
    const auto q = flip_bits(base, 4, rng);
    hits_with += a.count(q) > 0;
    hits_without += b.count(q) > 0;
  }
  EXPECT_GE(hits_with, hits_without);
}

TEST(BinaryOracle, EndToEndWithBriefFeatures) {
  // The §5 pipeline swap: same detector, binary description, binary
  // oracle; repeated scene content must outrank unique content.
  Rng rng(10);
  const ImageF unique_img = painting_texture(200, 150, rng);
  const ImageF common_img = checkerboard_texture(200, 150, 20, 120, 180, rng);

  const auto unique_feats = orb_like_detect(unique_img, SiftConfig{});
  const auto common_feats = orb_like_detect(common_img, SiftConfig{});
  ASSERT_GT(unique_feats.size(), 5u);
  ASSERT_GT(common_feats.size(), 5u);

  BinaryUniquenessOracle oracle(small_config());
  // "Wardrive" the checkerboard 20 times (repeated floor tiles across the
  // building) and the painting once.
  for (int rep = 0; rep < 20; ++rep) {
    for (const auto& f : common_feats) oracle.insert(f.descriptor);
  }
  for (const auto& f : unique_feats) oracle.insert(f.descriptor);

  double common_score = 0, unique_score = 0;
  for (const auto& f : common_feats) common_score += oracle.count(f.descriptor);
  for (const auto& f : unique_feats) unique_score += oracle.count(f.descriptor);
  common_score /= static_cast<double>(common_feats.size());
  unique_score /= static_cast<double>(unique_feats.size());
  EXPECT_GT(common_score, unique_score * 2);
}

}  // namespace
}  // namespace vp
