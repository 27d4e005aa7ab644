// Rotated-BRIEF binary descriptors (ORB-style).
//
// Paper §5: "One can use any keypoint detection algorithm with another
// integer keypoint description algorithm without modification in the
// system pipeline." This module provides that alternate descriptor: the
// SIFT detector's keypoints described by 256 steered intensity
// comparisons, matched under Hamming distance. hashing/binary_oracle.hpp
// supplies the matching bit-sampling LSH uniqueness oracle.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "features/keypoint.hpp"
#include "imaging/image.hpp"

namespace vp {

inline constexpr std::size_t kBinaryDescriptorBits = 256;

/// 256-bit binary descriptor, 4 x u64.
using BinaryDescriptor = std::array<std::uint64_t, 4>;

/// Hamming distance between binary descriptors: std::popcount over the
/// four xor-ed words.
unsigned hamming_distance(const BinaryDescriptor& a,
                          const BinaryDescriptor& b) noexcept;

/// Keypoint + binary descriptor.
struct BinaryFeature {
  Keypoint keypoint;
  BinaryDescriptor descriptor{};
};

struct BriefConfig {
  double patch_scale = 7.5;   ///< sampling radius in units of keypoint scale
  double smoothing_sigma = 2.0;  ///< pre-smoothing (BRIEF is noise-sensitive)
  std::uint64_t pattern_seed = 0xB51Fu;  ///< fixed comparison pattern
};

/// Describe keypoints on a grayscale image. The comparison pattern is
/// deterministic from the seed and steered by each keypoint's orientation,
/// giving rotation-robust descriptors like ORB's rBRIEF.
std::vector<BinaryFeature> brief_describe(const ImageF& image,
                                          std::span<const Keypoint> keypoints,
                                          const BriefConfig& config = {});

/// Convenience: SIFT detection + BRIEF description.
std::vector<BinaryFeature> orb_like_detect(const ImageF& image,
                                           const struct SiftConfig& sift_config,
                                           const BriefConfig& brief_config = {});

}  // namespace vp
