#include "features/brief.hpp"

#include <bit>
#include <cmath>

#include "features/sift.hpp"
#include "imaging/filters.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace vp {
namespace {

struct PatternPair {
  float ax, ay, bx, by;  ///< offsets in unit-patch coordinates
};

/// The fixed comparison pattern: isotropic Gaussian-distributed pairs,
/// generated once per seed (ORB uses a learned pattern; a Gaussian pattern
/// is the classic BRIEF choice and is descriptor-compatible).
std::vector<PatternPair> make_pattern(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<PatternPair> pattern;
  pattern.reserve(kBinaryDescriptorBits);
  for (std::size_t i = 0; i < kBinaryDescriptorBits; ++i) {
    PatternPair p;
    p.ax = static_cast<float>(rng.gaussian(0, 0.33));
    p.ay = static_cast<float>(rng.gaussian(0, 0.33));
    p.bx = static_cast<float>(rng.gaussian(0, 0.33));
    p.by = static_cast<float>(rng.gaussian(0, 0.33));
    pattern.push_back(p);
  }
  return pattern;
}

}  // namespace

unsigned hamming_distance(const BinaryDescriptor& a,
                          const BinaryDescriptor& b) noexcept {
  unsigned bits = 0;
  for (std::size_t w = 0; w < a.size(); ++w) {
    bits += static_cast<unsigned>(std::popcount(a[w] ^ b[w]));
  }
  return bits;
}

std::vector<BinaryFeature> brief_describe(const ImageF& image,
                                          std::span<const Keypoint> keypoints,
                                          const BriefConfig& cfg) {
  VP_REQUIRE(!image.empty(), "brief_describe: empty image");
  const ImageF smooth = gaussian_blur(image, cfg.smoothing_sigma);
  const auto pattern = make_pattern(cfg.pattern_seed);

  std::vector<BinaryFeature> out;
  out.reserve(keypoints.size());
  for (const auto& kp : keypoints) {
    const double radius =
        cfg.patch_scale * std::max(1.0f, kp.scale);
    const double c = std::cos(kp.orientation);
    const double s = std::sin(kp.orientation);

    BinaryFeature f;
    f.keypoint = kp;
    for (std::size_t bit = 0; bit < pattern.size(); ++bit) {
      const auto& p = pattern[bit];
      // Steer the pattern by the keypoint orientation, scale by radius.
      const double ax = kp.x + radius * (c * p.ax - s * p.ay);
      const double ay = kp.y + radius * (s * p.ax + c * p.ay);
      const double bx = kp.x + radius * (c * p.bx - s * p.by);
      const double by = kp.y + radius * (s * p.bx + c * p.by);
      const float va = smooth.at_clamped(static_cast<int>(std::lround(ax)),
                                         static_cast<int>(std::lround(ay)));
      const float vb = smooth.at_clamped(static_cast<int>(std::lround(bx)),
                                         static_cast<int>(std::lround(by)));
      if (va < vb) {
        f.descriptor[bit / 64] |= (1ULL << (bit % 64));
      }
    }
    out.push_back(f);
  }
  return out;
}

std::vector<BinaryFeature> orb_like_detect(const ImageF& image,
                                           const SiftConfig& sift_config,
                                           const BriefConfig& brief_config) {
  const auto keypoints = sift_detect_keypoints(image, sift_config);
  return brief_describe(image, keypoints, brief_config);
}

}  // namespace vp
