// SIFT keypoint detector and descriptor (Lowe 1999/2004), from scratch.
//
// Pipeline: Gaussian scale-space pyramid -> difference-of-Gaussians ->
// 3x3x3 extrema detection -> quadratic subpixel refinement with contrast
// and edge rejection -> orientation histogram (36 bins, 0.8-peak splitting)
// -> 4x4x8 gradient descriptor with trilinear binning, normalized, clamped
// at 0.2, renormalized, and quantized to unsigned bytes — the exact
// descriptor layout the paper's LSH/Bloom construction expects.
#pragma once

#include <vector>

#include "features/keypoint.hpp"
#include "imaging/filters.hpp"
#include "imaging/image.hpp"

namespace vp {

class ThreadPool;

struct SiftConfig {
  int intervals = 3;              ///< scales per octave (Lowe's s)
  double sigma = 1.6;             ///< base scale of each octave
  double initial_blur = 0.5;      ///< assumed blur of the input image
  double contrast_threshold = 0.03;///< on DoG values normalized to [0,1]
  double edge_threshold = 10.0;   ///< principal curvature ratio limit
  int max_octaves = 5;            ///< hard cap (min image side also caps)
  int border = 5;                 ///< discard extrema this close to an edge
  int max_features = 0;           ///< 0 = unlimited, else strongest-N kept
  bool upsample_first_octave = false;///< Lowe's -1 octave (2x upsample)
  /// Optional worker pool (not owned). Parallelizes pyramid blurs (by
  /// bands of rows), DoG subtraction (by interval), extrema scanning (by
  /// row block) and orientation + descriptor computation (by keypoint).
  /// Output is bit-identical to the sequential path for any pool size:
  /// every parallel stage writes index-addressed slots that are merged in
  /// deterministic order. Independently of the pool, the blur and the
  /// extrema scan run the active BlurKernel (imaging/filters.hpp), whose
  /// every variant is bit-identical to the scalar reference.
  ThreadPool* pool = nullptr;
};

/// Detect keypoints and compute descriptors on a grayscale image with
/// pixel values in [0, 255].
std::vector<Feature> sift_detect(const ImageF& image,
                                 const SiftConfig& config = {});

/// Detection stage only (no descriptors) — used by tests and by benches
/// that count keypoints (Fig. 3).
std::vector<Keypoint> sift_detect_keypoints(const ImageF& image,
                                            const SiftConfig& config = {});

namespace detail {

/// Gaussian pyramid for one run: octaves x (intervals + 3) images.
struct ScaleSpace {
  std::vector<std::vector<ImageF>> gaussians;  ///< [octave][interval]
  std::vector<std::vector<ImageF>> dogs;       ///< [octave][interval]
  double base_sigma = 1.6;
  int intervals = 3;
  bool upsampled = false;
};

ScaleSpace build_scale_space(const ImageF& image, const SiftConfig& config);

/// Compute the descriptor for a refined keypoint against its Gaussian
/// image. Exposed for unit tests of descriptor invariances.
Descriptor compute_descriptor(const ImageF& gaussian, float x, float y,
                              float scale_in_octave, float orientation);

/// Append to `xs`, ascending, every column x in [border, width - border)
/// of row y whose DoG value v = cur(x, y) passes the preliminary threshold
/// (not |v| <= prelim_thresh, compared in double) and is a strict maximum
/// or minimum of its 26 neighbours in prev/cur/next. `kernel` picks the
/// scan as it picks the blur: kScalar the reference loop, kVector the
/// 4-lane baseline scan, kAvx2 the 8-lane one (an unavailable kernel falls
/// back to the reference). All return the same columns.
void row_extrema(const ImageF& prev, const ImageF& cur, const ImageF& next,
                 int y, int border, double prelim_thresh, BlurKernel kernel,
                 std::vector<int>& xs);

}  // namespace detail

}  // namespace vp
