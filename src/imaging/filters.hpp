// Spatial filters: separable Gaussian blur, resampling, gradients, and the
// variance-of-Laplacian blur metric the client app uses to gate frames.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "imaging/image.hpp"

namespace vp {

class ThreadPool;

/// Row kernels of the separable Gaussian blur. Every variant sums each
/// output's taps in the same order with a separate multiply and add, so
/// every variant is bit-identical to the scalar reference.
enum class BlurKernel : std::uint8_t {
  kScalar = 0,  ///< the reference loops; the only one under VP_DISABLE_SIMD
  kVector = 1,  ///< 4-lane vectors at the baseline target (SSE2 / NEON)
  kAvx2 = 2,    ///< the same source with 8-lane vectors under AVX2 (x86)
};

/// "scalar", "sse2" / "neon" / "vector" (by target), or "avx2".
std::string_view blur_kernel_name(BlurKernel kernel) noexcept;

/// Kernels compiled into this binary, fastest last; always has kScalar.
std::span<const BlurKernel> compiled_blur_kernels() noexcept;

/// The kernel gaussian_blur runs: the fastest compiled kernel the CPU
/// supports, picked once before main(). The SIFT DoG extrema scan follows
/// it too: kScalar runs its scalar reference, any other its vector scan.
BlurKernel active_blur_kernel() noexcept;

/// Pin the active kernel (tests and benches compare against kScalar).
/// Returns false, changing nothing, when `kernel` is not compiled in or
/// the CPU lacks it. Not safe concurrently with blurs in flight.
bool set_blur_kernel(BlurKernel kernel) noexcept;

/// Separable Gaussian blur with kernel radius ceil(3*sigma). sigma <= 0
/// returns a copy. When `pool` is non-null the horizontal and vertical
/// passes are split by rows across it; the output is bit-identical to the
/// sequential path for any pool size (each row is computed independently
/// by one task) and for every BlurKernel.
ImageF gaussian_blur(const ImageF& src, double sigma,
                     ThreadPool* pool = nullptr);

/// gaussian_blur into `dst` (reallocated only when its shape differs from
/// src's; must not alias src), with the horizontal pass written to
/// `scratch`, which grows to src's pixel count and is kept so a caller
/// blurring many images (the SIFT pyramid) allocates it once. sigma <= 0
/// copies src.
void gaussian_blur_into(const ImageF& src, double sigma, ImageF& dst,
                        std::vector<float>& scratch,
                        ThreadPool* pool = nullptr);

/// Number of distinct Gaussian kernels currently memoized (kernels are
/// cached across calls keyed by quantized sigma; exposed for tests).
std::size_t gaussian_kernel_cache_size();

/// Downsample by exactly 2x (nearest, as in Lowe's SIFT octave step).
/// Odd trailing row/column is dropped: out(x, y) = src(2x, 2y).
ImageF downsample_2x(const ImageF& src);

/// Bilinear resize to (new_w, new_h).
ImageF resize_bilinear(const ImageF& src, int new_w, int new_h);

/// Per-pixel subtraction a - b (same dimensions required).
ImageF subtract(const ImageF& a, const ImageF& b);

/// Central-difference gradients; writes dx and dy images.
void gradients(const ImageF& src, ImageF& dx, ImageF& dy);

/// Variance of the 3x3 Laplacian response. Low values indicate blur; the
/// client discards frames below a threshold (paper §3, "quick check on each
/// frame to detect blur").
double variance_of_laplacian(const ImageF& src);

/// Simulated motion blur: box blur along direction (dx, dy) of given pixel
/// length. Used by the scene renderer to model camera shake.
ImageF motion_blur(const ImageF& src, double dx, double dy, double length);

/// Additive Gaussian sensor noise, clamped to [0,255].
void add_gaussian_noise(ImageF& img, double stddev, class Rng& rng);

}  // namespace vp
