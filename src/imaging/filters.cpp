#include "imaging/filters.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace vp {
namespace {

std::vector<float> make_gaussian_kernel(double sigma) {
  const int radius = std::max(1, static_cast<int>(std::ceil(3.0 * sigma)));
  std::vector<float> k(static_cast<std::size_t>(2 * radius + 1));
  double sum = 0.0;
  for (int i = -radius; i <= radius; ++i) {
    const double v = std::exp(-(i * i) / (2.0 * sigma * sigma));
    k[static_cast<std::size_t>(i + radius)] = static_cast<float>(v);
    sum += v;
  }
  for (auto& v : k) v = static_cast<float>(v / sum);
  return k;
}

// Kernel memo. The SIFT pyramid re-blurs with the same handful of sigmas on
// every frame; exp() + normalization per call is measurable there. Keyed by
// sigma quantized to 1e-6 (well below any meaningful sigma difference).
// Entries are never evicted: the working set is a few dozen kernels.
std::mutex g_kernel_mutex;
std::map<std::int64_t, std::unique_ptr<const std::vector<float>>>
    g_kernel_cache;

const std::vector<float>& cached_gaussian_kernel(double sigma) {
  const auto key = static_cast<std::int64_t>(std::llround(sigma * 1e6));
  std::lock_guard lock(g_kernel_mutex);
  auto& slot = g_kernel_cache[key];
  if (!slot) {
    slot = std::make_unique<const std::vector<float>>(
        make_gaussian_kernel(sigma));
  }
  return *slot;  // stable address: values are never erased or replaced
}

// --- Scalar reference ------------------------------------------------------
// Every other kernel must reproduce these loops bit for bit: each output
// starts at 0 (horizontal) or k[0] * row0 (vertical) and adds k[i] * p[i]
// for i = 0, 1, 2, ... in turn, one multiply and one add.

/// Horizontal tap sum with the source index clamped to [0, w).
float hblur_clamped(const float* s, int w, int x, const float* k,
                    int radius) {
  float acc = 0;
  for (int i = -radius; i <= radius; ++i) {
    const int xi = std::clamp(x + i, 0, w - 1);
    acc += k[i + radius] * s[xi];
  }
  return acc;
}

/// One row of the horizontal pass: clamped borders, raw pointer interior.
void hblur_row(const float* s, float* t, int w, const float* k, int radius) {
  const int lo = std::min(radius, w);
  const int hi = std::max(lo, w - radius);
  for (int x = 0; x < lo; ++x) t[x] = hblur_clamped(s, w, x, k, radius);
  const int taps = 2 * radius + 1;
  for (int x = lo; x < hi; ++x) {
    const float* p = s + (x - radius);
    float acc = 0;
    for (int i = 0; i < taps; ++i) acc += k[i] * p[i];
    t[x] = acc;
  }
  for (int x = hi; x < w; ++x) t[x] = hblur_clamped(s, w, x, k, radius);
}

/// One row of the vertical pass over the w x h horizontal-pass image
/// `tmp`: row-major accumulation over the taps so every memory access is
/// sequential. The row index clamp costs one clamp per tap per row (not
/// per pixel).
void vblur_row(const float* tmp, int w, int h, float* o, int y,
               const float* k, int radius) {
  const auto row = [&](int yi) {
    return tmp + static_cast<std::size_t>(std::clamp(yi, 0, h - 1)) * w;
  };
  {
    const float* r = row(y - radius);
    for (int x = 0; x < w; ++x) o[x] = k[0] * r[x];
  }
  const int taps = 2 * radius + 1;
  for (int i = 1; i < taps; ++i) {
    const float* r = row(y - radius + i);
    const float ki = k[i];
    for (int x = 0; x < w; ++x) o[x] += ki * r[x];
  }
}

// --- Vector kernels ----------------------------------------------------------
// One source, written with GCC/Clang vector extensions and templated on the
// vector type, compiled once per SIMD level: with 4-lane vectors at the
// baseline target (SSE2 on x86, NEON on ARM, their native width) and, on
// x86, with 8-lane vectors under target("avx2"). Lane j of a vector
// accumulates exactly the scalar reference's sequence for its pixel, so
// every variant is bit-identical to it; filters.cpp is compiled with
// -ffp-contract=off so no target may fuse a multiply into its add. Each
// step covers kStep pixels with kStep / lanes independent accumulators,
// enough to hide the add latency. Vectors stay local to one function: a
// 32-byte vector passed or returned by value from a baseline-target
// function changes the psABI (-Wpsabi).
#if VP_SIMD_BASELINE

typedef float F32x4 __attribute__((vector_size(16)));
#if VP_SIMD_AVX2
typedef float F32x8 __attribute__((vector_size(32)));
#endif

constexpr int kStep = 32;

/// out[x] = 0 + k[0]*in[x] + k[1]*in[x+1] + ... for x in [0, n): the
/// horizontal pass over a row padded by `radius` clamped pixels each side.
template <typename V>
inline __attribute__((always_inline)) void hconv_body(const float* in,
                                                      float* out, int n,
                                                      const float* k,
                                                      int taps) {
  constexpr int kLanes = sizeof(V) / sizeof(float);
  constexpr int kVecs = kStep / kLanes;
  int x = 0;
  for (; x + kStep <= n; x += kStep) {
    V acc[kVecs] = {};
    for (int i = 0; i < taps; ++i) {
#pragma GCC unroll 8
      for (int v = 0; v < kVecs; ++v) {
        V p;
        std::memcpy(&p, in + x + i + v * kLanes, sizeof p);
        acc[v] = acc[v] + k[i] * p;
      }
    }
    std::memcpy(out + x, acc, sizeof acc);
  }
  for (; x + kLanes <= n; x += kLanes) {
    V acc = {};
    for (int i = 0; i < taps; ++i) {
      V p;
      std::memcpy(&p, in + x + i, sizeof p);
      acc = acc + k[i] * p;
    }
    std::memcpy(out + x, &acc, sizeof acc);
  }
  for (; x < n; ++x) {
    float acc = 0;
    for (int i = 0; i < taps; ++i) acc += k[i] * in[x + i];
    out[x] = acc;
  }
}

/// out[x] = k[0]*rows[0][x] + k[1]*rows[1][x] + ... for x in [0, n): the
/// vertical pass, `rows` holding the (clamped) source row of each tap.
template <typename V>
inline __attribute__((always_inline)) void vconv_body(
    const float* const* rows, float* out, int n, const float* k, int taps) {
  constexpr int kLanes = sizeof(V) / sizeof(float);
  constexpr int kVecs = kStep / kLanes;
  int x = 0;
  for (; x + kStep <= n; x += kStep) {
    V acc[kVecs];
#pragma GCC unroll 8
    for (int v = 0; v < kVecs; ++v) {
      V r;
      std::memcpy(&r, rows[0] + x + v * kLanes, sizeof r);
      acc[v] = k[0] * r;
    }
    for (int i = 1; i < taps; ++i) {
#pragma GCC unroll 8
      for (int v = 0; v < kVecs; ++v) {
        V r;
        std::memcpy(&r, rows[i] + x + v * kLanes, sizeof r);
        acc[v] = acc[v] + k[i] * r;
      }
    }
    std::memcpy(out + x, acc, sizeof acc);
  }
  for (; x + kLanes <= n; x += kLanes) {
    V r;
    std::memcpy(&r, rows[0] + x, sizeof r);
    V acc = k[0] * r;
    for (int i = 1; i < taps; ++i) {
      std::memcpy(&r, rows[i] + x, sizeof r);
      acc = acc + k[i] * r;
    }
    std::memcpy(out + x, &acc, sizeof acc);
  }
  for (; x < n; ++x) {
    float acc = k[0] * rows[0][x];
    for (int i = 1; i < taps; ++i) acc += k[i] * rows[i][x];
    out[x] = acc;
  }
}

void hconv_vector(const float* in, float* out, int n, const float* k,
                  int taps) {
  hconv_body<F32x4>(in, out, n, k, taps);
}
void vconv_vector(const float* const* rows, float* out, int n,
                  const float* k, int taps) {
  vconv_body<F32x4>(rows, out, n, k, taps);
}

#if VP_SIMD_AVX2
__attribute__((target("avx2"))) void hconv_avx2(const float* in, float* out,
                                                int n, const float* k,
                                                int taps) {
  hconv_body<F32x8>(in, out, n, k, taps);
}
__attribute__((target("avx2"))) void vconv_avx2(const float* const* rows,
                                                float* out, int n,
                                                const float* k, int taps) {
  vconv_body<F32x8>(rows, out, n, k, taps);
}
#endif  // VP_SIMD_AVX2

#endif  // VP_SIMD_BASELINE

/// Run fn(y0, y1) over bands of rows covering [0, h), on the pool when
/// given. A band lets a task set up its row buffers once.
void for_each_band(int h, ThreadPool* pool,
                   const std::function<void(int, int)>& fn) {
  constexpr int kBandRows = 8;
  const int bands = (h + kBandRows - 1) / kBandRows;
  const auto band = [&](std::size_t b) {
    const int y0 = static_cast<int>(b) * kBandRows;
    fn(y0, std::min(h, y0 + kBandRows));
  };
  if (pool != nullptr) {
    pool->parallel_for(static_cast<std::size_t>(bands), band);
  } else {
    for (int b = 0; b < bands; ++b) band(static_cast<std::size_t>(b));
  }
}

// --- Row passes, one set per level -----------------------------------------

void hpass_scalar(const ImageF& src, float* tmp, int y0, int y1,
                  const float* k, int radius) {
  const int w = src.width();
  for (int y = y0; y < y1; ++y) {
    hblur_row(src.row(y), tmp + static_cast<std::size_t>(y) * w, w, k,
              radius);
  }
}

void vpass_scalar(const float* tmp, ImageF& dst, int y0, int y1,
                  const float* k, int radius) {
  for (int y = y0; y < y1; ++y) {
    vblur_row(tmp, dst.width(), dst.height(), dst.row(y), y, k, radius);
  }
}

#if VP_SIMD_BASELINE

using HConvFn = void (*)(const float* in, float* out, int n, const float* k,
                         int taps);
using VConvFn = void (*)(const float* const* rows, float* out, int n,
                         const float* k, int taps);

template <HConvFn Conv>
void hpass_vector(const ImageF& src, float* tmp, int y0, int y1,
                  const float* k, int radius) {
  const int w = src.width();
  // The row padded by `radius` copies of its edge pixels each side, so
  // the kernel's clamp-free taps read what hblur_clamped reads.
  std::vector<float> padded(static_cast<std::size_t>(w + 2 * radius));
  for (int y = y0; y < y1; ++y) {
    const float* s = src.row(y);
    std::fill_n(padded.begin(), radius, s[0]);
    std::copy(s, s + w, padded.begin() + radius);
    std::fill_n(padded.begin() + radius + w, radius, s[w - 1]);
    Conv(padded.data(), tmp + static_cast<std::size_t>(y) * w, w, k,
         2 * radius + 1);
  }
}

template <VConvFn Conv>
void vpass_vector(const float* tmp, ImageF& dst, int y0, int y1,
                  const float* k, int radius) {
  const int w = dst.width();
  const int h = dst.height();
  const int taps = 2 * radius + 1;
  std::vector<const float*> rows(static_cast<std::size_t>(taps));
  for (int y = y0; y < y1; ++y) {
    for (int i = 0; i < taps; ++i) {
      rows[static_cast<std::size_t>(i)] =
          tmp + static_cast<std::size_t>(std::clamp(y - radius + i, 0, h - 1)) *
                    w;
    }
    Conv(rows.data(), dst.row(y), w, k, taps);
  }
}

#endif  // VP_SIMD_BASELINE

}  // namespace

struct BlurRowPasses {
  /// Horizontal pass of rows [y0, y1) of src into tmp (src's shape).
  void (*h)(const ImageF& src, float* tmp, int y0, int y1, const float* k,
            int radius);
  /// Vertical pass of rows [y0, y1) of tmp (dst's shape) into dst.
  void (*v)(const float* tmp, ImageF& dst, int y0, int y1, const float* k,
            int radius);
};

namespace {

constexpr BlurRowPasses kScalarPasses{&hpass_scalar, &vpass_scalar};
#if VP_SIMD_BASELINE
constexpr BlurRowPasses kBaselinePasses{&hpass_vector<&hconv_vector>,
                                        &vpass_vector<&vconv_vector>};
#endif
#if VP_SIMD_AVX2
constexpr BlurRowPasses kAvx2Passes{&hpass_vector<&hconv_avx2>,
                                    &vpass_vector<&vconv_avx2>};
#endif

// Selected once before main(); each blur pays one relaxed load.
SimdDispatch<const BlurRowPasses*> g_blur_kernels{
    &kScalarPasses,
#if VP_SIMD_BASELINE
    &kBaselinePasses,
#endif
#if VP_SIMD_AVX2
    &kAvx2Passes,
#endif
};

}  // namespace

std::size_t gaussian_kernel_cache_size() {
  std::lock_guard lock(g_kernel_mutex);
  return g_kernel_cache.size();
}

SimdDispatch<const BlurRowPasses*>& blur_kernels() noexcept {
  return g_blur_kernels;
}

void gaussian_blur_into(const ImageF& src, double sigma, ImageF& dst,
                        std::vector<float>& scratch, ThreadPool* pool) {
  VP_REQUIRE(src.channels() == 1, "gaussian_blur expects grayscale");
  VP_REQUIRE(&dst != &src, "gaussian_blur_into: dst aliases src");
  if (sigma <= 0.0 || src.empty()) {
    dst = src;
    return;
  }
  const auto& k = cached_gaussian_kernel(sigma);
  const int radius = static_cast<int>(k.size() / 2);
  const float* kp = k.data();
  const int w = src.width();
  const int h = src.height();
  if (dst.width() != w || dst.height() != h || dst.channels() != 1) {
    dst = ImageF(w, h);
  }
  if (scratch.size() < src.pixel_count()) scratch.resize(src.pixel_count());
  float* tmp = scratch.data();

  const BlurRowPasses& passes = *g_blur_kernels.fn();
  for_each_band(h, pool, [&](int y0, int y1) {
    passes.h(src, tmp, y0, y1, kp, radius);
  });
  for_each_band(h, pool, [&](int y0, int y1) {
    passes.v(tmp, dst, y0, y1, kp, radius);
  });
}

ImageF gaussian_blur(const ImageF& src, double sigma, ThreadPool* pool) {
  ImageF out;
  std::vector<float> scratch;
  gaussian_blur_into(src, sigma, out, scratch, pool);
  return out;
}

ImageF downsample_2x(const ImageF& src) {
  const int w = std::max(1, src.width() / 2);
  const int h = std::max(1, src.height() / 2);
  ImageF out(w, h);
  for (int y = 0; y < h; ++y) {
    const float* s = src.row(2 * y);
    float* o = out.row(y);
    for (int x = 0; x < w; ++x) o[x] = s[2 * x];
  }
  return out;
}

ImageF resize_bilinear(const ImageF& src, int new_w, int new_h) {
  VP_REQUIRE(new_w > 0 && new_h > 0, "resize target must be positive");
  VP_REQUIRE(!src.empty(), "resize of empty image");
  ImageF out(new_w, new_h);
  const double sx = static_cast<double>(src.width()) / new_w;
  const double sy = static_cast<double>(src.height()) / new_h;
  for (int y = 0; y < new_h; ++y) {
    const double fy = (y + 0.5) * sy - 0.5;
    const int y0 = static_cast<int>(std::floor(fy));
    const float wy = static_cast<float>(fy - y0);
    for (int x = 0; x < new_w; ++x) {
      const double fx = (x + 0.5) * sx - 0.5;
      const int x0 = static_cast<int>(std::floor(fx));
      const float wx = static_cast<float>(fx - x0);
      const float p00 = src.at_clamped(x0, y0);
      const float p10 = src.at_clamped(x0 + 1, y0);
      const float p01 = src.at_clamped(x0, y0 + 1);
      const float p11 = src.at_clamped(x0 + 1, y0 + 1);
      out(x, y) = (1 - wy) * ((1 - wx) * p00 + wx * p10) +
                  wy * ((1 - wx) * p01 + wx * p11);
    }
  }
  return out;
}

ImageF subtract(const ImageF& a, const ImageF& b) {
  VP_REQUIRE(a.width() == b.width() && a.height() == b.height(),
             "subtract: dimension mismatch");
  ImageF out(a.width(), a.height());
  const auto pa = a.pixels();
  const auto pb = b.pixels();
  auto po = out.pixels();
  for (std::size_t i = 0; i < pa.size(); ++i) po[i] = pa[i] - pb[i];
  return out;
}

void gradients(const ImageF& src, ImageF& dx, ImageF& dy) {
  const int w = src.width();
  const int h = src.height();
  dx = ImageF(w, h);
  dy = ImageF(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      dx(x, y) = 0.5f * (src.at_clamped(x + 1, y) - src.at_clamped(x - 1, y));
      dy(x, y) = 0.5f * (src.at_clamped(x, y + 1) - src.at_clamped(x, y - 1));
    }
  }
}

double variance_of_laplacian(const ImageF& src) {
  if (src.width() < 3 || src.height() < 3) return 0.0;
  double sum = 0, sum2 = 0;
  const std::size_t n =
      static_cast<std::size_t>(src.width() - 2) * (src.height() - 2);
  for (int y = 1; y < src.height() - 1; ++y) {
    for (int x = 1; x < src.width() - 1; ++x) {
      const double lap = src(x - 1, y) + src(x + 1, y) + src(x, y - 1) +
                         src(x, y + 1) - 4.0 * src(x, y);
      sum += lap;
      sum2 += lap * lap;
    }
  }
  const double m = sum / static_cast<double>(n);
  return sum2 / static_cast<double>(n) - m * m;
}

ImageF motion_blur(const ImageF& src, double dx, double dy, double length) {
  if (length < 1.0) return src;
  const double norm = std::hypot(dx, dy);
  if (norm < 1e-9) return src;
  const double ux = dx / norm;
  const double uy = dy / norm;
  const int taps = std::max(2, static_cast<int>(std::lround(length)));
  ImageF out(src.width(), src.height());
  for (int y = 0; y < src.height(); ++y) {
    for (int x = 0; x < src.width(); ++x) {
      float acc = 0;
      for (int t = 0; t < taps; ++t) {
        const double s = (t - (taps - 1) / 2.0);
        acc += src.at_clamped(x + static_cast<int>(std::lround(ux * s)),
                              y + static_cast<int>(std::lround(uy * s)));
      }
      out(x, y) = acc / static_cast<float>(taps);
    }
  }
  return out;
}

void add_gaussian_noise(ImageF& img, double stddev, Rng& rng) {
  if (stddev <= 0) return;
  for (auto& p : img.pixels()) {
    p = std::clamp(p + static_cast<float>(rng.gaussian(0.0, stddev)), 0.0f,
                   255.0f);
  }
}

}  // namespace vp
