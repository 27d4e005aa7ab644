#include "features/sift.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numbers>
#include <optional>

#include "imaging/filters.hpp"
#include "obs/trace.hpp"
#include "util/cpu.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace vp {
namespace {

/// Run fn(i) for i in [0, n) on the pool when one is configured. Every
/// parallel stage in this file writes results into index-addressed slots,
/// so scheduling order never affects output.
void run_indexed(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr) {
    pool->parallel_for(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

}  // namespace

namespace detail {
namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

// Pixel values are in [0,255]; Lowe's thresholds are stated for [0,1].
constexpr double kValueScale = 255.0;

int octave_count(int width, int height, const SiftConfig& cfg) {
  const int min_side = std::min(width, height);
  int n = 0;
  int side = min_side;
  while (side >= 2 * cfg.border + 8 && n < cfg.max_octaves) {
    ++n;
    side /= 2;
  }
  return std::max(1, n);
}

/// Solve the 3x3 system H * x = -g via Gaussian elimination with partial
/// pivoting. Returns false when H is (near-)singular.
bool solve_3x3(double h[3][3], const double g[3], double x[3]) {
  double a[3][4] = {{h[0][0], h[0][1], h[0][2], -g[0]},
                    {h[1][0], h[1][1], h[1][2], -g[1]},
                    {h[2][0], h[2][1], h[2][2], -g[2]}};
  for (int col = 0; col < 3; ++col) {
    int pivot = col;
    for (int r = col + 1; r < 3; ++r) {
      if (std::abs(a[r][col]) > std::abs(a[pivot][col])) pivot = r;
    }
    if (std::abs(a[pivot][col]) < 1e-12) return false;
    if (pivot != col) std::swap(a[pivot], a[col]);
    for (int r = 0; r < 3; ++r) {
      if (r == col) continue;
      const double f = a[r][col] / a[col][col];
      for (int c = col; c < 4; ++c) a[r][c] -= f * a[col][c];
    }
  }
  for (int i = 0; i < 3; ++i) x[i] = a[i][3] / a[i][i];
  return true;
}

struct RefinedExtremum {
  float x_octv = 0;        ///< refined x within the octave's image
  float y_octv = 0;
  float interval = 0;      ///< refined (fractional) interval index
  float response = 0;
  int base_interval = 0;   ///< integer interval the refinement settled on
};

/// Quadratic subpixel refinement with contrast / edge rejection.
/// Returns nullopt if the candidate is rejected.
std::optional<RefinedExtremum> refine_extremum(
    const std::vector<ImageF>& dogs, int interval, int x, int y,
    const SiftConfig& cfg) {
  const int max_interval = static_cast<int>(dogs.size()) - 2;
  double xr = 0, xc = 0, xs = 0;  // offsets in y(row), x(col), sigma

  for (int attempt = 0; attempt < 5; ++attempt) {
    const ImageF& prev = dogs[static_cast<std::size_t>(interval - 1)];
    const ImageF& cur = dogs[static_cast<std::size_t>(interval)];
    const ImageF& next = dogs[static_cast<std::size_t>(interval + 1)];

    const double dx = 0.5 * (cur(x + 1, y) - cur(x - 1, y));
    const double dy = 0.5 * (cur(x, y + 1) - cur(x, y - 1));
    const double ds = 0.5 * (next(x, y) - prev(x, y));

    const double v = cur(x, y);
    const double dxx = cur(x + 1, y) + cur(x - 1, y) - 2 * v;
    const double dyy = cur(x, y + 1) + cur(x, y - 1) - 2 * v;
    const double dss = next(x, y) + prev(x, y) - 2 * v;
    const double dxy = 0.25 * (cur(x + 1, y + 1) - cur(x - 1, y + 1) -
                               cur(x + 1, y - 1) + cur(x - 1, y - 1));
    const double dxs = 0.25 * (next(x + 1, y) - next(x - 1, y) -
                               prev(x + 1, y) + prev(x - 1, y));
    const double dys = 0.25 * (next(x, y + 1) - next(x, y - 1) -
                               prev(x, y + 1) + prev(x, y - 1));

    double h[3][3] = {{dxx, dxy, dxs}, {dxy, dyy, dys}, {dxs, dys, dss}};
    const double g[3] = {dx, dy, ds};
    double off[3];
    if (!solve_3x3(h, g, off)) return std::nullopt;
    xc = off[0];
    xr = off[1];
    xs = off[2];

    if (std::abs(xc) < 0.5 && std::abs(xr) < 0.5 && std::abs(xs) < 0.5) {
      // Converged: final contrast check at the interpolated extremum.
      const double contrast = v + 0.5 * (dx * xc + dy * xr + ds * xs);
      const double min_contrast =
          kValueScale * cfg.contrast_threshold / cfg.intervals;
      if (std::abs(contrast) < min_contrast) return std::nullopt;

      // Edge rejection: ratio of principal curvatures of the 2x2 spatial
      // Hessian must be below the threshold.
      const double tr = dxx + dyy;
      const double det = dxx * dyy - dxy * dxy;
      const double r = cfg.edge_threshold;
      if (det <= 0 || tr * tr * r >= (r + 1) * (r + 1) * det) {
        return std::nullopt;
      }

      RefinedExtremum out;
      out.x_octv = static_cast<float>(x + xc);
      out.y_octv = static_cast<float>(y + xr);
      out.interval = static_cast<float>(interval + xs);
      out.response = static_cast<float>(std::abs(contrast));
      out.base_interval = interval;
      return out;
    }

    // Step to the neighboring sample and retry.
    x += static_cast<int>(std::lround(xc));
    y += static_cast<int>(std::lround(xr));
    interval += static_cast<int>(std::lround(xs));
    if (interval < 1 || interval > max_interval || x < cfg.border ||
        x >= cur.width() - cfg.border || y < cfg.border ||
        y >= cur.height() - cfg.border) {
      return std::nullopt;
    }
  }
  return std::nullopt;  // did not converge
}

/// 36-bin gradient-orientation histogram around a keypoint; returns all
/// orientations whose (smoothed, parabola-refined) peak is >= 80% of max.
std::vector<float> dominant_orientations(const ImageF& gauss, int x, int y,
                                         double scale_octv) {
  constexpr int kBins = 36;
  double hist[kBins] = {};
  const int radius = static_cast<int>(std::lround(4.5 * scale_octv));
  const double weight_sigma = 1.5 * scale_octv;
  const double denom = 2.0 * weight_sigma * weight_sigma;

  for (int j = -radius; j <= radius; ++j) {
    const int yy = y + j;
    if (yy <= 0 || yy >= gauss.height() - 1) continue;
    for (int i = -radius; i <= radius; ++i) {
      const int xx = x + i;
      if (xx <= 0 || xx >= gauss.width() - 1) continue;
      const double gx = 0.5 * (gauss(xx + 1, yy) - gauss(xx - 1, yy));
      const double gy = 0.5 * (gauss(xx, yy + 1) - gauss(xx, yy - 1));
      const double mag = std::sqrt(gx * gx + gy * gy);
      const double ori = std::atan2(gy, gx);  // [-pi, pi]
      const double w = std::exp(-(i * i + j * j) / denom);
      int bin = static_cast<int>(
          std::lround(kBins * (ori + std::numbers::pi) / kTwoPi));
      bin = (bin % kBins + kBins) % kBins;
      hist[bin] += w * mag;
    }
  }

  // Two passes of [1 4 6 4 1]/16 circular smoothing.
  for (int pass = 0; pass < 2; ++pass) {
    double tmp[kBins];
    for (int b = 0; b < kBins; ++b) {
      const auto at = [&](int k) { return hist[((b + k) % kBins + kBins) % kBins]; };
      tmp[b] = (at(-2) + at(2)) * (1.0 / 16) + (at(-1) + at(1)) * (4.0 / 16) +
               at(0) * (6.0 / 16);
    }
    std::copy(tmp, tmp + kBins, hist);
  }

  const double peak = *std::max_element(hist, hist + kBins);
  std::vector<float> orientations;
  if (peak <= 0) return orientations;
  for (int b = 0; b < kBins; ++b) {
    const double l = hist[(b + kBins - 1) % kBins];
    const double c = hist[b];
    const double r = hist[(b + 1) % kBins];
    if (c >= 0.8 * peak && c > l && c > r) {
      // Parabolic interpolation of the peak position.
      double db = 0.5 * (l - r) / (l - 2 * c + r);
      double bin = b + db;
      double ori = kTwoPi * bin / kBins - std::numbers::pi;
      if (ori < -std::numbers::pi) ori += kTwoPi;
      if (ori >= std::numbers::pi) ori -= kTwoPi;
      orientations.push_back(static_cast<float>(ori));
    }
  }
  return orientations;
}

}  // namespace

ScaleSpace build_scale_space(const ImageF& image, const SiftConfig& cfg) {
  VP_OBS_SPAN("sift.pyramid");
  VP_REQUIRE(!image.empty(), "sift on empty image");
  VP_REQUIRE(cfg.intervals >= 1 && cfg.intervals <= 8,
             "sift intervals in [1,8]");
  ScaleSpace ss;
  ss.base_sigma = cfg.sigma;
  ss.intervals = cfg.intervals;
  ss.upsampled = cfg.upsample_first_octave;

  // Octave 0's base is the input (or its 2x upsample) blurred straight
  // into its pyramid slot; no other copy of the input is made.
  ImageF upsampled;
  const ImageF* input = &image;
  double current_blur = cfg.initial_blur;
  if (cfg.upsample_first_octave) {
    upsampled = resize_bilinear(image, image.width() * 2, image.height() * 2);
    input = &upsampled;
    current_blur *= 2.0;
  }
  const double need = std::sqrt(
      std::max(0.01, cfg.sigma * cfg.sigma - current_blur * current_blur));
  // One horizontal-pass buffer serves every blur of this call: the first
  // blur is the largest. It dies with the call, so no frame keeps it.
  std::vector<float> scratch;
  ImageF base;
  gaussian_blur_into(*input, need, base, scratch, cfg.pool);
  upsampled = ImageF();  // 4x the input: not kept while the pyramid grows

  const int octaves = octave_count(base.width(), base.height(), cfg);
  const int per_octave = cfg.intervals + 3;
  const double k = std::pow(2.0, 1.0 / cfg.intervals);

  // Per-image incremental blur so gaussians[o][i] has absolute scale
  // sigma * k^i relative to the octave base.
  std::vector<double> inc(static_cast<std::size_t>(per_octave), 0.0);
  for (int i = 1; i < per_octave; ++i) {
    const double prev = cfg.sigma * std::pow(k, i - 1);
    const double total = prev * k;
    inc[static_cast<std::size_t>(i)] =
        std::sqrt(total * total - prev * prev);
  }

  ss.gaussians.resize(static_cast<std::size_t>(octaves));
  ss.dogs.resize(static_cast<std::size_t>(octaves));
  for (int o = 0; o < octaves; ++o) {
    auto& gs = ss.gaussians[static_cast<std::size_t>(o)];
    gs.resize(static_cast<std::size_t>(per_octave));
    if (o == 0) {
      gs[0] = std::move(base);
    } else {
      // Start from the previous octave's image at twice the base sigma.
      gs[0] = downsample_2x(ss.gaussians[static_cast<std::size_t>(o - 1)]
                                        [static_cast<std::size_t>(cfg.intervals)]);
    }
    // The interval chain is inherently sequential (each level blurs the
    // previous one), so parallelism lives inside each blur (row-split).
    for (std::size_t i = 1; i < gs.size(); ++i) {
      gaussian_blur_into(gs[i - 1], inc[i], gs[i], scratch, cfg.pool);
    }
    // DoG levels only depend on finished Gaussians: subtract in parallel
    // across the intervals of this octave.
    auto& ds = ss.dogs[static_cast<std::size_t>(o)];
    ds.resize(static_cast<std::size_t>(per_octave - 1));
    run_indexed(cfg.pool, ds.size(), [&](std::size_t i) {
      ds[i] = subtract(gs[i + 1], gs[i]);
    });
  }
  return ss;
}

Descriptor compute_descriptor(const ImageF& gauss, float x, float y,
                              float scale_in_octave, float orientation) {
  constexpr int kD = 4;  // spatial grid
  constexpr int kN = 8;  // orientation bins
  const double cos_t = std::cos(-orientation);
  const double sin_t = std::sin(-orientation);
  const double bins_per_rad = kN / kTwoPi;
  const double hist_width = 3.0 * scale_in_octave;
  const int radius = static_cast<int>(std::lround(
      hist_width * std::numbers::sqrt2 * (kD + 1) * 0.5));
  const double exp_denom = 0.5 * kD * kD;

  // (kD+2)^2 x kN accumulation grid with guard rows for trilinear spill.
  double hist[(kD + 2) * (kD + 2) * kN] = {};
  const auto hidx = [](int r, int c, int o) {
    return (r * (kD + 2) + c) * kN + o;
  };

  const int cx = static_cast<int>(std::lround(x));
  const int cy = static_cast<int>(std::lround(y));

  for (int j = -radius; j <= radius; ++j) {
    for (int i = -radius; i <= radius; ++i) {
      // Rotate offset into the keypoint's canonical frame.
      const double rot_x = (cos_t * i - sin_t * j) / hist_width;
      const double rot_y = (sin_t * i + cos_t * j) / hist_width;
      const double rbin = rot_y + kD / 2.0 - 0.5;
      const double cbin = rot_x + kD / 2.0 - 0.5;
      if (rbin <= -1 || rbin >= kD || cbin <= -1 || cbin >= kD) continue;

      const int xx = cx + i;
      const int yy = cy + j;
      if (xx <= 0 || xx >= gauss.width() - 1 || yy <= 0 ||
          yy >= gauss.height() - 1) {
        continue;
      }
      const double gx = 0.5 * (gauss(xx + 1, yy) - gauss(xx - 1, yy));
      const double gy = 0.5 * (gauss(xx, yy + 1) - gauss(xx, yy - 1));
      const double mag = std::sqrt(gx * gx + gy * gy);
      double ori = std::atan2(gy, gx) + orientation;  // canonical frame
      while (ori < 0) ori += kTwoPi;
      while (ori >= kTwoPi) ori -= kTwoPi;

      const double w =
          std::exp(-(rot_x * rot_x + rot_y * rot_y) / exp_denom);
      const double value = w * mag;
      double obin = ori * bins_per_rad;

      int r0 = static_cast<int>(std::floor(rbin));
      int c0 = static_cast<int>(std::floor(cbin));
      int o0 = static_cast<int>(std::floor(obin));
      const double dr = rbin - r0;
      const double dc = cbin - c0;
      const double dob = obin - o0;
      o0 %= kN;

      // Trilinear distribution into the 8 surrounding cells.
      for (int ri = 0; ri <= 1; ++ri) {
        const int rr = r0 + ri + 1;  // +1: guard row offset
        if (rr < 0 || rr >= kD + 2) continue;
        const double wr = value * (ri ? dr : 1 - dr);
        for (int ci = 0; ci <= 1; ++ci) {
          const int cc = c0 + ci + 1;
          if (cc < 0 || cc >= kD + 2) continue;
          const double wc = wr * (ci ? dc : 1 - dc);
          for (int oi = 0; oi <= 1; ++oi) {
            const int oo = (o0 + oi) % kN;
            hist[hidx(rr, cc, oo)] += wc * (oi ? dob : 1 - dob);
          }
        }
      }
    }
  }

  // Gather the inner kD x kD grid into the final 128 vector.
  double vec[kDescriptorDims];
  int idx = 0;
  for (int r = 1; r <= kD; ++r) {
    for (int c = 1; c <= kD; ++c) {
      for (int o = 0; o < kN; ++o) vec[idx++] = hist[hidx(r, c, o)];
    }
  }

  // Normalize -> clamp at 0.2 -> renormalize -> quantize (Lowe §6.1).
  auto normalize = [&] {
    double n2 = 0;
    for (double v : vec) n2 += v * v;
    const double inv = n2 > 0 ? 1.0 / std::sqrt(n2) : 0.0;
    for (double& v : vec) v *= inv;
  };
  normalize();
  for (double& v : vec) v = std::min(v, 0.2);
  normalize();

  Descriptor d{};
  for (std::size_t i = 0; i < kDescriptorDims; ++i) {
    d[i] = static_cast<std::uint8_t>(
        std::min(255.0, std::floor(512.0 * vec[i])));
  }
  return d;
}

namespace {

/// Scalar reference scan of columns [x0, x1). `rows[img][dy]` is row
/// y - 1 + dy of prev (img 0), cur (1) and next (2).
void row_extrema_scalar(const float* const rows[3][3], int x0, int x1,
                        double prelim_thresh, std::vector<int>& xs) {
  for (int x = x0; x < x1; ++x) {
    const float v = rows[1][1][x];
    if (std::abs(v) <= prelim_thresh) continue;
    // 26-neighbor extremum test.
    bool is_max = true, is_min = true;
    for (int dy = 0; dy < 3 && (is_max || is_min); ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        for (int img = 0; img < 3; ++img) {
          if (img == 1 && dx == 0 && dy == 1) continue;
          const float nv = rows[img][dy][x + dx];
          if (nv >= v) is_max = false;
          if (nv <= v) is_min = false;
        }
        if (!is_max && !is_min) break;
      }
    }
    if (is_max || is_min) xs.push_back(x);
  }
}

#if !defined(VP_DISABLE_SIMD) && (defined(__GNUC__) || defined(__clang__))
#define VP_SIFT_VECTOR_SCAN 1
#else
#define VP_SIFT_VECTOR_SCAN 0
#endif
#if VP_SIFT_VECTOR_SCAN && (defined(__x86_64__) || defined(__i386__))
#define VP_SIFT_AVX2_SCAN 1
#else
#define VP_SIFT_AVX2_SCAN 0
#endif

#if VP_SIFT_VECTOR_SCAN

/// The largest float f with f <= t (t within float's range). For every
/// float a, (a <= f) decides exactly as the double compare (a <= t): no
/// float lies in (f, t].
float float_at_or_below(double t) {
  float f = static_cast<float>(t);
  if (static_cast<double>(f) > t) {
    f = std::nextafter(f, -std::numeric_limits<float>::infinity());
  }
  return f;
}

typedef float F32x4 __attribute__((vector_size(16)));
typedef std::int32_t I32x4 __attribute__((vector_size(16)));
#if VP_SIFT_AVX2_SCAN
typedef float F32x8 __attribute__((vector_size(32)));
typedef std::int32_t I32x8 __attribute__((vector_size(32)));
#endif

/// True when any lane of the comparison mask `m` is set.
template <typename M>
inline __attribute__((always_inline)) bool any_lane(const M& m) {
  std::uint64_t parts[sizeof(M) / sizeof(std::uint64_t)];
  std::memcpy(parts, &m, sizeof m);
  std::uint64_t any = 0;
  for (const std::uint64_t p : parts) any |= p;
  return any != 0;
}

/// ge |= (n >= v) and le |= (n <= v) for the neighbours n at r[-1], r[0]
/// and r[1] of each lane; `skip_mid` leaves out r[0] (the centre pixel).
template <typename V, typename M>
inline __attribute__((always_inline)) void compare_row(const float* r,
                                                       const V& v,
                                                       bool skip_mid, M& ge,
                                                       M& le) {
#pragma GCC unroll 3
  for (int dx = -1; dx <= 1; ++dx) {
    if (skip_mid && dx == 0) continue;
    V n;
    std::memcpy(&n, r + dx, sizeof n);
    ge |= n >= v;
    le |= n <= v;
  }
}

/// The scalar scan one vector of columns at a time, templated on the
/// vector type like the blur kernels (imaging/filters.cpp): 4 lanes at the
/// baseline target (SSE2 / NEON), 8 under AVX2. Each lane reaches the
/// scalar decision: the threshold compare runs against the float that
/// decides as the double threshold does, and "strict max" is "no
/// neighbour >= v" (not "every neighbour < v"), which agrees with the
/// scalar test on NaN too. Like the scalar loop it stops early: a vector
/// with no lane over the threshold, or with every lane already neither a
/// max nor a min after its 8 in-plane neighbours, is done. The scalar loop
/// finishes the tail.
template <typename V, typename M>
inline __attribute__((always_inline)) void row_extrema_body(
    const float* const rows[3][3], int x0, int x1, double prelim_thresh,
    std::vector<int>& xs) {
  constexpr int kLanes = sizeof(V) / sizeof(float);
  const float thresh = float_at_or_below(prelim_thresh);
  V tv;
  for (int j = 0; j < kLanes; ++j) tv[j] = thresh;
  int x = x0;
  for (; x + kLanes <= x1; x += kLanes) {
    V v;
    std::memcpy(&v, rows[1][1] + x, sizeof v);
    M abs_bits;
    std::memcpy(&abs_bits, &v, sizeof v);
    abs_bits &= 0x7fffffff;
    V av;
    std::memcpy(&av, &abs_bits, sizeof av);
    const M pass = ~(av <= tv);
    if (!any_lane(pass)) continue;
    M ge = {}, le = {};  // some neighbour >= v / <= v
    compare_row(rows[1][0] + x, v, false, ge, le);
    compare_row(rows[1][1] + x, v, true, ge, le);
    compare_row(rows[1][2] + x, v, false, ge, le);
    if (!any_lane(pass & ~(ge & le))) continue;
    for (const int img : {0, 2}) {
      for (int dy = 0; dy < 3; ++dy) {
        compare_row(rows[img][dy] + x, v, false, ge, le);
      }
    }
    const M keep = pass & ~(ge & le);
    if (!any_lane(keep)) continue;
    for (int j = 0; j < kLanes; ++j) {
      if (keep[j] != 0) xs.push_back(x + j);
    }
  }
  row_extrema_scalar(rows, x, x1, prelim_thresh, xs);
}

void row_extrema_vector(const float* const rows[3][3], int x0, int x1,
                        double prelim_thresh, std::vector<int>& xs) {
  row_extrema_body<F32x4, I32x4>(rows, x0, x1, prelim_thresh, xs);
}

#if VP_SIFT_AVX2_SCAN
__attribute__((target("avx2"))) void row_extrema_avx2(
    const float* const rows[3][3], int x0, int x1, double prelim_thresh,
    std::vector<int>& xs) {
  row_extrema_body<F32x8, I32x8>(rows, x0, x1, prelim_thresh, xs);
}
#endif

#endif  // VP_SIFT_VECTOR_SCAN

}  // namespace

void row_extrema(const ImageF& prev, const ImageF& cur, const ImageF& next,
                 int y, int border, double prelim_thresh, BlurKernel kernel,
                 std::vector<int>& xs) {
  const float* const rows[3][3] = {
      {prev.row(y - 1), prev.row(y), prev.row(y + 1)},
      {cur.row(y - 1), cur.row(y), cur.row(y + 1)},
      {next.row(y - 1), next.row(y), next.row(y + 1)}};
  const int x0 = border;
  const int x1 = cur.width() - border;
  switch (kernel) {
#if VP_SIFT_AVX2_SCAN
    case BlurKernel::kAvx2:
      if (cpu_features().avx2) {
        row_extrema_avx2(rows, x0, x1, prelim_thresh, xs);
        return;
      }
      break;
#endif
#if VP_SIFT_VECTOR_SCAN
    case BlurKernel::kVector:
      row_extrema_vector(rows, x0, x1, prelim_thresh, xs);
      return;
#endif
    default:
      break;
  }
  row_extrema_scalar(rows, x0, x1, prelim_thresh, xs);
}

}  // namespace detail

namespace {

struct DetectedPoint {
  Keypoint kp;
  int octave = 0;
  int interval = 0;        ///< integer interval for Gaussian image choice
  float x_octv = 0;        ///< coordinates within the octave image
  float y_octv = 0;
  float scale_octv = 0;    ///< scale relative to the octave
};

/// Scan rows [y0, y1) of DoG interval `i` in octave `o` for refined
/// extrema, appending to `out` in (y, x) order.
void scan_interval_rows(const detail::ScaleSpace& ss, const SiftConfig& cfg,
                        std::size_t o, int i, int y0, int y1,
                        std::vector<DetectedPoint>& out) {
  const auto& dogs = ss.dogs[o];
  const double prelim_thresh =
      0.5 * 255.0 * cfg.contrast_threshold / cfg.intervals;
  const double scale_multiplier = ss.upsampled ? 0.5 : 1.0;
  const double octave_scale =
      scale_multiplier * std::pow(2.0, static_cast<double>(o));
  const ImageF& prev = dogs[static_cast<std::size_t>(i - 1)];
  const ImageF& cur = dogs[static_cast<std::size_t>(i)];
  const ImageF& next = dogs[static_cast<std::size_t>(i + 1)];
  const BlurKernel kernel = active_blur_kernel();

  std::vector<int> xs;
  for (int y = y0; y < y1; ++y) {
    xs.clear();
    detail::row_extrema(prev, cur, next, y, cfg.border, prelim_thresh,
                        kernel, xs);
    for (const int x : xs) {
      auto refined = detail::refine_extremum(dogs, i, x, y, cfg);
      if (!refined) continue;

      DetectedPoint dp;
      dp.octave = static_cast<int>(o);
      dp.interval = refined->base_interval;
      dp.x_octv = refined->x_octv;
      dp.y_octv = refined->y_octv;
      dp.scale_octv = static_cast<float>(
          cfg.sigma *
          std::pow(2.0, refined->interval / static_cast<double>(cfg.intervals)));
      dp.kp.x = static_cast<float>(refined->x_octv * octave_scale);
      dp.kp.y = static_cast<float>(refined->y_octv * octave_scale);
      dp.kp.scale = static_cast<float>(dp.scale_octv * octave_scale);
      dp.kp.response = refined->response;
      dp.kp.octave = static_cast<std::int16_t>(o);
      out.push_back(dp);
    }
  }
}

std::vector<DetectedPoint> detect_points(const detail::ScaleSpace& ss,
                                         const SiftConfig& cfg) {
  VP_OBS_SPAN("sift.extrema");
  // Row-blocked scan: every (octave, interval) plane is cut into bands of
  // rows that scan independently into per-block buffers, then the buffers
  // are concatenated in block order. That reproduces the sequential scan
  // order (octave-major, interval, y, x) exactly, so downstream stages see
  // the same point sequence regardless of pool size.
  constexpr int kRowsPerBlock = 32;
  struct ScanBlock {
    std::size_t octave;
    int interval;
    int y0, y1;
  };
  std::vector<ScanBlock> blocks;
  for (std::size_t o = 0; o < ss.dogs.size(); ++o) {
    const int h = ss.dogs[o][0].height();
    for (int i = 1; i <= cfg.intervals; ++i) {
      for (int y = cfg.border; y < h - cfg.border; y += kRowsPerBlock) {
        blocks.push_back(
            {o, i, y, std::min(y + kRowsPerBlock, h - cfg.border)});
      }
    }
  }

  std::vector<std::vector<DetectedPoint>> per_block(blocks.size());
  run_indexed(cfg.pool, blocks.size(), [&](std::size_t b) {
    const ScanBlock& blk = blocks[b];
    scan_interval_rows(ss, cfg, blk.octave, blk.interval, blk.y0, blk.y1,
                       per_block[b]);
  });

  std::vector<DetectedPoint> points;
  for (const auto& bp : per_block) {
    points.insert(points.end(), bp.begin(), bp.end());
  }
  return points;
}

void keep_strongest(std::vector<DetectedPoint>& points, int max_features) {
  if (max_features <= 0 ||
      points.size() <= static_cast<std::size_t>(max_features)) {
    return;
  }
  std::nth_element(points.begin(), points.begin() + max_features,
                   points.end(), [](const auto& a, const auto& b) {
                     return a.kp.response > b.kp.response;
                   });
  points.resize(static_cast<std::size_t>(max_features));
}

}  // namespace

std::vector<Keypoint> sift_detect_keypoints(const ImageF& image,
                                            const SiftConfig& cfg) {
  const auto ss = detail::build_scale_space(image, cfg);
  auto points = detect_points(ss, cfg);
  keep_strongest(points, cfg.max_features);

  // One slot per detected point (a point can emit several orientations);
  // merged in point order so output ordering is pool-size independent.
  std::vector<std::vector<Keypoint>> per_point(points.size());
  run_indexed(cfg.pool, points.size(), [&](std::size_t idx) {
    const auto& p = points[idx];
    const auto& gauss =
        ss.gaussians[static_cast<std::size_t>(p.octave)]
                    [static_cast<std::size_t>(p.interval)];
    const auto oris = detail::dominant_orientations(
        gauss, static_cast<int>(std::lround(p.x_octv)),
        static_cast<int>(std::lround(p.y_octv)), p.scale_octv);
    per_point[idx].reserve(oris.size());
    for (float ori : oris) {
      Keypoint kp = p.kp;
      kp.orientation = ori;
      per_point[idx].push_back(kp);
    }
  });

  std::vector<Keypoint> out;
  out.reserve(points.size());
  for (const auto& kps : per_point) {
    out.insert(out.end(), kps.begin(), kps.end());
  }
  return out;
}

std::vector<Feature> sift_detect(const ImageF& image, const SiftConfig& cfg) {
  const auto ss = detail::build_scale_space(image, cfg);
  auto points = detect_points(ss, cfg);
  keep_strongest(points, cfg.max_features);

  // Orientation histograms and 128-d descriptors are independent per
  // point: parallel_for over points, merge per-point slots in index order.
  std::vector<std::vector<Feature>> per_point(points.size());
  {
    VP_OBS_SPAN("sift.descriptor");
    run_indexed(cfg.pool, points.size(), [&](std::size_t idx) {
      const auto& p = points[idx];
      const auto& gauss =
          ss.gaussians[static_cast<std::size_t>(p.octave)]
                      [static_cast<std::size_t>(p.interval)];
      const auto oris = detail::dominant_orientations(
          gauss, static_cast<int>(std::lround(p.x_octv)),
          static_cast<int>(std::lround(p.y_octv)), p.scale_octv);
      per_point[idx].reserve(oris.size());
      for (float ori : oris) {
        Feature f;
        f.keypoint = p.kp;
        f.keypoint.orientation = ori;
        f.descriptor = detail::compute_descriptor(gauss, p.x_octv, p.y_octv,
                                                  p.scale_octv, ori);
        per_point[idx].push_back(f);
      }
    });
  }

  std::vector<Feature> out;
  out.reserve(points.size());
  for (const auto& fs : per_point) {
    out.insert(out.end(), fs.begin(), fs.end());
  }
  return out;
}

}  // namespace vp
