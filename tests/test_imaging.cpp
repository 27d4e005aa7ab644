#include <gtest/gtest.h>

#include <zlib.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <latch>
#include <set>

#include "imaging/codec.hpp"
#include "imaging/filters.hpp"
#include "imaging/image.hpp"
#include "imaging/pnm.hpp"
#include "imaging/video_model.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace vp {
namespace {

ImageF ramp_image(int w, int h) {
  ImageF img(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) img(x, y) = static_cast<float>(x);
  return img;
}

ImageU8 noise_u8(int w, int h, int channels, std::uint64_t seed) {
  Rng rng(seed);
  ImageU8 img(w, h, channels);
  for (auto& p : img.pixels()) {
    p = static_cast<std::uint8_t>(rng.uniform_u64(256));
  }
  return img;
}

TEST(Image, ConstructionAndAccess) {
  ImageU8 img(4, 3, 3, 7);
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_EQ(img.channels(), 3);
  EXPECT_EQ(img.pixel_count(), 12u);
  EXPECT_EQ(img.byte_size(), 36u);
  EXPECT_EQ(img.at(2, 1, 2), 7);
  img.at(2, 1, 2) = 99;
  EXPECT_EQ(img(2, 1, 2), 99);
}

TEST(Image, ClampedAccess) {
  ImageF img(2, 2);
  img(0, 0) = 1;
  img(1, 1) = 4;
  EXPECT_EQ(img.at_clamped(-5, -5), 1);
  EXPECT_EQ(img.at_clamped(10, 10), 4);
}

TEST(Image, RejectsBadDimensions) {
  EXPECT_THROW(ImageU8(-1, 4), InvalidArgument);
  EXPECT_THROW(ImageU8(4, 4, 9), InvalidArgument);
}

TEST(Image, GrayConversionWeights) {
  ImageU8 rgb(1, 1, 3);
  rgb(0, 0, 0) = 255;  // pure red
  const ImageF g = to_gray(rgb);
  EXPECT_NEAR(g(0, 0), 0.299f * 255, 0.5);
}

TEST(Image, U8RoundtripClamps) {
  ImageF f(2, 1);
  f(0, 0) = -10.0f;
  f(1, 0) = 300.0f;
  const ImageU8 u = to_u8(f);
  EXPECT_EQ(u(0, 0), 0);
  EXPECT_EQ(u(1, 0), 255);
}

TEST(Filters, BlurPreservesMean) {
  Rng rng(5);
  ImageF img(32, 32);
  for (auto& p : img.pixels()) p = static_cast<float>(rng.uniform(0, 255));
  double mean_before = 0;
  for (auto p : img.pixels()) mean_before += p;
  const ImageF out = gaussian_blur(img, 2.0);
  double mean_after = 0;
  for (auto p : out.pixels()) mean_after += p;
  EXPECT_NEAR(mean_after / mean_before, 1.0, 0.02);
}

TEST(Filters, BlurReducesVariance) {
  Rng rng(6);
  ImageF img(48, 48);
  for (auto& p : img.pixels()) p = static_cast<float>(rng.uniform(0, 255));
  const double v0 = variance_of_laplacian(img);
  const double v1 = variance_of_laplacian(gaussian_blur(img, 1.5));
  EXPECT_LT(v1, v0 * 0.5);
}

TEST(Filters, ZeroSigmaIsIdentity) {
  const ImageF img = ramp_image(8, 8);
  EXPECT_EQ(gaussian_blur(img, 0.0), img);
}

TEST(Filters, Downsample2xHalvesSize) {
  const ImageF img = ramp_image(10, 8);
  const ImageF half = downsample_2x(img);
  EXPECT_EQ(half.width(), 5);
  EXPECT_EQ(half.height(), 4);
  EXPECT_EQ(half(2, 1), img(4, 2));
}

// Odd sizes: the trailing row/column is dropped and every output pixel
// samples exactly src(2x, 2y) — the last outputs must not clamp back onto
// the (kept) even grid's neighbor.
TEST(Filters, Downsample2xOddSizesSampleEvenGrid) {
  ImageF img(9, 7);
  for (int y = 0; y < 7; ++y)
    for (int x = 0; x < 9; ++x) img(x, y) = static_cast<float>(100 * y + x);
  const ImageF half = downsample_2x(img);
  ASSERT_EQ(half.width(), 4);
  ASSERT_EQ(half.height(), 3);
  for (int y = 0; y < 3; ++y)
    for (int x = 0; x < 4; ++x) EXPECT_EQ(half(x, y), img(2 * x, 2 * y));
}

TEST(Filters, BlurWithPoolMatchesSequentialExactly) {
  Rng rng(9);
  ImageF img(53, 41);  // odd sizes exercise the border/interior split
  for (auto& p : img.pixels()) p = static_cast<float>(rng.uniform(0, 255));
  const ImageF seq = gaussian_blur(img, 1.7);
  ThreadPool pool(4);
  const ImageF par = gaussian_blur(img, 1.7, &pool);
  ASSERT_EQ(par.width(), seq.width());
  ASSERT_EQ(par.height(), seq.height());
  for (std::size_t i = 0; i < seq.pixels().size(); ++i) {
    EXPECT_EQ(par.pixels()[i], seq.pixels()[i]) << "pixel " << i;
  }
}

/// gaussian_blur with `level` pinned, then the active level restored.
ImageF blur_with(SimdLevel level, const ImageF& img, double sigma) {
  const SimdLevel active = blur_kernels().active();
  EXPECT_TRUE(blur_kernels().set(level));
  ImageF out = gaussian_blur(img, sigma);
  EXPECT_TRUE(blur_kernels().set(active));
  return out;
}

// Every compiled blur level must reproduce the scalar reference byte for
// byte. The sigmas are the default SIFT pyramid's (base 1.52 and the five
// increments, radius 4-10) plus a sub-pixel and a wide one. Widths run
// from 1 to 2*radius + 17, so every split between the clamped borders,
// the vector steps and the scalar tail runs, including images narrower
// than the kernel; heights 1-3 cover the vertical clamp.
TEST(Filters, EveryBlurKernelMatchesScalarReference) {
  Rng rng(21);
  for (const double sigma : {1.52, 1.23, 1.55, 1.95, 2.46, 3.10, 0.3, 8.0}) {
    const int radius =
        std::max(1, static_cast<int>(std::ceil(3.0 * sigma)));
    for (int h = 1; h <= 3; ++h) {
      for (int w = 1; w <= 2 * radius + 17; ++w) {
        ImageF img(w, h);
        for (auto& p : img.pixels()) {
          p = static_cast<float>(rng.uniform(0, 255));
        }
        const ImageF ref = blur_with(SimdLevel::kScalar, img, sigma);
        for (const SimdLevel level : kCompiledSimdLevels) {
          const ImageF got = blur_with(level, img, sigma);
          ASSERT_EQ(got.width(), w);
          ASSERT_EQ(got.height(), h);
          ASSERT_EQ(std::memcmp(got.data(), ref.data(), ref.byte_size()), 0)
              << simd_level_name(level) << " sigma " << sigma << " " << w
              << "x" << h;
        }
      }
    }
  }
}

TEST(Filters, ActiveBlurKernelIsCompiledAndPinnable) {
  const SimdLevel active = blur_kernels().active();
  const auto& compiled = kCompiledSimdLevels;
  EXPECT_NE(std::find(compiled.begin(), compiled.end(), active),
            compiled.end());
  EXPECT_TRUE(blur_kernels().set(SimdLevel::kScalar));
  EXPECT_EQ(blur_kernels().active(), SimdLevel::kScalar);
  EXPECT_TRUE(blur_kernels().set(active));
  EXPECT_EQ(blur_kernels().active(), active);
  // Only compiled levels are switchable (under VP_DISABLE_SIMD that is
  // kScalar alone).
  for (const SimdLevel probe : {SimdLevel::kBaseline, SimdLevel::kAvx2}) {
    if (std::find(compiled.begin(), compiled.end(), probe) == compiled.end()) {
      EXPECT_FALSE(blur_kernels().set(probe));
    }
  }
  EXPECT_EQ(blur_kernels().active(), active);
}

TEST(Filters, BlurIntoMatchesBlurAndReusesBuffers) {
  Rng rng(22);
  ImageF big(61, 37), small(23, 11);
  for (auto& p : big.pixels()) p = static_cast<float>(rng.uniform(0, 255));
  for (auto& p : small.pixels()) p = static_cast<float>(rng.uniform(0, 255));
  std::vector<float> scratch;
  ImageF dst;
  gaussian_blur_into(big, 1.95, dst, scratch);
  EXPECT_EQ(dst, gaussian_blur(big, 1.95));
  EXPECT_EQ(scratch.size(), big.pixel_count());
  const float* storage = dst.data();
  gaussian_blur_into(big, 2.46, dst, scratch);  // same shape: no realloc
  EXPECT_EQ(dst.data(), storage);
  EXPECT_EQ(dst, gaussian_blur(big, 2.46));
  gaussian_blur_into(small, 1.23, dst, scratch);  // scratch never shrinks
  EXPECT_EQ(dst, gaussian_blur(small, 1.23));
  EXPECT_EQ(scratch.size(), big.pixel_count());
  gaussian_blur_into(small, 0.0, dst, scratch);
  EXPECT_EQ(dst, small);
}

TEST(Filters, GaussianKernelIsCachedAcrossCalls) {
  const ImageF img = ramp_image(16, 16);
  const std::size_t before = gaussian_kernel_cache_size();
  // A sigma no other test uses, blurred twice: one new cache entry total.
  (void)gaussian_blur(img, 3.1415);
  const std::size_t after_first = gaussian_kernel_cache_size();
  (void)gaussian_blur(img, 3.1415);
  EXPECT_EQ(gaussian_kernel_cache_size(), after_first);
  EXPECT_GE(after_first, before + 1);
}

TEST(Filters, ResizeIdentity) {
  const ImageF img = ramp_image(12, 9);
  const ImageF same = resize_bilinear(img, 12, 9);
  for (int y = 0; y < 9; ++y)
    for (int x = 0; x < 12; ++x) EXPECT_NEAR(same(x, y), img(x, y), 1e-4);
}

TEST(Filters, ResizePreservesRampValues) {
  const ImageF img = ramp_image(16, 4);
  const ImageF big = resize_bilinear(img, 32, 8);
  // A horizontal ramp should stay a ramp (slope halves in pixel units).
  EXPECT_NEAR(big(16, 4), img(8, 2), 0.51);
}

TEST(Filters, GradientOfRamp) {
  const ImageF img = ramp_image(8, 8);
  ImageF dx, dy;
  gradients(img, dx, dy);
  EXPECT_NEAR(dx(4, 4), 1.0, 1e-5);
  EXPECT_NEAR(dy(4, 4), 0.0, 1e-5);
}

TEST(Filters, MotionBlurSmearsAlongDirection) {
  ImageF img(21, 21, 1, 0.0f);
  img(10, 10) = 255.0f;
  const ImageF out = motion_blur(img, 1, 0, 7);
  EXPECT_GT(out(13, 10), 0.0f);   // smeared horizontally
  EXPECT_EQ(out(10, 13), 0.0f);   // not vertically
}

TEST(Filters, NoiseIsBounded) {
  Rng rng(8);
  ImageF img(16, 16, 1, 128.0f);
  add_gaussian_noise(img, 30.0, rng);
  for (auto p : img.pixels()) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 255.0f);
  }
}

TEST(Codec, PngIsLossless) {
  const ImageU8 img = noise_u8(37, 23, 3, 1);
  const Bytes png = png_encode(img);
  const ImageU8 back = png_decode(png);
  EXPECT_EQ(back, img);
}

TEST(Codec, PngGrayscale) {
  const ImageU8 img = noise_u8(16, 16, 1, 2);
  EXPECT_EQ(png_decode(png_encode(img)), img);
}

TEST(Codec, JpegRoundtripApproximate) {
  // Smooth image: JPEG at high quality should be close.
  ImageU8 img(32, 32, 1);
  for (int y = 0; y < 32; ++y)
    for (int x = 0; x < 32; ++x)
      img(x, y) = static_cast<std::uint8_t>(4 * x + 2 * y);
  const ImageU8 back = jpeg_decode(jpeg_encode(img, 95));
  ASSERT_EQ(back.width(), 32);
  double err = 0;
  for (std::size_t i = 0; i < img.pixels().size(); ++i) {
    err += std::abs(static_cast<int>(img.pixels()[i]) -
                    static_cast<int>(back.pixels()[i]));
  }
  EXPECT_LT(err / img.pixels().size(), 4.0);
}

TEST(Codec, JpegQualityOrdersSize) {
  const ImageU8 img = noise_u8(64, 64, 1, 3);
  EXPECT_LT(jpeg_encode(img, 30).size(), jpeg_encode(img, 90).size());
}

TEST(Codec, JpegRejectsGarbage) {
  const Bytes garbage{1, 2, 3, 4, 5};
  EXPECT_THROW(jpeg_decode(garbage), DecodeError);
}

TEST(Codec, PngRejectsGarbage) {
  const Bytes garbage{9, 9, 9, 9, 9, 9, 9, 9};
  EXPECT_THROW(png_decode(garbage), DecodeError);
}

TEST(Codec, ZlibRoundtrip) {
  Rng rng(4);
  Bytes data(10000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_u64(4));
  const Bytes z = zlib_compress(data, 9);
  EXPECT_LT(z.size(), data.size());
  EXPECT_EQ(zlib_decompress(z), data);
}

TEST(Codec, ZlibDetectsCorruption) {
  Bytes data(1000, 7);
  Bytes z = zlib_compress(data, 6);
  z[z.size() / 2] ^= 0xFF;
  EXPECT_THROW(zlib_decompress(z), Error);
}

TEST(Codec, ZlibEmptyInput) {
  const Bytes empty;
  EXPECT_EQ(zlib_decompress(zlib_compress(empty)), empty);
}

// ---------------------------------------------------------------------------
// Chunked zlib: one standard stream whose bytes depend only on the input.

constexpr std::size_t kMiB = std::size_t{1} << 20;

/// zlib's one-shot encoder: the reference for single-chunk inputs.
Bytes compress2_of(std::span<const std::uint8_t> data, int level) {
  uLongf size = compressBound(static_cast<uLong>(data.size()));
  Bytes out(size);
  EXPECT_EQ(compress2(out.data(), &size, data.data(),
                      static_cast<uLong>(data.size()), level),
            Z_OK);
  out.resize(size);
  return out;
}

/// ~2% nonzero bytes, like a serialized uniqueness oracle's counter tables.
Bytes sparse_blob(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(size, 0);
  for (auto& b : out) {
    if (rng.uniform() < 0.02) {
      b = static_cast<std::uint8_t>(1 + rng.uniform_u64(255));
    }
  }
  return out;
}

/// A 7-chunk blob (6 MiB plus a partial tail) and its pool-less level-9
/// stream, built once for the suite.
struct LargeBlob {
  Bytes data;
  Bytes z;
};
const LargeBlob& large_blob() {
  static const LargeBlob blob = [] {
    LargeBlob b;
    b.data = sparse_blob(6 * kMiB + 12'345, 20);
    b.z = zlib_compress(b.data, 9);
    return b;
  }();
  return blob;
}

TEST(Zlib, UpToOneChunkMatchesCompress2) {
  const Bytes noise = [] {
    Rng rng(21);
    Bytes out(kMiB);
    for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_u64(256));
    return out;
  }();
  const Bytes sparse = sparse_blob(kMiB, 22);
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1}, std::size_t{4096}, kMiB - 1, kMiB}) {
    for (const Bytes* src : {&noise, &sparse}) {
      const std::span<const std::uint8_t> data(src->data(), size);
      for (const int level : {6, 9}) {
        EXPECT_EQ(zlib_compress(data, level), compress2_of(data, level))
            << "size " << size << " level " << level;
      }
    }
  }
}

TEST(Zlib, SameBytesForAnyPoolAndFromAWorker) {
  const LargeBlob& blob = large_blob();
  for (const std::size_t threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    EXPECT_EQ(zlib_compress(blob.data, 9, &pool), blob.z)
        << threads << " threads";
  }
  // On one of the pool's own workers the call runs inline.
  ThreadPool pool(2);
  Bytes from_worker;
  pool.submit([&] { from_worker = zlib_compress(blob.data, 9, &pool); }).get();
  EXPECT_EQ(from_worker, blob.z);
}

TEST(Zlib, MultiChunkStreamRoundTripsAndStaysCompact) {
  const LargeBlob& blob = large_blob();
  EXPECT_EQ(zlib_decompress(blob.z), blob.data);
  const Bytes one_shot = compress2_of(blob.data, 9);
  EXPECT_NE(blob.z, one_shot);  // really chunked
  EXPECT_LE(static_cast<double>(blob.z.size()),
            1.005 * static_cast<double>(one_shot.size()));
}

TEST(Zlib, ReturnsWhileEveryPoolWorkerIsHeld) {
  const LargeBlob& blob = large_blob();
  ThreadPool pool(2);
  std::latch parked(2);
  std::latch release(1);
  std::vector<std::future<void>> held;
  for (int i = 0; i < 2; ++i) {
    held.push_back(pool.submit([&] {
      parked.count_down();
      release.wait();
    }));
  }
  parked.wait();
  // Helpers queue behind the held workers; the caller does every chunk.
  EXPECT_EQ(zlib_compress(blob.data, 9, &pool), blob.z);
  release.count_down();
  for (auto& f : held) f.get();
  // The queued helpers now run after the call returned, find no chunk
  // left, and exit (the pool's destructor drains them).
}

TEST(Zlib, TruncatedMultiChunkStreamThrows) {
  const Bytes& z = large_blob().z;
  // Each sync flush ends in the empty stored block 00 00 FF FF, so the
  // chunk boundaries are among the offsets right after that pattern.
  std::set<std::size_t> cuts;
  std::size_t boundaries = 0;
  for (std::size_t i = 0; i + 4 <= z.size(); ++i) {
    if (z[i] == 0 && z[i + 1] == 0 && z[i + 2] == 0xFF && z[i + 3] == 0xFF) {
      ++boundaries;
      cuts.insert({i + 3, i + 4, i + 5});
    }
  }
  EXPECT_GE(boundaries, 6u);  // 7 chunks
  Rng rng(23);
  for (int i = 0; i < 64; ++i) cuts.insert(rng.uniform_u64(z.size()));
  cuts.insert(z.size() - 1);
  for (const std::size_t cut : cuts) {
    EXPECT_THROW(zlib_decompress(std::span(z).first(cut)), DecodeError)
        << "cut at " << cut << " of " << z.size();
  }
}

TEST(Pnm, RoundtripGrayAndRgb) {
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path();
  for (int ch : {1, 3}) {
    const ImageU8 img = noise_u8(20, 10, ch, 5 + ch);
    const std::string path = (dir / ("vp_test_" + std::to_string(ch) + ".pnm")).string();
    write_pnm(path, img);
    EXPECT_EQ(read_pnm(path), img);
    fs::remove(path);
  }
}

TEST(Pnm, MissingFileThrows) {
  EXPECT_THROW(read_pnm("/nonexistent/vp.pgm"), IoError);
}

TEST(VideoModel, IntraFrameCostsLikeJpeg) {
  H264SizeModel model({.gop_length = 30, .intra_jpeg_quality = 60});
  const ImageU8 frame = noise_u8(64, 64, 1, 6);
  const std::size_t intra = model.frame_bytes(frame);
  const std::size_t jpeg = jpeg_encode(frame, 60).size();
  EXPECT_EQ(intra, jpeg);
}

TEST(VideoModel, StaticSceneInterFramesAreTiny) {
  H264SizeModel model;
  const ImageU8 frame = noise_u8(64, 64, 1, 7);
  const std::size_t intra = model.frame_bytes(frame);
  const std::size_t inter = model.frame_bytes(frame);  // identical frame
  EXPECT_LT(inter, intra / 5);
}

TEST(VideoModel, MotionIncreasesInterSize) {
  H264SizeModel model;
  const ImageU8 a = noise_u8(64, 64, 1, 8);
  const ImageU8 b = noise_u8(64, 64, 1, 9);  // fully different
  model.frame_bytes(a);
  const std::size_t inter_static = model.frame_bytes(a);
  model.reset();
  model.frame_bytes(a);
  const std::size_t inter_moving = model.frame_bytes(b);
  EXPECT_GT(inter_moving, inter_static * 3);
}

TEST(VideoModel, MotionEnergyBounds) {
  const ImageU8 a(8, 8, 1, 0);
  ImageU8 b(8, 8, 1, 255);
  EXPECT_DOUBLE_EQ(H264SizeModel::motion_energy(a, a), 0.0);
  EXPECT_DOUBLE_EQ(H264SizeModel::motion_energy(a, b), 1.0);
}

}  // namespace
}  // namespace vp
