#include "imaging/codec.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <csetjmp>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include <jpeglib.h>
#include <png.h>
#include <zlib.h>

#include "util/thread_pool.hpp"

namespace vp {
namespace {

// libjpeg reports fatal errors through a callback; convert to exceptions
// via longjmp out of the library (the documented pattern), then throw.
struct JpegErrorMgr {
  jpeg_error_mgr pub;
  std::jmp_buf jump;
  char message[JMSG_LENGTH_MAX] = {};
};

void jpeg_error_exit(j_common_ptr cinfo) {
  auto* err = reinterpret_cast<JpegErrorMgr*>(cinfo->err);
  (*cinfo->err->format_message)(cinfo, err->message);
  std::longjmp(err->jump, 1);
}

}  // namespace

Bytes jpeg_encode(const ImageU8& img, int quality) {
  VP_REQUIRE(!img.empty(), "jpeg_encode: empty image");
  VP_REQUIRE(img.channels() == 1 || img.channels() == 3,
             "jpeg_encode: 1 or 3 channels required");
  VP_REQUIRE(quality >= 1 && quality <= 100, "jpeg quality in [1,100]");

  jpeg_compress_struct cinfo{};
  JpegErrorMgr err{};
  cinfo.err = jpeg_std_error(&err.pub);
  err.pub.error_exit = jpeg_error_exit;

  unsigned char* out_buf = nullptr;
  unsigned long out_size = 0;

  if (setjmp(err.jump)) {
    jpeg_destroy_compress(&cinfo);
    std::free(out_buf);
    throw IoError{std::string("jpeg encode: ") + err.message};
  }

  jpeg_create_compress(&cinfo);
  jpeg_mem_dest(&cinfo, &out_buf, &out_size);

  cinfo.image_width = static_cast<JDIMENSION>(img.width());
  cinfo.image_height = static_cast<JDIMENSION>(img.height());
  cinfo.input_components = img.channels();
  cinfo.in_color_space = img.channels() == 1 ? JCS_GRAYSCALE : JCS_RGB;
  jpeg_set_defaults(&cinfo);
  jpeg_set_quality(&cinfo, quality, TRUE);
  jpeg_start_compress(&cinfo, TRUE);

  while (cinfo.next_scanline < cinfo.image_height) {
    // libjpeg takes a non-const row pointer but does not modify input rows.
    JSAMPROW row = const_cast<JSAMPROW>(
        img.row(static_cast<int>(cinfo.next_scanline)));
    jpeg_write_scanlines(&cinfo, &row, 1);
  }
  jpeg_finish_compress(&cinfo);
  jpeg_destroy_compress(&cinfo);

  Bytes out(out_buf, out_buf + out_size);
  std::free(out_buf);
  return out;
}

ImageU8 jpeg_decode(std::span<const std::uint8_t> data) {
  jpeg_decompress_struct cinfo{};
  JpegErrorMgr err{};
  cinfo.err = jpeg_std_error(&err.pub);
  err.pub.error_exit = jpeg_error_exit;

  if (setjmp(err.jump)) {
    jpeg_destroy_decompress(&cinfo);
    throw DecodeError{std::string("jpeg decode: ") + err.message};
  }

  jpeg_create_decompress(&cinfo);
  jpeg_mem_src(&cinfo, data.data(), static_cast<unsigned long>(data.size()));
  if (jpeg_read_header(&cinfo, TRUE) != JPEG_HEADER_OK) {
    jpeg_destroy_decompress(&cinfo);
    throw DecodeError{"jpeg decode: bad header"};
  }
  jpeg_start_decompress(&cinfo);

  ImageU8 img(static_cast<int>(cinfo.output_width),
              static_cast<int>(cinfo.output_height),
              static_cast<int>(cinfo.output_components));
  while (cinfo.output_scanline < cinfo.output_height) {
    JSAMPROW row = img.row(static_cast<int>(cinfo.output_scanline));
    jpeg_read_scanlines(&cinfo, &row, 1);
  }
  jpeg_finish_decompress(&cinfo);
  jpeg_destroy_decompress(&cinfo);
  return img;
}

namespace {

void png_write_to_vector(png_structp png, png_bytep data, png_size_t len) {
  auto* out = static_cast<Bytes*>(png_get_io_ptr(png));
  out->insert(out->end(), data, data + len);
}

struct PngReadState {
  std::span<const std::uint8_t> data;
  std::size_t pos = 0;
};

void png_read_from_span(png_structp png, png_bytep out, png_size_t len) {
  auto* st = static_cast<PngReadState*>(png_get_io_ptr(png));
  if (st->pos + len > st->data.size()) {
    png_error(png, "png stream truncated");
  }
  std::memcpy(out, st->data.data() + st->pos, len);
  st->pos += len;
}

}  // namespace

Bytes png_encode(const ImageU8& img) {
  VP_REQUIRE(!img.empty(), "png_encode: empty image");
  VP_REQUIRE(img.channels() == 1 || img.channels() == 3,
             "png_encode: 1 or 3 channels required");

  png_structp png =
      png_create_write_struct(PNG_LIBPNG_VER_STRING, nullptr, nullptr, nullptr);
  VP_ASSERT(png != nullptr);
  png_infop info = png_create_info_struct(png);
  VP_ASSERT(info != nullptr);

  Bytes out;
  if (setjmp(png_jmpbuf(png))) {
    png_destroy_write_struct(&png, &info);
    throw IoError{"png encode failed"};
  }
  png_set_write_fn(png, &out, png_write_to_vector, nullptr);
  png_set_IHDR(png, info, static_cast<png_uint_32>(img.width()),
               static_cast<png_uint_32>(img.height()), 8,
               img.channels() == 1 ? PNG_COLOR_TYPE_GRAY : PNG_COLOR_TYPE_RGB,
               PNG_INTERLACE_NONE, PNG_COMPRESSION_TYPE_DEFAULT,
               PNG_FILTER_TYPE_DEFAULT);
  png_write_info(png, info);
  for (int y = 0; y < img.height(); ++y) {
    png_write_row(png, const_cast<png_bytep>(img.row(y)));
  }
  png_write_end(png, nullptr);
  png_destroy_write_struct(&png, &info);
  return out;
}

ImageU8 png_decode(std::span<const std::uint8_t> data) {
  png_structp png =
      png_create_read_struct(PNG_LIBPNG_VER_STRING, nullptr, nullptr, nullptr);
  VP_ASSERT(png != nullptr);
  png_infop info = png_create_info_struct(png);
  VP_ASSERT(info != nullptr);

  PngReadState st{data};
  if (setjmp(png_jmpbuf(png))) {
    png_destroy_read_struct(&png, &info, nullptr);
    throw DecodeError{"png decode failed"};
  }
  png_set_read_fn(png, &st, png_read_from_span);
  png_read_info(png, info);

  const auto width = png_get_image_width(png, info);
  const auto height = png_get_image_height(png, info);
  const auto color = png_get_color_type(png, info);
  const auto depth = png_get_bit_depth(png, info);

  if (depth == 16) png_set_strip_16(png);
  if (color == PNG_COLOR_TYPE_PALETTE) png_set_palette_to_rgb(png);
  if (color == PNG_COLOR_TYPE_GRAY && depth < 8) png_set_expand_gray_1_2_4_to_8(png);
  if (png_get_valid(png, info, PNG_INFO_tRNS)) png_set_tRNS_to_alpha(png);
  if (color & PNG_COLOR_MASK_ALPHA) png_set_strip_alpha(png);
  png_read_update_info(png, info);

  const int channels = static_cast<int>(png_get_channels(png, info));
  ImageU8 img(static_cast<int>(width), static_cast<int>(height), channels);
  for (int y = 0; y < img.height(); ++y) {
    png_read_row(png, img.row(y), nullptr);
  }
  png_read_end(png, nullptr);
  png_destroy_read_struct(&png, &info, nullptr);
  return img;
}

namespace {

/// Input bytes per independently deflated piece of a zlib_compress stream.
/// A constant, not an option: the stream's bytes depend on it.
constexpr std::size_t kDeflateChunk = std::size_t{1} << 20;
/// Preset dictionary of every chunk after the first: deflate's window.
constexpr std::size_t kDeflateWindow = std::size_t{32} << 10;

/// Input of chunk `i`.
std::span<const std::uint8_t> chunk_of(std::span<const std::uint8_t> data,
                                       std::size_t i) {
  const std::size_t lo = i * kDeflateChunk;
  return data.subspan(lo, std::min(kDeflateChunk, data.size() - lo));
}

/// Deflate chunk `i` of `data`: chunk 0 zlib-wrapped, later chunks raw and
/// primed with the preceding window of input; the last chunk finishes the
/// deflate stream, every other one ends on a byte-aligned sync flush.
Bytes deflate_chunk(std::span<const std::uint8_t> data, std::size_t i,
                    int level) {
  const std::size_t lo = i * kDeflateChunk;
  const std::span<const std::uint8_t> in = chunk_of(data, i);
  const bool last = lo + in.size() == data.size();
  z_stream zs{};
  // windowBits 15 / memLevel 8 / default strategy: compress2()'s settings.
  if (deflateInit2(&zs, level, Z_DEFLATED, i == 0 ? 15 : -15, 8,
                   Z_DEFAULT_STRATEGY) != Z_OK) {
    throw IoError{"zlib deflateInit failed"};
  }
  const std::unique_ptr<z_stream, int (*)(z_streamp)> end(&zs, deflateEnd);
  if (i != 0) {
    const std::size_t dict = std::min(lo, kDeflateWindow);
    if (deflateSetDictionary(&zs, data.data() + lo - dict,
                             static_cast<uInt>(dict)) != Z_OK) {
      throw IoError{"zlib deflateSetDictionary failed"};
    }
  }
  zs.next_in = const_cast<Bytef*>(in.data());
  zs.avail_in = static_cast<uInt>(in.size());

  // Output streams through a small fixed buffer: a deflateBound-sized one
  // would reserve over a megabyte per running chunk, mostly never written.
  Bytes out;
  std::array<std::uint8_t, 16 * 1024> buf{};
  const auto step = [&](int flush) {
    zs.next_out = buf.data();
    zs.avail_out = static_cast<uInt>(buf.size());
    const int rc = deflate(&zs, flush);
    if (rc == Z_STREAM_ERROR) throw IoError{"zlib deflate failed"};
    out.insert(out.end(), buf.data(),
               buf.data() + (buf.size() - zs.avail_out));
    return rc;
  };
  if (last) {
    while (step(Z_FINISH) != Z_STREAM_END) {
    }
    return out;
  }
  // Z_BLOCK drains all input and closes the open block; then the sync
  // flush adds only its empty stored block (a few bytes). Calling
  // Z_SYNC_FLUSH directly could, when a return fills the buffer exactly,
  // emit a second empty block on the follow-up call.
  do {
    step(Z_BLOCK);
  } while (zs.avail_out == 0);
  step(Z_SYNC_FLUSH);
  VP_ASSERT(zs.avail_in == 0 && zs.avail_out != 0);
  return out;
}

/// One multi-chunk compression, shared by the calling thread and its pool
/// helpers. Held by shared_ptr: a helper that starts after the call
/// returned still finds valid state, claims no chunk, and exits.
struct DeflateJob {
  DeflateJob(std::span<const std::uint8_t> d, int l, std::size_t n)
      : data(d), level(l), chunks(n), out(n), adler(n) {}

  /// Compress chunks until none is left to claim.
  void drain() {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= chunks) return;
      std::exception_ptr failure;
      try {
        out[i] = deflate_chunk(data, i, level);
        const auto in = chunk_of(data, i);
        adler[i] = ::adler32(1L, in.data(), static_cast<uInt>(in.size()));
      } catch (...) {
        failure = std::current_exception();
      }
      std::lock_guard lock(mutex);
      if (failure && !error) error = failure;
      if (++done == chunks) all_done.notify_all();
    }
  }

  const std::span<const std::uint8_t> data;  ///< valid while chunks run
  const int level;
  const std::size_t chunks;
  std::atomic<std::size_t> next{0};  ///< next unclaimed chunk
  std::vector<Bytes> out;            ///< per chunk; read after all done
  std::vector<uLong> adler;          ///< adler32 of each chunk's input
  std::mutex mutex;
  std::condition_variable all_done;
  std::size_t done = 0;       ///< finished chunks, under mutex
  std::exception_ptr error;   ///< first failure, under mutex
};

}  // namespace

Bytes zlib_compress(std::span<const std::uint8_t> data, int level,
                    ThreadPool* pool) {
  VP_REQUIRE(level >= 1 && level <= 9, "zlib level in [1,9]");
  const std::size_t chunks =
      std::max<std::size_t>(1, (data.size() + kDeflateChunk - 1) /
                                   kDeflateChunk);
  if (chunks == 1) return deflate_chunk(data, 0, level);

  const auto job = std::make_shared<DeflateJob>(data, level, chunks);
  // Not parallel_for: that waits for every block it queues, and a worker
  // can be held for a long time (TcpListener::serve keeps one per open
  // connection). Here the caller takes part and waits only for chunks a
  // helper has claimed, so queued helpers that never run delay nothing.
  if (pool != nullptr && !pool->on_worker_thread()) {
    const std::size_t helpers = std::min(pool->thread_count(), chunks - 1);
    for (std::size_t h = 0; h < helpers; ++h) {
      pool->submit([job] { job->drain(); });
    }
  }
  job->drain();
  {
    std::unique_lock lock(job->mutex);
    job->all_done.wait(lock, [&] { return job->done == chunks; });
    if (job->error) std::rethrow_exception(job->error);
  }

  std::size_t total = 4;  // + the adler32 trailer
  for (const Bytes& piece : job->out) total += piece.size();
  Bytes out;
  out.reserve(total);
  uLong adler = job->adler[0];
  for (std::size_t i = 0; i < chunks; ++i) {
    out.insert(out.end(), job->out[i].begin(), job->out[i].end());
    if (i != 0) {
      adler = adler32_combine(adler, job->adler[i],
                              static_cast<z_off_t>(chunk_of(data, i).size()));
    }
  }
  for (int shift = 24; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>(adler >> shift));
  }
  return out;
}

Bytes zlib_decompress(std::span<const std::uint8_t> data) {
  z_stream zs{};
  if (inflateInit(&zs) != Z_OK) throw IoError{"zlib inflateInit failed"};
  zs.next_in = const_cast<Bytef*>(data.data());
  zs.avail_in = static_cast<uInt>(data.size());

  Bytes out;
  Bytes chunk(64 * 1024);
  int rc = Z_OK;
  while (rc != Z_STREAM_END) {
    zs.next_out = chunk.data();
    zs.avail_out = static_cast<uInt>(chunk.size());
    rc = inflate(&zs, Z_NO_FLUSH);
    if (rc != Z_OK && rc != Z_STREAM_END) {
      inflateEnd(&zs);
      throw DecodeError{"zlib stream corrupt"};
    }
    out.insert(out.end(), chunk.data(),
               chunk.data() + (chunk.size() - zs.avail_out));
    if (rc == Z_OK && zs.avail_out != 0 && zs.avail_in == 0) {
      inflateEnd(&zs);
      throw DecodeError{"zlib stream truncated"};
    }
  }
  inflateEnd(&zs);
  return out;
}

std::uint32_t crc32_of(std::span<const std::uint8_t> data) noexcept {
  return static_cast<std::uint32_t>(
      ::crc32(0L, data.empty() ? Z_NULL : data.data(),
              static_cast<uInt>(data.size())));
}

}  // namespace vp
