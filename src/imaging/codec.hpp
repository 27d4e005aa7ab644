// Lossless / lossy codec wrappers used for honest byte counts in the
// bandwidth experiments (Figs. 2, 3, 5, 14) and for the GZIP-compressed
// oracle downloads. RAII wrappers around libjpeg, libpng, and zlib.
#pragma once

#include <cstdint>

#include "imaging/image.hpp"
#include "util/bytes.hpp"

namespace vp {

class ThreadPool;

/// Encode an interleaved 1- or 3-channel u8 image as JPEG at the given
/// quality (1..100).
Bytes jpeg_encode(const ImageU8& img, int quality);

/// Decode a JPEG byte stream (grayscale or RGB output matching the stream).
ImageU8 jpeg_decode(std::span<const std::uint8_t> data);

/// Encode a 1- or 3-channel u8 image as PNG (lossless, zlib level 6).
Bytes png_encode(const ImageU8& img);

/// Decode a PNG byte stream.
ImageU8 png_decode(std::span<const std::uint8_t> data);

/// zlib (DEFLATE) compression of an arbitrary byte blob.
/// level in [1..9]; the paper's "heavy GZIP" corresponds to level 9.
///
/// The input is deflated in fixed 1 MiB chunks, each primed with the 32 KiB
/// of input before it, and the pieces form one standard zlib stream (sync-
/// flush points between chunks, adler32 of the whole input at the end), so
/// zlib_decompress and any inflater read it unchanged. An input of 1 MiB or
/// less encodes byte-identically to zlib's compress2(). The bytes depend
/// only on (data, level). `pool`, when given, compresses chunks on up to
/// thread_count() helper tasks beside the calling thread, which compresses
/// chunks itself and waits only for chunks a helper has already started, so
/// a pool whose workers are all busy delays nothing. Called from one of the
/// pool's own workers, it runs inline.
Bytes zlib_compress(std::span<const std::uint8_t> data, int level = 9,
                    ThreadPool* pool = nullptr);

/// Inverse of zlib_compress. Throws DecodeError on corrupt input.
Bytes zlib_decompress(std::span<const std::uint8_t> data);

/// CRC-32 (zlib polynomial) of a byte span; 0 for an empty span. Used to
/// checksum the uncompressed v4 database segments, which bypass zlib's
/// own integrity check precisely because they are stored raw for mmap.
std::uint32_t crc32_of(std::span<const std::uint8_t> data) noexcept;

}  // namespace vp
