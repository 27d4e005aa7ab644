#include "net/wire.hpp"

#include <algorithm>
#include <string_view>

#include "imaging/codec.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace vp {
namespace {

constexpr std::uint32_t kQueryMagic = 0x56505121u;   // "VPQ!"
constexpr std::uint32_t kFrameMagic = 0x56504621u;   // "VPF!"
constexpr std::uint32_t kLocMagic = 0x56504c21u;     // "VPL!"
constexpr std::uint32_t kOracleMagic = 0x56504f21u;  // "VPO!"
constexpr std::uint32_t kDiffMagic = 0x56504421u;    // "VPD!"
constexpr std::uint32_t kStatsReqMagic = 0x56505321u;   // "VPS!"
constexpr std::uint32_t kStatsRespMagic = 0x56505421u;  // "VPT!"
constexpr std::uint32_t kErrorMagic = 0x56504521u;      // "VPE!"
constexpr std::uint32_t kOracleReqMagic = 0x56505221u;  // "VPR!"
constexpr std::uint16_t kVersion = 1;
/// Messages that grew place/epoch fields for the sharded MapStore encode
/// at v2; their decoders still accept v1 frames (fields default).
constexpr std::uint16_t kPlacedVersion = 2;
/// Query/response pairs carrying cross-process trace context encode at v3
/// — but only when a nonzero trace_id is present, so untraced messages
/// stay byte-identical to v2 and pre-trace peers interoperate untouched.
constexpr std::uint16_t kTracedVersion = 3;
/// Compact-uplink queries (PQ codes instead of raw descriptors) encode at
/// v4 — only when codes are present, so raw queries keep their v2/v3
/// bytes. The v4 trace tail is unconditional (trace_id 0 allowed).
constexpr std::uint16_t kCompactVersion = 4;
/// Oracle downloads carrying the place's PQ codebook encode at v3; the
/// codebook-less message stays byte-identical v2.
constexpr std::uint16_t kCodebookVersion = 3;

/// Quarter-pixel fixed-point coordinate for the v4 compact feature.
std::uint16_t quantize_coord(float v) noexcept {
  const float scaled = v * kCompactCoordScale + 0.5f;
  if (!(scaled > 0.0f)) return 0;  // negatives and NaN clamp to 0
  if (scaled >= 65535.0f) return 65535;
  return static_cast<std::uint16_t>(scaled);
}

void expect_header(ByteReader& r, std::uint32_t magic, const char* what) {
  if (r.u32() != magic) throw DecodeError{std::string(what) + ": bad magic"};
  if (r.u16() != kVersion) {
    throw DecodeError{std::string(what) + ": unsupported version"};
  }
}

/// Header check for the place/epoch-aware messages: accepts versions
/// 1..max_version and returns the one on the wire.
std::uint16_t read_header_upto(ByteReader& r, std::uint32_t magic,
                               std::uint16_t max_version, const char* what) {
  if (r.u32() != magic) throw DecodeError{std::string(what) + ": bad magic"};
  const std::uint16_t version = r.u16();
  if (version < 1 || version > max_version) {
    throw DecodeError{std::string(what) + ": unsupported version"};
  }
  return version;
}

}  // namespace

Bytes FingerprintQuery::encode() const {
  VP_OBS_SPAN("encode");
  if (compact()) {
    VP_REQUIRE(codes.size() == features.size() * kPqCodeBytes,
               "fingerprint query: codes do not cover the features");
    VP_REQUIRE(codebook_epoch != 0,
               "fingerprint query: compact encode needs a codebook epoch");
  }
  ByteWriter w(wire_size());
  w.u32(kQueryMagic);
  w.u16(compact() ? kCompactVersion
                  : (trace_id != 0 ? kTracedVersion : kPlacedVersion));
  w.u32(frame_id);
  w.f64(capture_time);
  w.u16(image_width);
  w.u16(image_height);
  w.f32(fov_h);
  w.str(place);
  w.u32(oracle_epoch);
  if (compact()) {
    w.u32(codebook_epoch);
    w.u32(static_cast<std::uint32_t>(features.size()));
    for (std::size_t i = 0; i < features.size(); ++i) {
      w.u16(quantize_coord(features[i].keypoint.x));
      w.u16(quantize_coord(features[i].keypoint.y));
      w.raw(std::span<const std::uint8_t>(codes.data() + i * kPqCodeBytes,
                                          kPqCodeBytes));
    }
    // The trace tail is unconditional in v4: the version byte already
    // departed from the v2/v3 stream, so there is no compat reason to
    // make the tail optional, and trace_id 0 (untraced) stays encodable.
    w.u64(trace_id);
    w.u8(trace_flags);
    return w.take();
  }
  w.u32(static_cast<std::uint32_t>(features.size()));
  for (const auto& f : features) serialize_feature(f, w);
  if (trace_id != 0) {
    w.u64(trace_id);
    w.u8(trace_flags);
  }
  return w.take();
}

FingerprintQuery FingerprintQuery::decode(std::span<const std::uint8_t> data) {
  VP_OBS_SPAN("decode");
  ByteReader r(data);
  const std::uint16_t version =
      read_header_upto(r, kQueryMagic, kCompactVersion, "fingerprint query");
  FingerprintQuery q;
  q.frame_id = r.u32();
  q.capture_time = r.f64();
  q.image_width = r.u16();
  q.image_height = r.u16();
  q.fov_h = r.f32();
  if (version >= 2) {
    q.place = r.str();
    q.oracle_epoch = r.u32();
  }
  if (version == kCompactVersion) {
    q.codebook_epoch = r.u32();
    if (q.codebook_epoch == 0) {
      throw DecodeError{"fingerprint query: v4 frame with zero codebook epoch"};
    }
    const std::uint32_t n = r.u32();
    if (static_cast<std::uint64_t>(n) * kCompactFeatureWireBytes >
        r.remaining()) {
      throw DecodeError{"fingerprint query: compact feature count " +
                        std::to_string(n) + " exceeds payload"};
    }
    q.features.resize(n);
    q.codes.reserve(static_cast<std::size_t>(n) * kPqCodeBytes);
    for (std::uint32_t i = 0; i < n; ++i) {
      // Only pixel position survives the compact format; scale/orientation
      // default to 0 (the localization pipeline never reads them) and the
      // raw descriptor stays zeroed — ranking goes through the codes.
      q.features[i].keypoint.x =
          static_cast<float>(r.u16()) / kCompactCoordScale;
      q.features[i].keypoint.y =
          static_cast<float>(r.u16()) / kCompactCoordScale;
      const auto code = r.raw(kPqCodeBytes);
      q.codes.insert(q.codes.end(), code.begin(), code.end());
    }
    q.trace_id = r.u64();
    q.trace_flags = r.u8();
    if (!r.done()) throw DecodeError{"fingerprint query: trailing bytes"};
    return q;
  }
  const std::uint32_t n = r.u32();
  // Validate the count against the bytes actually present before reserving:
  // a lying length field must throw, never over-allocate.
  if (static_cast<std::uint64_t>(n) * kFeatureWireBytes > r.remaining()) {
    throw DecodeError{"fingerprint query: feature count " + std::to_string(n) +
                      " exceeds payload"};
  }
  q.features.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    q.features.push_back(deserialize_feature(r));
  }
  if (version >= 3) {
    q.trace_id = r.u64();
    q.trace_flags = r.u8();
    if (q.trace_id == 0) {
      throw DecodeError{"fingerprint query: v3 frame with zero trace_id"};
    }
  }
  if (!r.done()) throw DecodeError{"fingerprint query: trailing bytes"};
  return q;
}

std::size_t FingerprintQuery::wire_size() const noexcept {
  const std::size_t head = 4 + 2 + 4 + 8 + 2 + 2 + 4 + (4 + place.size()) + 4;
  if (compact()) {
    return head + 4 + 4 + features.size() * kCompactFeatureWireBytes + 8 + 1;
  }
  return head + 4 + features.size() * kFeatureWireBytes +
         (trace_id != 0 ? 8 + 1 : 0);
}

Bytes FrameUpload::encode() const {
  ByteWriter w(32 + payload.size());
  w.u32(kFrameMagic);
  w.u16(kVersion);
  w.u32(frame_id);
  w.f64(capture_time);
  w.u8(codec);
  w.blob(payload);
  return w.take();
}

FrameUpload FrameUpload::decode(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  expect_header(r, kFrameMagic, "frame upload");
  FrameUpload f;
  f.frame_id = r.u32();
  f.capture_time = r.f64();
  f.codec = r.u8();
  const auto b = r.blob();
  f.payload.assign(b.begin(), b.end());
  if (!r.done()) throw DecodeError{"frame upload: trailing bytes"};
  return f;
}

Bytes LocationResponse::encode() const {
  ByteWriter w(96 + place_label.size() + place.size() +
               (trace_id != 0 ? 16 + server_spans.size() * 32 : 0));
  w.u32(kLocMagic);
  w.u16(trace_id != 0 ? kTracedVersion : kPlacedVersion);
  w.u32(frame_id);
  w.u8(found ? 1 : 0);
  w.f64(position.x);
  w.f64(position.y);
  w.f64(position.z);
  w.f64(yaw);
  w.f64(pitch);
  w.f64(roll);
  w.f64(residual);
  w.u32(matched_keypoints);
  w.str(place_label);
  w.str(place);
  if (trace_id != 0) {
    w.u64(trace_id);
    const std::size_t count =
        std::min(server_spans.size(), WireSpan::kMaxWireSpans);
    w.u8(static_cast<std::uint8_t>(count));
    for (std::size_t i = 0; i < count; ++i) {
      const WireSpan& s = server_spans[i];
      // Stage names are short literals; 255 bytes is generous headroom.
      const std::string_view name = std::string_view(s.name).substr(0, 255);
      w.u8(static_cast<std::uint8_t>(name.size()));
      w.raw(std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(name.data()), name.size()));
      w.u16(static_cast<std::uint16_t>(s.parent));
      w.f32(s.start_ms);
      w.f32(s.duration_ms);
    }
  }
  return w.take();
}

LocationResponse LocationResponse::decode(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  const std::uint16_t version =
      read_header_upto(r, kLocMagic, kTracedVersion, "location response");
  LocationResponse resp;
  resp.frame_id = r.u32();
  resp.found = r.u8() != 0;
  resp.position = {r.f64(), r.f64(), r.f64()};
  resp.yaw = r.f64();
  resp.pitch = r.f64();
  resp.roll = r.f64();
  resp.residual = r.f64();
  resp.matched_keypoints = r.u32();
  resp.place_label = r.str();
  if (version >= 2) resp.place = r.str();
  if (version >= 3) {
    resp.trace_id = r.u64();
    if (resp.trace_id == 0) {
      throw DecodeError{"location response: v3 frame with zero trace_id"};
    }
    const std::uint8_t count = r.u8();
    if (count > WireSpan::kMaxWireSpans) {
      throw DecodeError{"location response: span block too large"};
    }
    resp.server_spans.reserve(count);
    for (std::uint8_t i = 0; i < count; ++i) {
      WireSpan s;
      const std::uint8_t name_len = r.u8();
      const auto name = r.raw(name_len);
      s.name.assign(reinterpret_cast<const char*>(name.data()), name.size());
      s.parent = static_cast<std::int16_t>(r.u16());
      // A parent must precede its child in the block (-1 = root); anything
      // else is corruption and would break tree reconstruction downstream.
      if (s.parent < -1 || s.parent >= static_cast<std::int16_t>(i)) {
        throw DecodeError{"location response: span parent out of range"};
      }
      s.start_ms = r.f32();
      s.duration_ms = r.f32();
      resp.server_spans.push_back(std::move(s));
    }
  }
  if (!r.done()) throw DecodeError{"location response: trailing bytes"};
  return resp;
}

OracleDownload OracleDownload::pack(const UniquenessOracle& oracle,
                                    std::uint32_t epoch, std::string place,
                                    std::span<const std::uint8_t> codebook,
                                    ThreadPool* pool) {
  OracleDownload d;
  d.epoch = epoch;
  d.place = std::move(place);
  d.compressed = zlib_compress(oracle.serialize(), 9, pool);
  d.codebook.assign(codebook.begin(), codebook.end());
  return d;
}

UniquenessOracle OracleDownload::unpack() const {
  return UniquenessOracle::deserialize(zlib_decompress(compressed));
}

Bytes OracleDownload::encode() const {
  ByteWriter w(16 + place.size() + compressed.size() + codebook.size());
  w.u32(kOracleMagic);
  w.u16(codebook.empty() ? kPlacedVersion : kCodebookVersion);
  w.u32(epoch);
  w.str(place);
  w.blob(compressed);
  if (!codebook.empty()) w.blob(codebook);
  return w.take();
}

OracleDownload OracleDownload::decode(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  const std::uint16_t version =
      read_header_upto(r, kOracleMagic, kCodebookVersion, "oracle download");
  OracleDownload d;
  d.epoch = r.u32();  // v1 frames: the old `version` counter reads as epoch
  if (version >= 2) d.place = r.str();
  const auto b = r.blob();
  d.compressed.assign(b.begin(), b.end());
  if (version >= kCodebookVersion) {
    const auto cb = r.blob();
    // The v3 codebook payload has exactly one valid size; anything else is
    // corruption (a codebook-less download encodes as v2, never as an
    // empty v3 blob).
    if (cb.size() != kPqCodebookBytes) {
      throw DecodeError{"oracle download: codebook payload of " +
                        std::to_string(cb.size()) + " bytes"};
    }
    d.codebook.assign(cb.begin(), cb.end());
  }
  if (!r.done()) throw DecodeError{"oracle download: trailing bytes"};
  return d;
}

Bytes OracleRequest::encode() const {
  ByteWriter w(16 + place.size());
  w.u32(kOracleReqMagic);
  w.u16(kVersion);
  w.str(place);
  return w.take();
}

OracleRequest OracleRequest::decode(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  expect_header(r, kOracleReqMagic, "oracle request");
  OracleRequest q;
  q.place = r.str();
  if (!r.done()) throw DecodeError{"oracle request: trailing bytes"};
  return q;
}

OracleDiff OracleDiff::make(std::span<const std::uint8_t> old_blob,
                            std::span<const std::uint8_t> new_blob,
                            std::uint32_t from_version,
                            std::uint32_t to_version) {
  // XOR against the old blob (zero-padded); unsaturated Bloom words rarely
  // change between refreshes, so the XOR is mostly zeros and compresses
  // far better than a full snapshot.
  Bytes x(new_blob.size());
  for (std::size_t i = 0; i < new_blob.size(); ++i) {
    x[i] = new_blob[i] ^ (i < old_blob.size() ? old_blob[i] : 0);
  }
  OracleDiff d;
  d.from_version = from_version;
  d.to_version = to_version;
  ByteWriter w(8 + x.size());
  w.u64(new_blob.size());
  w.raw(x);
  d.compressed_xor = zlib_compress(w.bytes(), 9);
  return d;
}

Bytes OracleDiff::apply(std::span<const std::uint8_t> old_blob) const {
  const Bytes raw = zlib_decompress(compressed_xor);
  ByteReader r(raw);
  const std::uint64_t new_size = r.u64();
  const auto x = r.raw(static_cast<std::size_t>(new_size));
  Bytes out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = x[i] ^ (i < old_blob.size() ? old_blob[i] : 0);
  }
  return out;
}

Bytes OracleDiff::encode() const {
  ByteWriter w(24 + compressed_xor.size());
  w.u32(kDiffMagic);
  w.u16(kVersion);
  w.u32(from_version);
  w.u32(to_version);
  w.blob(compressed_xor);
  return w.take();
}

OracleDiff OracleDiff::decode(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  expect_header(r, kDiffMagic, "oracle diff");
  OracleDiff d;
  d.from_version = r.u32();
  d.to_version = r.u32();
  const auto b = r.blob();
  d.compressed_xor.assign(b.begin(), b.end());
  if (!r.done()) throw DecodeError{"oracle diff: trailing bytes"};
  return d;
}

Bytes ErrorResponse::encode() const {
  const std::string_view trimmed =
      std::string_view(message).substr(0, kMaxMessageBytes);
  ByteWriter w(16 + trimmed.size());
  w.u32(kErrorMagic);
  w.u16(kVersion);
  w.u16(code);
  w.str(trimmed);
  return w.take();
}

ErrorResponse ErrorResponse::decode(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  expect_header(r, kErrorMagic, "error response");
  ErrorResponse e;
  e.code = r.u16();
  if (e.code == 0 || e.code > kStaleOracle) {
    throw DecodeError{"error response: unknown code"};
  }
  e.message = r.str();
  if (e.message.size() > kMaxMessageBytes) {
    throw DecodeError{"error response: oversized message"};
  }
  if (!r.done()) throw DecodeError{"error response: trailing bytes"};
  return e;
}

bool is_error_frame(std::span<const std::uint8_t> frame) noexcept {
  if (frame.size() < 4) return false;
  const std::uint32_t magic = static_cast<std::uint32_t>(frame[0]) |
                              (static_cast<std::uint32_t>(frame[1]) << 8) |
                              (static_cast<std::uint32_t>(frame[2]) << 16) |
                              (static_cast<std::uint32_t>(frame[3]) << 24);
  return magic == kErrorMagic;
}

Bytes StatsRequest::encode() const {
  ByteWriter w(8);
  w.u32(kStatsReqMagic);
  w.u16(kVersion);
  w.u8(format);
  return w.take();
}

StatsRequest StatsRequest::decode(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  expect_header(r, kStatsReqMagic, "stats request");
  StatsRequest q;
  q.format = r.u8();
  if (q.format > kFormatSlowLog) {
    throw DecodeError{"stats request: unknown format"};
  }
  if (!r.done()) throw DecodeError{"stats request: trailing bytes"};
  return q;
}

Bytes StatsResponse::encode() const {
  ByteWriter w(16 + text.size());
  w.u32(kStatsRespMagic);
  w.u16(kVersion);
  w.u8(format);
  w.str(text);
  return w.take();
}

StatsResponse StatsResponse::decode(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  expect_header(r, kStatsRespMagic, "stats response");
  StatsResponse resp;
  resp.format = r.u8();
  resp.text = r.str();
  if (!r.done()) throw DecodeError{"stats response: trailing bytes"};
  return resp;
}

}  // namespace vp
