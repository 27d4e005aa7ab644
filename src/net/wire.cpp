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
constexpr std::uint32_t kStatsReqMagic = 0x56505321u;   // "VPS!"
constexpr std::uint32_t kStatsRespMagic = 0x56505421u;  // "VPT!"
constexpr std::uint32_t kErrorMagic = 0x56504521u;      // "VPE!"
constexpr std::uint32_t kOracleReqMagic = 0x56505221u;  // "VPR!"
/// The one version every message encodes at. It is above every earlier
/// layout's (1-4), so a frame in one of those is rejected, never misread.
constexpr std::uint16_t kWireVersion = 5;

/// Flag bits of the u8 that follows the header of the three messages with
/// optional sections. Decoders reject any bit outside their mask.
constexpr std::uint8_t kQueryTraced = 0x01;   ///< trace tail present
constexpr std::uint8_t kQueryCompact = 0x02;  ///< PQ codes, not raw features
constexpr std::uint8_t kQueryFlagMask = kQueryTraced | kQueryCompact;
constexpr std::uint8_t kReplyTraced = 0x01;   ///< trace id + span block
constexpr std::uint8_t kOracleCodebook = 0x01;  ///< PQ codebook blob

/// Quarter-pixel fixed-point coordinate for the compact query feature.
std::uint16_t quantize_coord(float v) noexcept {
  const float scaled = v * kCompactCoordScale + 0.5f;
  if (!(scaled > 0.0f)) return 0;  // negatives and NaN clamp to 0
  if (scaled >= 65535.0f) return 65535;
  return static_cast<std::uint16_t>(scaled);
}

void expect_header(ByteReader& r, std::uint32_t magic, const char* what) {
  if (r.u32() != magic) throw DecodeError{std::string(what) + ": bad magic"};
  if (r.u16() != kWireVersion) {
    throw DecodeError{std::string(what) + ": unsupported version"};
  }
}

void write_header(ByteWriter& w, std::uint32_t magic) {
  w.u32(magic);
  w.u16(kWireVersion);
}

/// Header check plus the flags byte of a message with optional sections.
std::uint8_t read_flagged_header(ByteReader& r, std::uint32_t magic,
                                 std::uint8_t mask, const char* what) {
  expect_header(r, magic, what);
  const std::uint8_t flags = r.u8();
  if ((flags & ~mask) != 0) {
    throw DecodeError{std::string(what) + ": unknown flag bits"};
  }
  return flags;
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
  write_header(w, kQueryMagic);
  w.u8(static_cast<std::uint8_t>((trace_id != 0 ? kQueryTraced : 0) |
                                 (compact() ? kQueryCompact : 0)));
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
  } else {
    w.u32(static_cast<std::uint32_t>(features.size()));
    for (const auto& f : features) serialize_feature(f, w);
  }
  if (trace_id != 0) {
    w.u64(trace_id);
    w.u8(trace_flags);
  }
  return w.take();
}

FingerprintQuery FingerprintQuery::decode(std::span<const std::uint8_t> data) {
  VP_OBS_SPAN("decode");
  ByteReader r(data);
  const std::uint8_t flags =
      read_flagged_header(r, kQueryMagic, kQueryFlagMask, "fingerprint query");
  FingerprintQuery q;
  q.frame_id = r.u32();
  q.capture_time = r.f64();
  q.image_width = r.u16();
  q.image_height = r.u16();
  q.fov_h = r.f32();
  q.place = r.str();
  q.oracle_epoch = r.u32();
  if ((flags & kQueryCompact) != 0) {
    q.codebook_epoch = r.u32();
    if (q.codebook_epoch == 0) {
      throw DecodeError{"fingerprint query: compact frame with zero codebook "
                        "epoch"};
    }
    const std::uint32_t n = r.u32();
    // Validate the count against the bytes actually present before
    // reserving: a lying length field must throw, never over-allocate.
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
  } else {
    const std::uint32_t n = r.u32();
    if (static_cast<std::uint64_t>(n) * kFeatureWireBytes > r.remaining()) {
      throw DecodeError{"fingerprint query: feature count " +
                        std::to_string(n) + " exceeds payload"};
    }
    q.features.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      q.features.push_back(deserialize_feature(r));
    }
  }
  if ((flags & kQueryTraced) != 0) {
    q.trace_id = r.u64();
    q.trace_flags = r.u8();
    if (q.trace_id == 0) {
      throw DecodeError{"fingerprint query: traced frame with zero trace_id"};
    }
  }
  if (!r.done()) throw DecodeError{"fingerprint query: trailing bytes"};
  return q;
}

std::size_t FingerprintQuery::wire_size() const noexcept {
  const std::size_t head =
      4 + 2 + 1 + 4 + 8 + 2 + 2 + 4 + (4 + place.size()) + 4;
  const std::size_t body =
      compact() ? 4 + 4 + features.size() * kCompactFeatureWireBytes
                : 4 + features.size() * kFeatureWireBytes;
  return head + body + (trace_id != 0 ? 8 + 1 : 0);
}
Bytes FrameUpload::encode() const {
  ByteWriter w(32 + payload.size());
  write_header(w, kFrameMagic);
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
  write_header(w, kLocMagic);
  w.u8(trace_id != 0 ? kReplyTraced : 0);
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
  const std::uint8_t flags =
      read_flagged_header(r, kLocMagic, kReplyTraced, "location response");
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
  resp.place = r.str();
  if ((flags & kReplyTraced) != 0) {
    resp.trace_id = r.u64();
    if (resp.trace_id == 0) {
      throw DecodeError{"location response: traced frame with zero trace_id"};
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
  ByteWriter w(20 + place.size() + compressed.size() + codebook.size());
  write_header(w, kOracleMagic);
  w.u8(codebook.empty() ? 0 : kOracleCodebook);
  w.u32(epoch);
  w.str(place);
  w.blob(compressed);
  if (!codebook.empty()) w.blob(codebook);
  return w.take();
}

OracleDownload OracleDownload::decode(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  const std::uint8_t flags =
      read_flagged_header(r, kOracleMagic, kOracleCodebook, "oracle download");
  OracleDownload d;
  d.epoch = r.u32();
  d.place = r.str();
  const auto b = r.blob();
  d.compressed.assign(b.begin(), b.end());
  if ((flags & kOracleCodebook) != 0) {
    const auto cb = r.blob();
    // The codebook has exactly one valid size; anything else is corruption
    // (a codebook-less download clears the flag, never sends an empty blob).
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
  write_header(w, kOracleReqMagic);
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

Bytes ErrorResponse::encode() const {
  const std::string_view trimmed =
      std::string_view(message).substr(0, kMaxMessageBytes);
  ByteWriter w(16 + trimmed.size());
  write_header(w, kErrorMagic);
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
  write_header(w, kStatsReqMagic);
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
  write_header(w, kStatsRespMagic);
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
