#include <gtest/gtest.h>

#include <string_view>

#include "imaging/codec.hpp"
#include "net/link.hpp"
#include "net/wire.hpp"
#include "util/rng.hpp"

namespace vp {
namespace {

FingerprintQuery sample_query(std::size_t n_features) {
  FingerprintQuery q;
  q.frame_id = 7;
  q.capture_time = 1.25;
  q.image_width = 920;
  q.image_height = 540;
  q.fov_h = 1.1f;
  q.features.resize(n_features);
  for (std::size_t i = 0; i < n_features; ++i) {
    q.features[i].keypoint.x = static_cast<float>(i);
    q.features[i].descriptor[i % kDescriptorDims] =
        static_cast<std::uint8_t>(i);
  }
  return q;
}

/// A compact query: arbitrary code bytes (wire tests need no trained
/// codebook), quarter-pixel-friendly coordinates, and a codebook epoch.
FingerprintQuery sample_compact_query(std::size_t n_features) {
  FingerprintQuery q = sample_query(n_features);
  q.place = "atrium";
  q.oracle_epoch = 2;
  q.codebook_epoch = 2;
  for (std::size_t i = 0; i < n_features; ++i) {
    q.features[i].keypoint.x = static_cast<float>(i) + 0.25f;
    q.features[i].keypoint.y = 3.5f;
  }
  q.codes.resize(n_features * kPqCodeBytes);
  for (std::size_t b = 0; b < q.codes.size(); ++b) {
    q.codes[b] = static_cast<std::uint8_t>(b * 37 + 5);
  }
  return q;
}

/// Every message encodes at one version; the flagged messages follow the
/// u16 (little-endian, at offset 4) with their flags byte at offset 6.
constexpr int kWireVersion = 5;

int wire_version(std::span<const std::uint8_t> b) { return b[4] | (b[5] << 8); }

TEST(Wire, FingerprintQueryRoundtrip) {
  const FingerprintQuery q = sample_query(5);
  const Bytes b = q.encode();
  EXPECT_EQ(b.size(), q.wire_size());
  const FingerprintQuery back = FingerprintQuery::decode(b);
  EXPECT_EQ(back.frame_id, 7u);
  EXPECT_DOUBLE_EQ(back.capture_time, 1.25);
  EXPECT_EQ(back.image_width, 920);
  ASSERT_EQ(back.features.size(), 5u);
  EXPECT_EQ(back.features[3].keypoint.x, 3.0f);
  EXPECT_EQ(back.features[4].descriptor[4], 4);
  EXPECT_TRUE(back.place.empty());
  EXPECT_EQ(back.oracle_epoch, 0u);
}

TEST(Wire, FingerprintQueryCarriesPlaceAndEpoch) {
  FingerprintQuery q = sample_query(2);
  q.place = "louvre-denon";
  q.oracle_epoch = 9;
  const Bytes b = q.encode();
  EXPECT_EQ(b.size(), q.wire_size());
  const FingerprintQuery back = FingerprintQuery::decode(b);
  EXPECT_EQ(back.place, "louvre-denon");
  EXPECT_EQ(back.oracle_epoch, 9u);
  ASSERT_EQ(back.features.size(), 2u);
}

TEST(Wire, FingerprintQueryV3TraceRoundtrip) {
  FingerprintQuery q = sample_query(3);
  q.place = "atrium";
  q.oracle_epoch = 4;
  q.trace_id = 0xDEADBEEFCAFE0123ull;
  q.trace_flags = 0x01;  // sampled
  const Bytes b = q.encode();
  EXPECT_EQ(b.size(), q.wire_size());
  const FingerprintQuery back = FingerprintQuery::decode(b);
  EXPECT_EQ(back.trace_id, 0xDEADBEEFCAFE0123ull);
  EXPECT_EQ(back.trace_flags, 0x01);
  EXPECT_EQ(back.place, "atrium");
  EXPECT_EQ(back.oracle_epoch, 4u);
  ASSERT_EQ(back.features.size(), 3u);
}

TEST(Wire, UntracedQueryEncodesAsV2) {
  // trace_id == 0 clears the traced flag and no trailing trace fields
  // appear; traced and untraced queries share one version.
  FingerprintQuery q = sample_query(2);
  const Bytes untraced = q.encode();
  EXPECT_EQ(wire_version(untraced), kWireVersion);
  EXPECT_EQ(untraced[6], 0x00);  // flags: raw, untraced
  q.trace_id = 77;
  const Bytes traced = q.encode();
  EXPECT_EQ(wire_version(traced), kWireVersion);
  EXPECT_EQ(traced[6], 0x01);  // flags: traced
  EXPECT_EQ(traced.size(), untraced.size() + 8 + 1);  // id + flags
  const FingerprintQuery back = FingerprintQuery::decode(untraced);
  EXPECT_EQ(back.trace_id, 0u);
  EXPECT_EQ(back.trace_flags, 0);
}

TEST(Wire, QueryV3RejectsZeroTraceId) {
  // A frame flagged traced but carrying trace_id 0 violates the encode
  // invariant (0 would silently drop the tail on re-encode) and is
  // rejected.
  FingerprintQuery q = sample_query(1);
  q.trace_id = 1;
  Bytes b = q.encode();
  for (std::size_t i = 9; i >= 2; --i) b[b.size() - i] = 0;  // zero the id
  EXPECT_THROW(FingerprintQuery::decode(b), DecodeError);
}

TEST(Wire, CompactQueryRoundtrip) {
  FingerprintQuery q = sample_compact_query(5);
  const Bytes b = q.encode();
  EXPECT_EQ(b.size(), q.wire_size());
  EXPECT_EQ(wire_version(b), kWireVersion);
  EXPECT_EQ(b[6], 0x02);  // flags: compact, untraced
  const FingerprintQuery back = FingerprintQuery::decode(b);
  EXPECT_TRUE(back.compact());
  EXPECT_EQ(back.trace_id, 0u);
  EXPECT_EQ(back.place, "atrium");
  EXPECT_EQ(back.oracle_epoch, 2u);
  EXPECT_EQ(back.codebook_epoch, 2u);
  ASSERT_EQ(back.features.size(), 5u);
  EXPECT_EQ(back.codes, q.codes);
  // Coordinates survive at quarter-pixel precision; the raw-only fields
  // (scale, orientation, descriptor) come back zeroed.
  EXPECT_FLOAT_EQ(back.features[3].keypoint.x, 3.25f);
  EXPECT_FLOAT_EQ(back.features[3].keypoint.y, 3.5f);
  EXPECT_EQ(back.features[3].keypoint.scale, 0.0f);
  EXPECT_EQ(back.features[4].descriptor,
            Descriptor{});  // codes replace descriptors on the wire
}

TEST(Wire, CompactQueryCarriesTrace) {
  FingerprintQuery q = sample_compact_query(2);
  q.trace_id = 0xABCDEF01ull;
  q.trace_flags = 0x01;
  const Bytes b = q.encode();
  EXPECT_EQ(wire_version(b), kWireVersion);
  EXPECT_EQ(b[6], 0x03);  // flags: compact + traced
  EXPECT_EQ(b.size(), q.wire_size());
  const FingerprintQuery back = FingerprintQuery::decode(b);
  EXPECT_EQ(back.trace_id, 0xABCDEF01ull);
  EXPECT_EQ(back.trace_flags, 0x01);
  EXPECT_TRUE(back.compact());
}

TEST(Wire, CompactQueryShrinksFeaturePayloadSixfold) {
  // The tentpole claim: 20 bytes per feature (u16 quarter-pixel x, y +
  // 16-byte PQ code) against 144 raw bytes — a 7.2x feature payload cut,
  // comfortably above the 6x acceptance floor.
  EXPECT_EQ(kCompactFeatureWireBytes, 20u);
  const std::size_t n = 200;
  FingerprintQuery raw = sample_query(n);
  FingerprintQuery compact = sample_compact_query(n);
  const std::size_t raw_payload = n * kFeatureWireBytes;
  const std::size_t compact_payload = n * kCompactFeatureWireBytes;
  EXPECT_GE(raw_payload, 6 * compact_payload);
  // And end to end, whole frames included, a 200-keypoint upload drops
  // from ~29 KB to ~4 KB.
  EXPECT_GT(raw.wire_size(), 28'000u);
  EXPECT_LT(compact.wire_size(), 4'500u);
  EXPECT_GE(raw.wire_size(), 6 * (compact.wire_size() - 64));
}

TEST(Wire, CompactQueryRejectsZeroCodebookEpoch) {
  // A compact frame with codebook_epoch 0 violates the encode invariant
  // (0 means "no codebook", which encodes as raw) — such a frame lies.
  FingerprintQuery q = sample_compact_query(1);
  Bytes b = q.encode();
  // codebook_epoch sits after magic(4)+ver(2)+flags(1)+frame(4)+time(8)+
  // w(2)+h(2)+fov(4)+place str(4+6)+oracle_epoch(4).
  const std::size_t epoch_off = 4 + 2 + 1 + 4 + 8 + 2 + 2 + 4 + 4 + 6 + 4;
  for (std::size_t i = 0; i < 4; ++i) b[epoch_off + i] = 0;
  EXPECT_THROW(FingerprintQuery::decode(b), DecodeError);
}

TEST(Wire, CompactQueryRejectsCodeCountLies) {
  // Feature count claiming more entries than the remaining bytes hold must
  // throw before any allocation sized by the count.
  FingerprintQuery q = sample_compact_query(3);
  Bytes b = q.encode();
  const std::size_t count_off = 4 + 2 + 1 + 4 + 8 + 2 + 2 + 4 + 4 + 6 + 4 + 4;
  for (std::size_t i = 0; i < 4; ++i) b[count_off + i] = 0xFF;
  EXPECT_THROW(FingerprintQuery::decode(b), DecodeError);
}

TEST(Wire, QuerySizeMatchesPaperScale) {
  // 200 keypoints at 144 B each ~ 29 KB: the paper's "short description
  // (~30KB) of the scene".
  const FingerprintQuery q = sample_query(200);
  EXPECT_GT(q.wire_size(), 28'000u);
  EXPECT_LT(q.wire_size(), 32'000u);
}

TEST(Wire, QueryRejectsCorruptMagic) {
  Bytes b = sample_query(2).encode();
  b[0] ^= 0xFF;
  EXPECT_THROW(FingerprintQuery::decode(b), DecodeError);
}

TEST(Wire, QueryRejectsTruncation) {
  Bytes b = sample_query(3).encode();
  b.resize(b.size() - 10);
  EXPECT_THROW(FingerprintQuery::decode(b), DecodeError);
}

TEST(Wire, FrameUploadRoundtrip) {
  FrameUpload f;
  f.frame_id = 9;
  f.capture_time = 2.5;
  f.codec = 1;
  f.payload = {10, 20, 30, 40};
  const FrameUpload back = FrameUpload::decode(f.encode());
  EXPECT_EQ(back.frame_id, 9u);
  EXPECT_EQ(back.codec, 1);
  EXPECT_EQ(back.payload, (Bytes{10, 20, 30, 40}));
}

TEST(Wire, LocationResponseRoundtrip) {
  LocationResponse r;
  r.frame_id = 3;
  r.found = true;
  r.position = {1.5, -2.5, 0.75};
  r.yaw = 0.3;
  r.residual = 0.01;
  r.matched_keypoints = 42;
  r.place_label = "Louvre, Denon Wing";
  const LocationResponse back = LocationResponse::decode(r.encode());
  EXPECT_TRUE(back.found);
  EXPECT_DOUBLE_EQ(back.position.y, -2.5);
  EXPECT_EQ(back.matched_keypoints, 42u);
  EXPECT_EQ(back.place_label, "Louvre, Denon Wing");
  EXPECT_TRUE(back.place.empty());
}

TEST(Wire, LocationResponseCarriesPlace) {
  LocationResponse r;
  r.found = true;
  r.place_label = "Louvre, Denon Wing";
  r.place = "louvre-denon";
  const LocationResponse back = LocationResponse::decode(r.encode());
  EXPECT_EQ(back.place, "louvre-denon");
  EXPECT_EQ(back.place_label, "Louvre, Denon Wing");
}

LocationResponse traced_response() {
  LocationResponse r;
  r.frame_id = 12;
  r.found = true;
  r.position = {0.5, 1.5, 2.5};
  r.place = "atrium";
  r.trace_id = 0xABCDULL;
  r.server_spans = {
      {"server.handle_query", -1, 0.0f, 5.5f},
      {"decode", 0, 0.1f, 0.4f},
      {"lsh.retrieve", 0, 0.6f, 2.0f},
      {"localize.solve", 0, 2.7f, 2.6f},
  };
  return r;
}

TEST(Wire, LocationResponseV3SpanBlockRoundtrip) {
  const LocationResponse r = traced_response();
  const LocationResponse back = LocationResponse::decode(r.encode());
  EXPECT_EQ(back.trace_id, 0xABCDULL);
  ASSERT_EQ(back.server_spans.size(), 4u);
  EXPECT_EQ(back.server_spans[0].name, "server.handle_query");
  EXPECT_EQ(back.server_spans[0].parent, -1);
  EXPECT_EQ(back.server_spans[2].name, "lsh.retrieve");
  EXPECT_EQ(back.server_spans[2].parent, 0);
  EXPECT_FLOAT_EQ(back.server_spans[3].start_ms, 2.7f);
  EXPECT_FLOAT_EQ(back.server_spans[3].duration_ms, 2.6f);
  EXPECT_EQ(back.place, "atrium");
}

TEST(Wire, UntracedLocationResponseEncodesAsV2) {
  LocationResponse r;
  r.place = "atrium";
  // Spans without a trace id have no correlation key; the traced flag
  // stays clear and the block is dropped rather than sent unattributable.
  r.server_spans = {{"orphan", -1, 0.0f, 1.0f}};
  const Bytes b = r.encode();
  EXPECT_EQ(wire_version(b), kWireVersion);
  EXPECT_EQ(b[6], 0x00);  // flags: untraced
  EXPECT_EQ(traced_response().encode()[6], 0x01);
  const LocationResponse back = LocationResponse::decode(b);
  EXPECT_EQ(back.trace_id, 0u);
  EXPECT_TRUE(back.server_spans.empty());
}

TEST(Wire, SpanBlockRejectsBadParent) {
  // A parent must precede its child (-1 = root): forward and < -1
  // references both break tree reconstruction and are rejected.
  LocationResponse r = traced_response();
  r.server_spans[1].parent = 5;  // forward reference
  EXPECT_THROW(LocationResponse::decode(r.encode()), DecodeError);
  r = traced_response();
  r.server_spans[0].parent = -2;
  EXPECT_THROW(LocationResponse::decode(r.encode()), DecodeError);
}

TEST(Wire, SpanBlockCapsAtMaxWireSpans) {
  // Encode clamps to kMaxWireSpans; a frame *claiming* more is corrupt.
  LocationResponse r = traced_response();
  r.server_spans.assign(WireSpan::kMaxWireSpans + 20, {"s", -1, 0.0f, 0.1f});
  const LocationResponse back = LocationResponse::decode(r.encode());
  EXPECT_EQ(back.server_spans.size(), WireSpan::kMaxWireSpans);

  LocationResponse one = traced_response();
  one.server_spans.resize(1);
  Bytes b = one.encode();
  // Count byte sits before the single 12-byte span record at the tail
  // (u8 name_len + 1-char name + u16 parent + two f32s).
  const std::size_t span_bytes = 1 + one.server_spans[0].name.size() + 2 + 8;
  b[b.size() - span_bytes - 1] = 200;
  EXPECT_THROW(LocationResponse::decode(b), DecodeError);
}

TEST(Wire, OracleDownloadRoundtrip) {
  OracleConfig cfg;
  cfg.capacity = 10'000;
  UniquenessOracle oracle(cfg);
  Rng rng(1);
  Descriptor d;
  for (auto& v : d) v = static_cast<std::uint8_t>(rng.uniform_u64(60));
  for (int i = 0; i < 3; ++i) oracle.insert(d);
  std::vector<Descriptor> others(200);
  for (auto& o : others) {
    for (auto& v : o) v = static_cast<std::uint8_t>(rng.uniform_u64(80));
    oracle.insert(o);
  }
  for (int i = 0; i < 1100; ++i) oracle.insert(others[0]);  // saturates

  const OracleDownload down = OracleDownload::pack(oracle, 5, "atrium");
  const Bytes blob = oracle.serialize();
  EXPECT_EQ(zlib_decompress(down.compressed), blob);
  const Bytes wire = down.encode();
  const OracleDownload back = OracleDownload::decode(wire);
  EXPECT_EQ(back.epoch, 5u);
  EXPECT_EQ(back.place, "atrium");
  // The client's oracle is the server's, bit for bit.
  const UniquenessOracle restored = back.unpack();
  EXPECT_EQ(restored.serialize(), blob);
  EXPECT_EQ(restored.primary(), oracle.primary());
  EXPECT_EQ(restored.verification(), oracle.verification());
  EXPECT_EQ(restored.count(d), oracle.count(d));
  for (const Descriptor& o : others) {
    EXPECT_EQ(restored.count(o), oracle.count(o));
  }
}

TEST(Wire, OracleDownloadRejectsV1OracleBlob) {
  // The download frame is current; only the oracle blob inside it claims
  // the retired bit-packed v1 layout (the u16 after the "VPOR" magic).
  OracleConfig cfg;
  cfg.capacity = 2'000;
  Bytes blob = UniquenessOracle(cfg).serialize();
  blob[4] = 1;
  blob[5] = 0;
  OracleDownload down;
  down.epoch = 3;
  down.place = "atrium";
  down.compressed = zlib_compress(blob, 9);
  const OracleDownload back = OracleDownload::decode(down.encode());
  try {
    (void)back.unpack();
    ADD_FAILURE() << "v1 oracle blob accepted";
  } catch (const DecodeError& e) {
    EXPECT_NE(std::string(e.what()).find("oracle: unsupported version"),
              std::string::npos)
        << e.what();
  }
}

TEST(Wire, OracleDownloadCodebookRoundtrip) {
  OracleConfig cfg;
  cfg.capacity = 2'000;
  UniquenessOracle oracle(cfg);
  Bytes codebook(kPqCodebookBytes);
  for (std::size_t i = 0; i < codebook.size(); ++i) {
    codebook[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  const OracleDownload down =
      OracleDownload::pack(oracle, 4, "atrium", codebook);
  const Bytes wire = down.encode();
  EXPECT_EQ(wire_version(wire), kWireVersion);
  EXPECT_EQ(wire[6], 0x01);  // flags: codebook
  const OracleDownload back = OracleDownload::decode(wire);
  EXPECT_EQ(back.epoch, 4u);
  EXPECT_EQ(back.place, "atrium");
  EXPECT_EQ(back.codebook, codebook);

  // Without a codebook the flag is clear and no codebook blob follows.
  const Bytes plain = OracleDownload::pack(oracle, 4, "atrium").encode();
  EXPECT_EQ(wire_version(plain), kWireVersion);
  EXPECT_EQ(plain[6], 0x00);
  EXPECT_TRUE(OracleDownload::decode(plain).codebook.empty());

  // A flagged frame whose codebook is not exactly kPqCodebookBytes is rejected
  // even when the blob length field tells the truth about the short blob
  // (the codebook is the last field; shrink both consistently).
  Bytes bad = wire;
  const std::size_t len_off = bad.size() - kPqCodebookBytes - 4;
  const std::uint32_t short_len = kPqCodebookBytes - 1;
  for (std::size_t i = 0; i < 4; ++i) {
    bad[len_off + i] = static_cast<std::uint8_t>(short_len >> (8 * i));
  }
  bad.resize(bad.size() - 1);
  EXPECT_THROW(OracleDownload::decode(bad), DecodeError);
}

TEST(Wire, OracleRequestRoundtrip) {
  OracleRequest req;
  req.place = "louvre-denon";
  const OracleRequest back = OracleRequest::decode(req.encode());
  EXPECT_EQ(back.place, "louvre-denon");
  EXPECT_TRUE(OracleRequest::decode(OracleRequest{}.encode()).place.empty());
}

TEST(Wire, OracleDownloadCompresses) {
  OracleConfig cfg;
  cfg.capacity = 50'000;
  UniquenessOracle oracle(cfg);  // empty -> a header and two zero counts
  const OracleDownload down = OracleDownload::pack(oracle, 1);
  EXPECT_LT(down.compressed.size(), oracle.byte_size() / 20);
}

TEST(Wire, StatsRequestSlowLogFormatRoundtrips) {
  StatsRequest req;
  req.format = StatsRequest::kFormatSlowLog;
  const StatsRequest back = StatsRequest::decode(req.encode());
  EXPECT_EQ(back.format, StatsRequest::kFormatSlowLog);
  // One past the newest format is still unknown and must be rejected.
  Bytes b = req.encode();
  b[b.size() - 1] = StatsRequest::kFormatSlowLog + 1;
  EXPECT_THROW(StatsRequest::decode(b), DecodeError);
}

TEST(Wire, ErrorResponseRoundtrip) {
  ErrorResponse e;
  e.code = ErrorResponse::kBadRequest;
  e.message = "frame length 999 exceeds limit";
  const Bytes b = e.encode();
  EXPECT_TRUE(is_error_frame(b));
  const ErrorResponse back = ErrorResponse::decode(b);
  EXPECT_EQ(back.code, ErrorResponse::kBadRequest);
  EXPECT_EQ(back.message, e.message);
}

TEST(Wire, ErrorResponseTruncatesOversizedMessages) {
  ErrorResponse e;
  e.message.assign(10'000, 'x');
  const ErrorResponse back = ErrorResponse::decode(e.encode());
  EXPECT_EQ(back.message.size(), ErrorResponse::kMaxMessageBytes);
}

TEST(Wire, ErrorResponseStaleOracleRoundtrip) {
  ErrorResponse e;
  e.code = ErrorResponse::kStaleOracle;
  e.message = "oracle epoch 3 for place 'atrium' superseded by epoch 5";
  const ErrorResponse back = ErrorResponse::decode(e.encode());
  EXPECT_EQ(back.code, ErrorResponse::kStaleOracle);
  EXPECT_EQ(back.message, e.message);
}

TEST(Wire, ErrorResponseRejectsUnknownCode) {
  ErrorResponse e;
  e.code = ErrorResponse::kOverloaded;
  Bytes b = e.encode();
  b[6] = 0x77;  // code lives after magic (4) + version (2)
  EXPECT_THROW(ErrorResponse::decode(b), DecodeError);
  b[6] = 0;
  EXPECT_THROW(ErrorResponse::decode(b), DecodeError);
}

TEST(Wire, IsErrorFrameOnlyMatchesTheErrorMagic) {
  EXPECT_FALSE(is_error_frame({}));
  EXPECT_FALSE(is_error_frame(Bytes{'V', 'P'}));  // shorter than a magic
  EXPECT_FALSE(is_error_frame(sample_query(1).encode()));
  EXPECT_FALSE(is_error_frame(LocationResponse{}.encode()));
  EXPECT_TRUE(is_error_frame(ErrorResponse{}.encode()));
}

TEST(Wire, EveryMessageEncodesAtOneVersion) {
  OracleConfig cfg;
  cfg.capacity = 2'000;
  const std::vector<Bytes> frames = {
      sample_query(1).encode(),
      sample_compact_query(1).encode(),
      FrameUpload{}.encode(),
      LocationResponse{}.encode(),
      OracleDownload::pack(UniquenessOracle(cfg), 1).encode(),
      OracleRequest{}.encode(),
      ErrorResponse{}.encode(),
      StatsRequest{}.encode(),
      StatsResponse{}.encode(),
  };
  for (const Bytes& b : frames) EXPECT_EQ(wire_version(b), kWireVersion);
}

// Frames in the retired layouts (hand-built byte for byte as their old
// encoders wrote them) must be rejected as unsupported, never misread.

TEST(Wire, LegacyV2RawQueryRejected) {
  ByteWriter w;
  w.u32(0x56505121u);  // "VPQ!"
  w.u16(2);
  w.u32(7);    // frame_id
  w.f64(1.0);  // capture_time
  w.u16(920);
  w.u16(540);
  w.f32(1.1f);
  w.str("atrium");
  w.u32(3);  // oracle_epoch
  w.u32(0);  // feature count
  EXPECT_THROW(FingerprintQuery::decode(w.bytes()), DecodeError);
}

TEST(Wire, LegacyV3TracedReplyRejected) {
  ByteWriter w;
  w.u32(0x56504c21u);  // "VPL!"
  w.u16(3);
  w.u32(12);  // frame_id
  w.u8(1);    // found
  for (int i = 0; i < 7; ++i) w.f64(0.5);  // position, yaw/pitch/roll, residual
  w.u32(40);  // matched_keypoints
  w.str("Demo Gallery");
  w.str("atrium");
  w.u64(0xABCDull);  // trace_id
  w.u8(0);           // span count
  EXPECT_THROW(LocationResponse::decode(w.bytes()), DecodeError);
}

TEST(Wire, LegacyV2OracleDownloadRejected) {
  OracleConfig cfg;
  cfg.capacity = 2'000;
  ByteWriter w;
  w.u32(0x56504f21u);  // "VPO!"
  w.u16(2);
  w.u32(4);  // epoch
  w.str("atrium");
  w.blob(zlib_compress(UniquenessOracle(cfg).serialize(), 9));
  EXPECT_THROW(OracleDownload::decode(w.bytes()), DecodeError);
}

TEST(Wire, UnknownFlagBitsRejected) {
  // The flags byte follows the header (offset 6). Each message defines a
  // few low bits; any other bit is an unknown section and must throw.
  const auto rejects_bit = [](Bytes b, std::uint8_t bit, auto decode) {
    b[6] |= bit;
    EXPECT_THROW(decode(b), DecodeError) << "bit " << int{bit};
  };
  const Bytes query = sample_query(2).encode();
  const Bytes reply = traced_response().encode();
  OracleConfig cfg;
  cfg.capacity = 2'000;
  const Bytes download = OracleDownload::pack(UniquenessOracle(cfg), 1).encode();
  for (int shift = 0; shift < 8; ++shift) {
    const auto bit = static_cast<std::uint8_t>(1u << shift);
    if (shift >= 2) rejects_bit(query, bit, FingerprintQuery::decode);
    if (shift >= 1) rejects_bit(reply, bit, LocationResponse::decode);
    if (shift >= 1) rejects_bit(download, bit, OracleDownload::decode);
  }
}

// ---------------------------------------------------------------------------
// Decoder fuzz battery: every message type, attacked three ways. The
// contract under attack is uniform: decode() either succeeds or throws
// DecodeError — never crashes, never hangs, never allocates beyond the
// bytes actually presented.

/// One encoded specimen of every wire message type, and of every flag
/// combination of the flagged ones.
std::vector<std::pair<std::string, Bytes>> wire_specimens() {
  std::vector<std::pair<std::string, Bytes>> specimens;
  specimens.emplace_back("FingerprintQuery", sample_query(3).encode());

  FingerprintQuery traced_q = sample_query(3);
  traced_q.trace_id = 0x1234ABCDull;
  traced_q.trace_flags = 0x01;
  specimens.emplace_back("FingerprintQueryTraced", traced_q.encode());

  specimens.emplace_back("FingerprintQueryCompact",
                         sample_compact_query(3).encode());

  FingerprintQuery traced_compact = sample_compact_query(3);
  traced_compact.trace_id = 0x5678ull;
  traced_compact.trace_flags = 0x01;
  specimens.emplace_back("FingerprintQueryCompactTraced",
                         traced_compact.encode());

  specimens.emplace_back("LocationResponseTraced", traced_response().encode());

  FrameUpload frame;
  frame.frame_id = 11;
  frame.codec = 1;
  frame.payload = {9, 8, 7, 6, 5};
  specimens.emplace_back("FrameUpload", frame.encode());

  LocationResponse loc;
  loc.frame_id = 5;
  loc.found = true;
  loc.position = {1, 2, 3};
  loc.place_label = "Demo Gallery";
  specimens.emplace_back("LocationResponse", loc.encode());

  OracleConfig cfg;
  cfg.capacity = 2000;
  UniquenessOracle oracle(cfg);
  Descriptor d{};
  d[0] = 42;
  oracle.insert(d);
  specimens.emplace_back("OracleDownload",
                         OracleDownload::pack(oracle, 3).encode());

  Bytes codebook(kPqCodebookBytes);
  for (std::size_t i = 0; i < codebook.size(); ++i) {
    codebook[i] = static_cast<std::uint8_t>(i * 13 + 1);
  }
  specimens.emplace_back(
      "OracleDownloadCodebook",
      OracleDownload::pack(oracle, 3, "atrium", codebook).encode());

  StatsRequest stats_req;
  stats_req.format = StatsRequest::kFormatPrometheus;
  specimens.emplace_back("StatsRequest", stats_req.encode());

  StatsResponse stats_resp;
  stats_resp.format = 1;
  stats_resp.text = "vp_server_queries_total 12\n";
  specimens.emplace_back("StatsResponse", stats_resp.encode());

  OracleRequest oreq;
  oreq.place = "louvre-denon";
  specimens.emplace_back("OracleRequest", oreq.encode());

  ErrorResponse err;
  err.code = ErrorResponse::kOverloaded;
  err.message = "shedding load";
  specimens.emplace_back("ErrorResponse", err.encode());
  return specimens;
}

/// Decode dispatch by specimen name (the message type is the name's
/// prefix); throws whatever decode() throws.
void decode_specimen(const std::string& name,
                     std::span<const std::uint8_t> data) {
  const auto is = [&name](std::string_view type) {
    return name.starts_with(type);
  };
  if (is("FingerprintQuery")) {
    (void)FingerprintQuery::decode(data);
  } else if (is("FrameUpload")) {
    (void)FrameUpload::decode(data);
  } else if (is("LocationResponse")) {
    (void)LocationResponse::decode(data);
  } else if (is("OracleDownload")) {
    (void)OracleDownload::decode(data);
  } else if (is("OracleRequest")) {
    (void)OracleRequest::decode(data);
  } else if (is("StatsRequest")) {
    (void)StatsRequest::decode(data);
  } else if (is("StatsResponse")) {
    (void)StatsResponse::decode(data);
  } else {
    (void)ErrorResponse::decode(data);
  }
}

TEST(WireFuzz, EveryPrefixTruncationThrowsDecodeError) {
  for (const auto& [name, encoded] : wire_specimens()) {
    for (std::size_t len = 0; len < encoded.size(); ++len) {
      EXPECT_THROW(decode_specimen(name, std::span(encoded.data(), len)),
                   DecodeError)
          << name << " accepted a " << len << "-byte prefix of "
          << encoded.size() << " bytes";
    }
  }
}

TEST(WireFuzz, TenThousandBitFlipsNeverEscapeDecodeError) {
  const auto specimens = wire_specimens();
  Rng rng(0xF122);
  std::size_t decoded = 0, rejected = 0;
  for (int iter = 0; iter < 10'000; ++iter) {
    const auto& [name, encoded] = specimens[static_cast<std::size_t>(iter) %
                                            specimens.size()];
    Bytes mutated = encoded;
    const std::uint64_t flips = 1 + rng.uniform_u64(8);
    for (std::uint64_t f = 0; f < flips; ++f) {
      const std::uint64_t bit = rng.uniform_u64(mutated.size() * 8);
      mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    try {
      decode_specimen(name, mutated);
      ++decoded;  // flip landed in a don't-care position: still well-formed
    } catch (const DecodeError&) {
      ++rejected;  // the only acceptable failure mode
    }
    // Anything else (std::bad_alloc, std::length_error, segfault, hang)
    // propagates and fails the test.
  }
  EXPECT_EQ(decoded + rejected, 10'000u);
  EXPECT_GT(rejected, 0u);  // the battery actually hit validation paths
}

TEST(WireFuzz, LyingLengthFieldsThrowWithoutOverAllocating) {
  // Feature count claims 4 billion entries against a ~500-byte payload:
  // the count is validated against the remaining bytes before reserve().
  Bytes q = sample_query(2).encode();
  // Header + flags + empty place string (4) + oracle epoch (4) precede
  // the count.
  const std::size_t count_off = 4 + 2 + 1 + 4 + 8 + 2 + 2 + 4 + 4 + 4;
  q[count_off] = q[count_off + 1] = q[count_off + 2] = q[count_off + 3] = 0xFF;
  EXPECT_THROW(FingerprintQuery::decode(q), DecodeError);

  // String length lie at the tail of a LocationResponse (the empty `place`
  // string's length field is the last four bytes on the wire).
  LocationResponse loc;
  loc.place_label = "hall";
  Bytes lb = loc.encode();
  for (std::size_t i = 1; i <= 4; ++i) lb[lb.size() - i] = 0xFF;
  EXPECT_THROW(LocationResponse::decode(lb), DecodeError);

  // Blob length lie in a FrameUpload (payload claims 4 GB).
  FrameUpload frame;
  frame.payload = {1, 2, 3};
  Bytes fb = frame.encode();
  const std::size_t payload_len_off = 4 + 2 + 4 + 8 + 1;
  for (std::size_t i = 0; i < 4; ++i) fb[payload_len_off + i] = 0xFF;
  EXPECT_THROW(FrameUpload::decode(fb), DecodeError);

  // Blob length lie in an OracleDownload (the compressed oracle claims
  // 4 GB; it follows header + flags + epoch + empty place string).
  OracleConfig cfg;
  cfg.capacity = 2000;
  Bytes ob = OracleDownload::pack(UniquenessOracle(cfg), 1).encode();
  const std::size_t oracle_len_off = 4 + 2 + 1 + 4 + 4;
  for (std::size_t i = 0; i < 4; ++i) ob[oracle_len_off + i] = 0xFF;
  EXPECT_THROW(OracleDownload::decode(ob), DecodeError);
}

TEST(WireFuzz, CorruptZlibStreamsThrowDecodeError) {
  // unpack() feeds attacker bytes to zlib: corruption and truncation must
  // both surface as DecodeError, not crashes inside inflate().
  OracleConfig cfg;
  cfg.capacity = 2000;
  UniquenessOracle oracle(cfg);
  OracleDownload down = OracleDownload::pack(oracle, 1);
  down.compressed[down.compressed.size() / 2] ^= 0xFF;
  EXPECT_THROW(down.unpack(), DecodeError);

  OracleDownload trunc = OracleDownload::pack(oracle, 1);
  trunc.compressed.resize(trunc.compressed.size() / 2);
  EXPECT_THROW(trunc.unpack(), DecodeError);
}

TEST(Link, SerializationTimeMatchesBandwidth) {
  SimulatedLink link({.bandwidth_mbps = 8.0, .rtt_ms = 0.0, .jitter_ms = 0.0});
  const auto rec = link.submit(0.0, 1'000'000);  // 1 MB at 8 Mbps = 1 s
  EXPECT_NEAR(rec.complete_time - rec.start_time, 1.0, 1e-6);
}

TEST(Link, FifoQueueing) {
  SimulatedLink link({.bandwidth_mbps = 8.0, .rtt_ms = 0.0, .jitter_ms = 0.0});
  const auto a = link.submit(0.0, 1'000'000);
  const auto b = link.submit(0.1, 1'000'000);  // submitted while busy
  EXPECT_NEAR(a.complete_time, 1.0, 1e-6);
  EXPECT_NEAR(b.start_time, 1.0, 1e-6);  // waits for a
  EXPECT_NEAR(b.complete_time, 2.0, 1e-6);
}

TEST(Link, LatencyAdds) {
  SimulatedLink link({.bandwidth_mbps = 100.0, .rtt_ms = 40.0, .jitter_ms = 0.0});
  const auto rec = link.submit(0.0, 1000);
  EXPECT_GT(rec.complete_time, 0.02);  // half-RTT floor
}

TEST(Link, BytesDeliveredBy) {
  SimulatedLink link({.bandwidth_mbps = 8.0, .rtt_ms = 0.0, .jitter_ms = 0.0});
  link.submit(0.0, 500'000);
  link.submit(0.0, 500'000);
  EXPECT_EQ(link.bytes_delivered_by(0.4), 0u);
  EXPECT_EQ(link.bytes_delivered_by(0.6), 500'000u);
  EXPECT_EQ(link.bytes_delivered_by(2.0), 1'000'000u);
}

TEST(Link, SustainableFps) {
  // Fig. 2 arithmetic: 2 Mbps / (25 KB frame) = 10 fps.
  EXPECT_NEAR(SimulatedLink::sustainable_fps(2.0, 25'000), 10.0, 0.01);
  EXPECT_THROW(SimulatedLink::sustainable_fps(2.0, 0), InvalidArgument);
}

TEST(Link, ResetClearsState) {
  SimulatedLink link({});
  link.submit(0.0, 1000);
  link.reset();
  EXPECT_TRUE(link.history().empty());
  EXPECT_DOUBLE_EQ(link.busy_until(), 0.0);
}

}  // namespace
}  // namespace vp
