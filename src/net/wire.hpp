// Wire formats for the client <-> cloud protocol.
//
// The offload path needs three messages: the fingerprint query (the ~200
// most-unique keypoints, the paper's ~30-50 KB upload), the location
// response, and the oracle download (the ~10 MB GZIP-compressed Bloom
// tables). Beside them sit the whole-frame upload (the baseline
// VisualPrint replaces) and the small request/stats/error messages.
// Every message carries a 4-byte magic + u16 version header, and every
// message has one layout at one version. The query, response and download
// follow the header with a u8 flags byte naming which optional sections
// are present; decoders reject unknown bits. See docs/WIRE_PROTOCOL.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "features/keypoint.hpp"
#include "features/pq.hpp"
#include "geometry/pose.hpp"
#include "hashing/oracle.hpp"
#include "util/bytes.hpp"

namespace vp {

class ThreadPool;

/// One compact query feature on the wire: quantized pixel position
/// (2 x u16, quarter-pixel fixed point) plus the 16-byte PQ code — 20
/// bytes instead of the 144-byte raw feature (7.2x). Scale and
/// orientation are dropped: the server-side localization pipeline reads
/// only pixel position and descriptor.
inline constexpr std::size_t kCompactFeatureWireBytes = 2 * 2 + kPqCodeBytes;

/// Fixed-point scale of compact keypoint coordinates: quarter pixels
/// (u16 range covers images up to 16383 px wide).
inline constexpr float kCompactCoordScale = 4.0f;

/// Client -> server: selected keypoints of one frame, plus the camera
/// geometry the Fig. 12 localization needs (image size and field of view).
struct FingerprintQuery {
  std::uint32_t frame_id = 0;
  double capture_time = 0;  ///< seconds since session start
  std::uint16_t image_width = 1920;
  std::uint16_t image_height = 1080;
  float fov_h = 1.15192f;   ///< horizontal field of view, radians
  /// Target place (map shard). Empty = let the server fan out across all
  /// shards and answer with the best-scoring place.
  std::string place;
  /// Epoch of the oracle the client selected keypoints against; 0 = the
  /// client holds no epoch'd oracle (skip the staleness check). A nonzero
  /// epoch that no longer matches the place's published epoch makes the
  /// server answer `kStaleOracle` instead of localizing against keypoints
  /// ranked by an outdated uniqueness table.
  std::uint32_t oracle_epoch = 0;
  std::vector<Feature> features;
  /// Compact uplink: one kPqCodeBytes PQ code per feature, flat
  /// kPqCodeBytes stride, index-parallel with `features`. Non-empty codes
  /// set the query's compact flag — quantized keypoint positions plus
  /// codes, no raw descriptors — cutting the per-feature payload from 144
  /// to 20 bytes. Empty codes (the default) ship raw features.
  Bytes codes;
  /// Epoch of the place's codebook the codes were encoded against (the
  /// OracleDownload that carried it). Required nonzero when compact; a
  /// mismatch with the place's published epoch makes the server answer
  /// `kStaleOracle` so the client refreshes codebook + oracle and resends.
  std::uint32_t codebook_epoch = 0;
  /// Cross-process trace context. A nonzero id correlates this query with
  /// the client's FrameTrace; the server keys its handler trace and
  /// slow-query log entry by it, and the query's traced flag is set. 0 =
  /// untraced: no trace tail on the wire (and `trace_flags` is dropped).
  std::uint64_t trace_id = 0;
  /// Bit 0 (`obs::kTraceSampled`): ask the server to echo its span block
  /// back on the LocationResponse. Other bits reserved (must decode, are
  /// ignored).
  std::uint8_t trace_flags = 0;

  /// True when this query ships PQ codes instead of raw descriptors.
  bool compact() const noexcept { return !codes.empty(); }

  Bytes encode() const;
  static FingerprintQuery decode(std::span<const std::uint8_t> data);

  /// Exact wire size without materializing the buffer.
  std::size_t wire_size() const noexcept;
};

/// Client -> server: a whole compressed frame (baseline offload).
struct FrameUpload {
  std::uint32_t frame_id = 0;
  double capture_time = 0;
  std::uint8_t codec = 0;  ///< 0 = PNG, 1 = JPEG, 2 = raw
  Bytes payload;           ///< encoded image bytes

  Bytes encode() const;
  static FrameUpload decode(std::span<const std::uint8_t> data);
};

/// One server-side span echoed back on a traced LocationResponse: a compact
/// projection of obs::SpanRecord (f32 times, i16 parent) sized for the
/// wire — a full server trace is ~5 spans, so the block stays under 200
/// bytes.
struct WireSpan {
  std::string name;          ///< stage name ("decode", "lsh.retrieve", ...)
  std::int16_t parent = -1;  ///< index within the same block; -1 for roots
  float start_ms = 0;        ///< offset from the server trace epoch
  float duration_ms = 0;

  /// Decode rejects blocks claiming more spans than this — a handler
  /// trace is ~5 spans deep, so anything larger is corruption.
  static constexpr std::size_t kMaxWireSpans = 64;
};

/// Server -> client: estimated 6-DoF pose for a query.
struct LocationResponse {
  std::uint32_t frame_id = 0;
  bool found = false;
  Vec3 position;
  double yaw = 0, pitch = 0, roll = 0;
  double residual = 0;
  std::uint32_t matched_keypoints = 0;
  std::string place_label;  ///< e.g. "Paris, Louvre, Denon Wing" (Fig. 1)
  /// Shard id that answered (matters for fan-out queries; echoes the
  /// request's place for targeted ones, "" for a miss on an empty store).
  std::string place;
  /// Echo of the query's trace_id. Nonzero sets the reply's traced flag;
  /// 0 = untraced, and the reply carries no trace id or span block.
  std::uint64_t trace_id = 0;
  /// Server handler span block (filled only when the query set the sampled
  /// flag). Sent only with a nonzero trace_id; an empty block encodes as
  /// zero spans — the trace_id echo alone is worth the 9 bytes.
  std::vector<WireSpan> server_spans;

  Bytes encode() const;
  static LocationResponse decode(std::span<const std::uint8_t> data);
};

/// Server -> client: uniqueness-oracle snapshot, zlib-compressed ("we
/// compress them with GZIP for efficient retrieval"). Carries the shard's
/// place id and publish epoch so a client can cache one oracle per place
/// and detect staleness (see FingerprintQuery::oracle_epoch).
struct OracleDownload {
  std::uint32_t epoch = 0;  ///< shard publish epoch at pack time
  std::string place;        ///< owning shard ("" = pre-shard snapshot)
  /// zlib stream of UniquenessOracle::serialize(): one standard stream with
  /// a sync-flush point every 1 MiB of input (see zlib_compress).
  Bytes compressed;
  /// The place's PQ codebook (exactly kPqCodebookBytes), present when the
  /// shard serves product-quantized storage — the client encodes compact
  /// query fingerprints against it. Non-empty sets the download's codebook
  /// flag; empty when the shard is exact-only.
  Bytes codebook;

  /// `pool` only speeds up the zlib pass; the bytes are the same with or
  /// without it.
  static OracleDownload pack(const UniquenessOracle& oracle,
                             std::uint32_t epoch, std::string place = {},
                             std::span<const std::uint8_t> codebook = {},
                             ThreadPool* pool = nullptr);
  UniquenessOracle unpack() const;

  Bytes encode() const;
  static OracleDownload decode(std::span<const std::uint8_t> data);
};

/// Client -> server: fetch the oracle of a named place. The legacy bare
/// `'O'` request (empty body) still resolves to the server's default
/// place; this message targets any shard.
struct OracleRequest {
  std::string place;  ///< "" = the server's default place

  Bytes encode() const;
  static OracleRequest decode(std::span<const std::uint8_t> data);
};

/// Single-byte request tags for the framed TCP demo protocol
/// (examples/vp_server_main.cpp): the first payload byte selects the
/// handler; anything after it is the encoded request message, if any.
inline constexpr std::uint8_t kOracleRequest = 'O';
inline constexpr std::uint8_t kQueryRequest = 'Q';
inline constexpr std::uint8_t kStatsRequest = 'S';

/// Server -> client: structured failure report (`VPE!`, the kError
/// message). Sent instead of dropping the connection when a request could
/// not be answered: the handler threw, the request failed to decode, or
/// the server is shedding load. `is_error_frame` lets a client cheaply
/// distinguish it from the reply it expected before decoding.
struct ErrorResponse {
  enum Code : std::uint16_t {
    kBadRequest = 1,      ///< request undecodable (likely corrupt in flight)
    kHandlerFailure = 2,  ///< handler raised; retrying the same bytes won't help
    kOverloaded = 3,      ///< transient server-side pressure
    /// The query's oracle_epoch no longer matches the place's published
    /// epoch: the client ranked keypoints against an outdated uniqueness
    /// table. Refetch the place's oracle (OracleRequest) and resend —
    /// resending the same bytes without refreshing cannot succeed, so the
    /// transport layer must NOT blindly retry this code.
    kStaleOracle = 4,
  };
  std::uint16_t code = kHandlerFailure;
  std::string message;  ///< human-readable cause (truncated on encode)

  /// Longest message carried on the wire; longer ones are truncated so a
  /// failure report can never balloon a response.
  static constexpr std::size_t kMaxMessageBytes = 1024;

  Bytes encode() const;
  static ErrorResponse decode(std::span<const std::uint8_t> data);
};

/// True when an (undecoded) reply frame carries the ErrorResponse magic.
bool is_error_frame(std::span<const std::uint8_t> frame) noexcept;

/// Client -> server: scrape the server's metrics registry.
struct StatsRequest {
  /// Export format: 0 = JSON lines, 1 = Prometheus text, 2 = slow-query
  /// log (JSON lines; see obs::SlowQueryLog::to_json_lines).
  std::uint8_t format = 0;

  static constexpr std::uint8_t kFormatJsonLines = 0;
  static constexpr std::uint8_t kFormatPrometheus = 1;
  static constexpr std::uint8_t kFormatSlowLog = 2;

  Bytes encode() const;
  static StatsRequest decode(std::span<const std::uint8_t> data);
};

/// Server -> client: the rendered export text for a StatsRequest.
struct StatsResponse {
  std::uint8_t format = 0;  ///< echoes the request format
  std::string text;         ///< exporter output (see src/obs/export.hpp)

  Bytes encode() const;
  static StatsResponse decode(std::span<const std::uint8_t> data);
};

}  // namespace vp
