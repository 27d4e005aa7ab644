#include "core/remote.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace vp {

namespace {
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) noexcept {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
}  // namespace

RemoteLocalizer::RemoteLocalizer(Transport transport)
    : transport_(std::move(transport)) {
  VP_REQUIRE(transport_ != nullptr, "remote localizer needs a transport");
}

std::uint16_t RemoteLocalizer::exchange(std::span<const std::uint8_t> request,
                                        Bytes& reply, std::string& message,
                                        [[maybe_unused]] const char* kind) {
  VP_OBS_COUNT(std::string("net.bytes.up.") + kind, request.size());
  try {
    reply = transport_(request);
  } catch (const RemoteError& e) {
    message = e.what();
    return e.code();
  }
  VP_OBS_COUNT(std::string("net.bytes.down.") + kind, reply.size());
  if (is_error_frame(reply)) {
    const ErrorResponse err = ErrorResponse::decode(reply);
    message = err.message;
    return err.code;
  }
  return 0;
}

OracleDownload RemoteLocalizer::fetch_oracle(const std::string& place) {
  ByteWriter w;
  w.u8(kOracleRequest);
  // The bare legacy 'O' request resolves to the default place; naming one
  // needs an OracleRequest body.
  if (!place.empty()) w.raw(OracleRequest{place}.encode());
  Bytes reply;
  std::string message;
  const std::uint16_t code = exchange(w.bytes(), reply, message, "oracle");
  if (code != 0) throw RemoteError{code, message};
  OracleDownload download = OracleDownload::decode(reply);
  epochs_[download.place] = download.epoch;
  if (!download.codebook.empty()) {
    // The place serves PQ: cache its codebook so subsequent compact-uplink
    // queries can encode against exactly this epoch.
    codebooks_[download.place] = PqCodebook::from_raw(download.codebook);
  } else {
    // A republish may drop PQ (e.g. rebuilt exact-only); forget the stale
    // codebook so localize() falls back to the raw wire format.
    codebooks_.erase(download.place);
  }
  if (on_refresh_) on_refresh_(download);
  return download;
}

bool RemoteLocalizer::stamp_compact(FingerprintQuery& query) {
  query.codes.clear();
  query.codebook_epoch = 0;
  if (!compact_uplink_ || query.place.empty()) return false;
  const auto it = codebooks_.find(query.place);
  if (it == codebooks_.end()) return false;
  const std::uint32_t epoch = known_epoch(query.place);
  if (epoch == 0) return false;
  query.codes.reserve(query.features.size() * kPqCodeBytes);
  std::array<std::uint8_t, kPqCodeBytes> code;
  for (const Feature& f : query.features) {
    it->second.encode(f.descriptor.data(), code.data());
    query.codes.insert(query.codes.end(), code.begin(), code.end());
  }
  query.codebook_epoch = epoch;
  return true;
}

void RemoteLocalizer::enable_tracing(double sample_rate) {
  tracing_ = true;
  sample_rate_ = std::clamp(sample_rate, 0.0, 1.0);
  sample_accum_ = 0.0;
}

LocationResponse RemoteLocalizer::localize(FingerprintQuery query) {
  std::optional<obs::FrameTrace> trace;
  if (tracing_) {
    if (query.trace_id == 0) query.trace_id = obs::next_trace_id();
    sample_accum_ += sample_rate_;
    if (sample_accum_ >= 1.0) {
      sample_accum_ -= 1.0;
      query.trace_flags |= obs::kTraceSampled;
    }
    trace.emplace();
  }
  for (int attempt = 0;; ++attempt) {
    // Re-stamped every attempt: a stale-codebook resend must encode
    // against the codebook the refresh just installed, not the old one.
    if (stamp_compact(query)) {
      ++compact_queries_;
      VP_OBS_COUNT("client.compact_queries", 1);
    }
    ByteWriter w(1 + query.wire_size());
    w.u8(kQueryRequest);
    w.raw(query.encode());
    Bytes reply;
    std::string message;
    const auto sent = Clock::now();
    const std::uint16_t code = exchange(w.bytes(), reply, message, "query");
    const auto received = Clock::now();
    if (code == 0) {
      LocationResponse resp = LocationResponse::decode(reply);
      if (trace) stitch(query, resp, sent, received);
      return resp;
    }
    if (code == ErrorResponse::kStaleOracle && attempt == 0) {
      ++stale_refreshes_;
      VP_OBS_COUNT("client.stale_refreshes", 1);
      const OracleDownload fresh = fetch_oracle(query.place);
      query.oracle_epoch = fresh.epoch;
      continue;
    }
    throw RemoteError{code, message};
  }
}

void RemoteLocalizer::stitch(const FingerprintQuery& query,
                             const LocationResponse& resp,
                             Clock::time_point sent,
                             Clock::time_point received) {
  obs::StitchedTrace st;
  st.trace_id = query.trace_id;
  st.frame_id = query.frame_id;
  st.place = resp.place;
  // base = this trace's epoch on the localizer's session timeline.
  const auto now = Clock::now();
  st.base_ms = ms_between(epoch_, now) - obs::active_trace_ms_at(now);

  // Client lane: everything the FrameTrace saw on this thread (encode,
  // plus any spans the transport itself opened).
  const std::vector<obs::SpanRecord>* records = obs::active_trace_records();
  if (records != nullptr) st.client = obs::to_stitched_spans(*records);

  // Link lane. The transport is opaque, so the split is inferred: the
  // server block's envelope (max span end) is compute time; the rest of
  // the measured round trip is wire time, charged half to each direction.
  const double t_sent = obs::active_trace_ms_at(sent);
  const double t_received = obs::active_trace_ms_at(received);
  const double rtt = t_received - t_sent;
  double envelope = 0;
  for (const WireSpan& s : resp.server_spans) {
    envelope = std::max(envelope, static_cast<double>(s.start_ms) +
                                      static_cast<double>(s.duration_ms));
  }
  const double net = std::max(0.0, rtt - envelope);
  st.link.push_back({"link.rtt", -1, t_sent, rtt});
  st.link.push_back({"link.uplink", 0, t_sent, net / 2});
  st.link.push_back({"link.downlink", 0, t_received - net / 2, net / 2});

  // Server lane: echoed spans shifted onto this timeline — the server's
  // epoch is placed after the inferred uplink.
  const double server_base = t_sent + net / 2;
  st.server.reserve(resp.server_spans.size());
  for (const WireSpan& s : resp.server_spans) {
    st.server.push_back({s.name, s.parent,
                         server_base + static_cast<double>(s.start_ms),
                         static_cast<double>(s.duration_ms)});
  }
  traces_.push_back(std::move(st));
}

std::uint32_t RemoteLocalizer::known_epoch(const std::string& place) const {
  const auto it = epochs_.find(place);
  return it == epochs_.end() ? 0 : it->second;
}

}  // namespace vp
