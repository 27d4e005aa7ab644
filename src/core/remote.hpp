// Client-side view of a remote VisualPrint server: wraps a transport with
// the framed request protocol (tag byte + encoded message) and makes
// oracle staleness invisible to callers — a `kStaleOracle` reply triggers
// one oracle refetch for the query's place, restamps the query with the
// fresh epoch, and resends.
//
// The transport is any function mapping request bytes to reply bytes:
// `RetryingClient::request` for real deployments (it absorbs timeouts and
// drops underneath), or `VisualPrintServer::handle_request` bound directly
// for in-process tests. Both reply styles are handled: raw `VPE!` error
// frames and the RemoteError that RetryingClient turns them into.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "features/pq.hpp"
#include "net/wire.hpp"
#include "obs/trace.hpp"
#include "util/bytes.hpp"

namespace vp {

class RemoteLocalizer {
 public:
  using Transport = std::function<Bytes(std::span<const std::uint8_t>)>;

  explicit RemoteLocalizer(Transport transport);

  /// Fetch the oracle of a place ("" = the server's default place) and
  /// remember its epoch. Throws RemoteError when the server reports one
  /// (e.g. unknown place).
  OracleDownload fetch_oracle(const std::string& place = {});

  /// Send one localization query and return the response. On a
  /// `kStaleOracle` reply: refetch the place's oracle, hand it to the
  /// refresh hook (so the caller can re-install it into its
  /// VisualPrintClient), restamp the query with the fresh epoch, and
  /// resend — once. The resent query keeps its original keypoints; callers
  /// that can re-rank against the fresh oracle should do so on the next
  /// frame. Other error replies surface as RemoteError.
  LocationResponse localize(FingerprintQuery query);

  /// Called with every oracle this localizer downloads (fetch or stale
  /// refresh), before the download is returned / the query resent.
  void on_oracle_refresh(std::function<void(const OracleDownload&)> fn) {
    on_refresh_ = std::move(fn);
  }

  /// Last known epoch of a place (0 = never fetched).
  std::uint32_t known_epoch(const std::string& place) const;

  /// Transparent stale-oracle recoveries performed so far.
  std::uint64_t stale_refreshes() const noexcept { return stale_refreshes_; }

  /// Opt in to the compact uplink: when the query names a place whose
  /// downloaded oracle carried a PQ codebook, localize() encodes each
  /// feature's descriptor into its 16-byte code and sends the compact
  /// frame (20 bytes/feature on the wire instead of 144). Fan-out queries
  /// (empty place) and places without a cached codebook stay raw — the
  /// codes would be meaningless against another place's centroids. A
  /// kStaleOracle reply re-encodes against the refreshed codebook before
  /// the resend, so epoch churn stays invisible to callers.
  void enable_compact_uplink(bool on = true) { compact_uplink_ = on; }

  /// Queries that actually went out compact so far.
  std::uint64_t compact_queries() const noexcept { return compact_queries_; }

  /// True when `place`'s last downloaded oracle carried a codebook.
  bool has_codebook(const std::string& place) const {
    return codebooks_.count(place) != 0;
  }

  /// Turn on end-to-end tracing: every subsequent localize() runs under
  /// its own FrameTrace, stamps the query with a fresh trace_id, and
  /// stitches client, link, and (when the sampled bit was set) echoed
  /// server spans into one StitchedTrace per query. `sample_rate` is the
  /// fraction of queries asking the server to echo its span block back
  /// (deterministic accumulator, not random: 0.25 samples exactly every
  /// 4th query). All queries carry a trace_id once tracing is on.
  void enable_tracing(double sample_rate = 1.0);

  /// Stitched traces collected since enable_tracing, one per completed
  /// localize() (render with obs::to_chrome_trace).
  const std::vector<obs::StitchedTrace>& traces() const noexcept {
    return traces_;
  }

 private:
  /// Run the transport and normalize both error styles into a pair
  /// (code, message); code 0 means `reply` holds the expected frame.
  /// `kind` labels the request type for the net.bytes.{up,down}.<kind>
  /// traffic counters ("query" / "oracle").
  std::uint16_t exchange(std::span<const std::uint8_t> request, Bytes& reply,
                         std::string& message, const char* kind);

  /// Encode query.features into query.codes against the place's cached
  /// codebook when the compact uplink applies; clears the compact fields
  /// otherwise. Returns whether the query goes out compact.
  bool stamp_compact(FingerprintQuery& query);

  /// Assemble one StitchedTrace from the query's FrameTrace (client lane),
  /// the measured send/receive instants (link lane), and the server span
  /// block echoed on `resp` (server lane). Must run while the query's
  /// FrameTrace is still the thread's active trace.
  void stitch(const FingerprintQuery& query, const LocationResponse& resp,
              std::chrono::steady_clock::time_point sent,
              std::chrono::steady_clock::time_point received);

  Transport transport_;
  std::function<void(const OracleDownload&)> on_refresh_;
  std::map<std::string, std::uint32_t> epochs_;
  std::map<std::string, PqCodebook> codebooks_;
  std::uint64_t stale_refreshes_ = 0;
  std::uint64_t compact_queries_ = 0;
  bool compact_uplink_ = false;
  bool tracing_ = false;
  double sample_rate_ = 1.0;
  double sample_accum_ = 0.0;
  std::vector<obs::StitchedTrace> traces_;
  /// Session-relative time base for StitchedTrace::base_ms.
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

}  // namespace vp
