// VisualPrint cloud service (paper §3, "Cloud Processing and 3D
// Positioning"). The server is a thin dispatch facade over the sharded
// MapStore (core/map_store.hpp), which owns the two paper data structures
// per place:
//   1. the LSH-indexed keypoint -> 3-D position lookup table, and
//   2. the LSH-indexed counting Bloom filters (the uniqueness oracle)
//      that clients download.
// The single-place API (ingest with no place, oracle()/index() accessors)
// operates on the store's default place, so pre-shard callers keep their
// exact semantics; the place-aware API routes to named shards.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/map_store.hpp"
#include "net/admission.hpp"
#include "obs/slow_log.hpp"

namespace vp {

/// Per-process serving state that is not map data: the slow-query log,
/// the query admission gate, and the counters behind the self-describing
/// gauges (uptime, trace sampling rate). Behind a unique_ptr so the server
/// stays movable.
struct ServerRuntime {
  obs::SlowQueryLog slow_log;
  /// Query admission control (DESIGN.md §13): bounds concurrently
  /// executing 'Q' handlers; excess queries are answered with a
  /// structured ErrorResponse{kOverloaded} before any decode work.
  /// Cap 0 (the default) admits everything.
  AdmissionGate admission;
  std::atomic<std::uint64_t> queries_seen{0};
  std::atomic<std::uint64_t> queries_traced{0};
  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
};

/// How load()/load_shards() bring a database file into the store.
struct DbLoadOptions {
  /// Register every shard cold (mmap'd manifest only) instead of loading
  /// it; the first query naming a place faults it in. See
  /// core/residency.hpp.
  bool lazy = false;
  /// LRU resident-byte budget for lazily-registered shards; 0 (default)
  /// keeps everything resident once faulted.
  std::size_t resident_budget = 0;
};

class VisualPrintServer {
 public:
  explicit VisualPrintServer(ServerConfig config);

  /// Ingest one keypoint-to-3D mapping from the wardriving app into the
  /// default place. Updates both the lookup table and the oracle
  /// (constant time and memory); visible to queries from the next read.
  void ingest(const Feature& feature, Vec3 world_position,
              std::int32_t scene_id = -1, std::uint32_t source_id = 0);

  /// Bulk ingest of a wardrive result into the default place.
  void ingest_wardrive(std::span<const KeypointMapping> mappings);

  /// Bulk ingest of a wardrive result into a named place; publishes a new
  /// shard snapshot atomically (safe while queries are being served).
  /// `config`, when given, seeds the place's parameters on first contact.
  void ingest_wardrive(const std::string& place,
                       std::span<const KeypointMapping> mappings,
                       const ServerConfig* config = nullptr);

  /// Answer a localization query: LSH retrieval of |K|*n candidate 3-D
  /// points, largest-cluster filtering, then the Fig. 12 pose solve.
  /// `query.place` routes to one shard ("" = all; see MapStore::localize);
  /// empty and unknown places yield a structured no-fix response.
  LocationResponse localize_query(const FingerprintQuery& query, Rng& rng) const;

  /// Dispatch one framed TCP request (tag byte + encoded body) to the
  /// matching handler: 'O' -> OracleDownload (empty body = default place,
  /// else an OracleRequest naming the shard; the snapshot's bytes, packed
  /// once per published epoch — see MapStore::oracle_reply),
  /// 'Q' -> LocationResponse,
  /// 'S' -> StatsResponse rendered from the global obs registry. A query
  /// whose oracle_epoch no longer matches its place's published epoch
  /// returns an encoded ErrorResponse{kStaleOracle} so the client can
  /// refresh and resend. Throws DecodeError for empty requests and unknown
  /// tags — under TcpListener::serve that surfaces to the client as a
  /// structured ErrorResponse (`VPE!`). Thread-safe for concurrent
  /// serving: queries run against immutable shard snapshots and each call
  /// forks its own solver rng from `solver_seed` and the query frame id.
  Bytes handle_request(std::span<const std::uint8_t> request,
                       std::uint64_t solver_seed) const;

  /// Scene votes for a set of query features against the default place
  /// (retrieval experiments): vote[s] = number of query features whose
  /// accepted nearest neighbor belongs to scene s. Index -1 votes dropped.
  std::vector<std::uint32_t> scene_votes(std::span<const Feature> features)
      const;

  /// Current oracle snapshot of the default place for client download.
  OracleDownload oracle_snapshot() const;

  /// Epoch'd oracle snapshot of a named place ("" = default place).
  /// Throws InvalidArgument for an unknown place.
  OracleDownload oracle_snapshot(const std::string& place) const;

  // Default-place accessors (writer-side builder state; read-your-writes).
  const UniquenessOracle& oracle() const;
  const LshIndex& index() const;
  std::size_t keypoint_count() const;
  const StoredKeypoint& stored(std::uint32_t id) const;
  int scene_count() const;

  /// Server-side memory footprint of the default place's lookup table
  /// (the Fig. 15 "LSH" column).
  std::size_t index_byte_size() const;

  /// The sharded store behind this server.
  MapStore& store() noexcept { return *store_; }
  const MapStore& store() const noexcept { return *store_; }
  std::vector<std::string> places() const { return store_->places(); }

  /// Worst-N slow-query log fed by every handled 'Q' request (also
  /// rendered over the wire as StatsRequest format 2).
  const obs::SlowQueryLog& slow_log() const noexcept {
    return runtime_->slow_log;
  }

  /// Bound on concurrently executing 'Q' handlers; queries beyond it are
  /// shed with ErrorResponse{kOverloaded} instead of queueing until their
  /// deadline blows out. 0 = unlimited (the default). Oracle downloads and
  /// stats scrapes are never shed — an overloaded server must still be
  /// observable.
  void set_max_inflight(std::size_t cap) noexcept {
    runtime_->admission.set_max_inflight(cap);
  }

  /// The query admission gate (inflight/admitted/shed counters; tests
  /// hold tickets on it to pin the shed path deterministically).
  AdmissionGate& admission() noexcept { return runtime_->admission; }
  const AdmissionGate& admission() const noexcept {
    return runtime_->admission;
  }

  /// Persist the full database — every shard's configuration, stored
  /// keypoints (descriptor + 3-D position + labels), and oracle — to one
  /// file. The LSH indexes are rebuilt on load from the stored
  /// descriptors, so the file stays an order of magnitude smaller than
  /// resident memory.
  void save(const std::string& path) const;
  /// Restore a saved database. Default options load every shard eagerly
  /// (database files borrow their bulk segments from the mmap'd file);
  /// opts.lazy registers shards cold for first-query fault-in under
  /// opts.resident_budget.
  static VisualPrintServer load(const std::string& path,
                                const DbLoadOptions& opts = {});

  /// Merge every shard of another database file into this server
  /// (repeatable `--db`). A place already present is replaced by the
  /// file's version of it. opts.lazy registers the file's shards cold
  /// instead of loading them.
  void load_shards(const std::string& path, const DbLoadOptions& opts = {});

  /// In-memory equivalents of save/load (used by tests and by save/load).
  Bytes serialize() const;
  static VisualPrintServer deserialize(std::span<const std::uint8_t> data);

 private:
  /// Lazy-load constructor: skips the default place's builder (and its
  /// full-capacity oracle allocation) because the caller is about to
  /// register the database's shards cold, replacing it anyway.
  VisualPrintServer(ServerConfig config, bool eager_default_builder);

  const PlaceShard& default_builder() const;

  /// The 'Q' branch of handle_request: runs decode + localize under a
  /// server-side FrameTrace, echoes trace context on traced replies, and
  /// feeds the slow-query log.
  Bytes handle_query(std::span<const std::uint8_t> body,
                     std::uint64_t solver_seed) const;

  // Behind unique_ptr so the server stays movable (load/deserialize return
  // by value); the store itself pins a mutex and atomics.
  std::unique_ptr<MapStore> store_;
  std::unique_ptr<ServerRuntime> runtime_;
};

}  // namespace vp
