// Sharded, multi-place map store — the server's core state container.
//
// The cloud side of the paper keeps one keypoint→3D table and one
// uniqueness oracle. A deployment carrying many venues keeps one such
// bundle *per place* (a building, a wing, a store), and must keep serving
// localization queries while wardriving refreshes arrive. The MapStore
// provides exactly that:
//
//   - Each place's state (stored keypoints + LshIndex + UniquenessOracle +
//     label + epoch) lives in an immutable PlaceShard.
//   - Readers obtain the current shard set through one shared_ptr copy
//     (RCU-style snapshot, behind a mutex held only for the copy); the
//     query hot path never observes a half-ingested shard.
//   - Writers mutate a private per-place builder under a mutex, then
//     *publish*: copy the builder into a fresh immutable shard, swap the
//     shard map pointer atomically, and bump the place's oracle epoch.
//     In-flight queries keep their old snapshot alive via shared_ptr
//     refcounts; new queries see the new epoch.
//   - Each published snapshot owns one slot for its encoded oracle
//     download (the `'O'` reply), filled at most once: by the explicit
//     publish that creates the snapshot, or by the first download of a
//     snapshot that arrived any other way (restore, fault-in, read-path
//     flush). The bytes live and die with their epoch's snapshot.
//
// Epochs are the client-visible version of a place's oracle: every publish
// increments them, oracle downloads carry them, and queries echo them so
// the server can answer `kStaleOracle` when a client selects keypoints
// against an outdated oracle (see net/wire.hpp and DESIGN.md §9).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/residency.hpp"
#include "geometry/clustering.hpp"
#include "geometry/localize.hpp"
#include "hashing/oracle.hpp"
#include "index/lsh_index.hpp"
#include "net/wire.hpp"
#include "slam/mapping.hpp"

namespace vp {

class ThreadPool;

struct ServerConfig {
  LshIndexConfig index{};        ///< keypoint->3D lookup table parameters
  OracleConfig oracle{};         ///< uniqueness-oracle parameters
  std::size_t neighbors_per_keypoint = 2;  ///< n in the |K|*n retrieval
  std::uint32_t max_match_distance2 = 65'000;  ///< reject weak matches
  /// Largest-cluster filter. Tighter than the generic default: with
  /// wardriven floors/walls everywhere, a generous radius chains retrieved
  /// points across the whole building into one meaningless mega-cluster.
  ClusteringConfig clustering{.radius = 1.5, .min_points = 4};
  LocalizeConfig localize{};     ///< Fig. 12 solver parameters
  /// Compact queries: rank through the symmetric ADC fast path —
  /// gather each query code's precomputed table rows instead of rebuilding
  /// the table from the reconstructed descriptor. Bit-identical results
  /// either way (see PqCodebook::build_symmetric_adc_table), so this is a
  /// pure serving-speed knob. Runtime-only, like `pool`: not persisted.
  bool compact_symmetric = false;
  std::string place_label = "indoor";
  /// Borrowed worker pool (never owned). When set, queries that name no
  /// place fan retrieval out across shards in parallel.
  ThreadPool* pool = nullptr;
};

/// Metadata stored per indexed descriptor.
struct StoredKeypoint {
  Vec3 position;
  std::int32_t scene_id = -1;
  std::uint32_t source_id = 0;  ///< wardriving snapshot or database image
};

/// One place's complete server-side state. Immutable once published: the
/// query path reads PlaceShards only through `shared_ptr<const PlaceShard>`
/// snapshots, so no synchronization is needed beyond the pointer load.
struct PlaceShard {
  std::string place;            ///< shard id, e.g. "louvre-denon"
  ServerConfig config;          ///< per-place parameters (label, bounds, ...)
  std::uint32_t epoch = 0;      ///< bumped on every publish; 0 = never
  std::uint32_t oracle_version = 0;  ///< fine-grained insert counter
  LshIndex index;
  UniquenessOracle oracle;
  std::vector<StoredKeypoint> stored;
  int scene_count = 0;

  explicit PlaceShard(std::string place_id, ServerConfig cfg)
      : place(std::move(place_id)),
        config(std::move(cfg)),
        index(config.index),
        oracle(config.oracle) {}

  /// Localize one query against this shard alone: LSH retrieval of |K|*n
  /// candidate 3-D points, largest-cluster filtering, the Fig. 12 solve.
  /// `pool`, when given, parallelizes the retrieval batch and the DE
  /// objective sweep — borrowed runtime plumbing (never persisted), hence
  /// a parameter rather than shard state. Results are identical for any
  /// pool size. `symmetric_adc` (ORed with config.compact_symmetric)
  /// serves compact queries through the symmetric-ADC coarse stage —
  /// bit-identical answers, one ADC table build cheaper per descriptor.
  LocationResponse localize(const FingerprintQuery& query, Rng& rng,
                            ThreadPool* pool = nullptr,
                            bool symmetric_adc = false) const;

  /// Scene votes for a feature set (retrieval experiments): vote[s] =
  /// query features whose accepted nearest neighbor belongs to scene s.
  std::vector<std::uint32_t> scene_votes(std::span<const Feature> features,
                                         ThreadPool* pool = nullptr) const;

  /// This snapshot's encoded oracle download — exactly
  /// `OracleDownload::pack(oracle, epoch, place, codebook).encode()`, the
  /// codebook present when the index is PQ-ready. Packed once, single-
  /// flight, on first call (concurrent callers wait for that one pack);
  /// later calls return the same bytes. Call only on published snapshots:
  /// a builder keeps changing under its slot. `pool` lends the pack's zlib
  /// pass helper threads (see zlib_compress); the bytes do not depend on it.
  const Bytes& oracle_reply(ThreadPool* pool = nullptr) const;

  /// Storage behind oracle_reply(). A copied shard starts with an empty
  /// slot: every copy is a new snapshot or a mutable builder, so encoded
  /// bytes never outlive the state they encode.
  struct OracleReplySlot {
    OracleReplySlot() = default;
    OracleReplySlot(const OracleReplySlot&) {}
    OracleReplySlot& operator=(const OracleReplySlot&) = delete;

    std::once_flag packed;  ///< the single flight
    Bytes bytes;            ///< immutable once `packed` has run
  };
  mutable OracleReplySlot oracle_reply_slot;
};

/// The sharded store. Thread-safety contract:
///   - `localize`, `snapshot`, `snapshots`, `oracle_reply` and
///     `oracle_snapshot` are safe to call from any number of threads
///     concurrently with any writer.
///   - Writers (`ingest*`, `publish`, `restore_shard`) serialize on an
///     internal mutex; concurrent writers are safe but sequenced. The
///     explicit publishes (`ingest_wardrive`, `publish`) pack the new
///     snapshot's oracle download with that mutex released, so reads that
///     fault a cold shard in or flush a builder do not wait for zlib.
///   - `builder_shard` returns writer-side mutable state and is intended
///     for single-threaded setup/inspection (tests, benches, tools), like
///     the original monolithic server's accessors.
class MapStore {
 public:
  /// `eager_default_builder` (the default) creates the default place's
  /// builder — and its full-capacity oracle — at construction, so the
  /// monolithic-server accessors work immediately. The lazy database
  /// load path passes false: its registration replaces the builder
  /// anyway, and a large oracle allocation would defeat the near-zero
  /// registration cost that lazy loading promises.
  explicit MapStore(ServerConfig default_config,
                    bool eager_default_builder = true);

  /// The place id writes and reads use when none is given: the default
  /// config's place_label.
  const std::string& default_place() const noexcept { return default_place_; }

  // --- writer API -------------------------------------------------------

  /// Buffer one keypoint-to-3D mapping into `place`'s builder. Not visible
  /// to queries until the next publish (bulk ingest publishes itself;
  /// read paths flush pending single ingests first, so single-threaded
  /// ingest-then-query callers always read their writes).
  void ingest(const std::string& place, const Feature& feature,
              Vec3 world_position, std::int32_t scene_id = -1,
              std::uint32_t source_id = 0);

  /// Bulk ingest of a wardrive result into `place`, then publish: one
  /// builder copy, one oracle-download pack, one atomic swap, epoch+1.
  /// The pack runs after the writer mutex is released and before the
  /// swap; if a read-path flush or restore_shard installs a newer state
  /// for the place meanwhile, that state wins and this snapshot is
  /// dropped. `config`, when given, seeds the place's parameters on first
  /// contact (ignored afterwards).
  void ingest_wardrive(const std::string& place,
                       std::span<const KeypointMapping> mappings,
                       const ServerConfig* config = nullptr);

  /// Publish `place`'s builder now (no-op epoch bump if nothing pending).
  /// ingest_wardrive with no mappings: packs the new snapshot's oracle
  /// download before the swap, so no client download after it pays
  /// compression.
  void publish(const std::string& place);

  /// Install a fully-built shard (persistence load path): builder and
  /// published snapshot are set to exactly this state, epoch preserved.
  /// A residency registration for the place (if any) is dropped — the
  /// eager shard replaces the managed one.
  void restore_shard(std::unique_ptr<PlaceShard> shard);

  // --- tiered residency (core/residency.hpp) ----------------------------

  /// Register a shard cold: known to the store (places(), epoch(),
  /// storage_mode() answer from the manifest) but not loaded until the
  /// first query faults it in. Replaces any previous registration,
  /// published snapshot, or stateless builder for the place.
  void register_cold_shard(ShardResidencyManager::Manifest manifest);

  /// Snapshot of `place`, faulting it in if registered but cold (single-
  /// flight: concurrent callers run one loader). nullptr for places that
  /// are neither published nor registered. The returned shared_ptr pins
  /// the shard even if the budget evicts it immediately after.
  std::shared_ptr<const PlaceShard> fault_in(const std::string& place) const;

  /// LRU resident-byte budget for registered shards; 0 = unlimited.
  /// Shrinking below current residency evicts immediately (under the
  /// usual snapshot discipline: in-flight queries keep their shard).
  void set_resident_budget(std::size_t bytes);

  ShardResidencyManager& residency() noexcept { return *residency_; }
  const ShardResidencyManager& residency() const noexcept {
    return *residency_;
  }

  // --- reader API (no writer lock once pending writes are flushed) ------

  /// Current immutable snapshot of one place; nullptr when unknown OR
  /// registered but cold (metadata readers must not fault shards in —
  /// use fault_in for that).
  std::shared_ptr<const PlaceShard> snapshot(const std::string& place) const;

  /// Current immutable snapshots of every place, in place-name order.
  /// Faults every registered cold shard in (persistence needs complete
  /// data); each returned shared_ptr pins its shard against eviction.
  std::vector<std::shared_ptr<const PlaceShard>> snapshots() const;

  /// Answer a localization query. A named place routes to that shard,
  /// faulting it in if registered but cold (unknown place → structured
  /// no-fix response, never a throw); an empty place fans out across the
  /// *resident* shards — on the borrowed pool when configured — and
  /// returns the best-scoring place's answer. Cold shards never join the
  /// fan-out: one anonymous query must not page the whole tier in.
  LocationResponse localize(const FingerprintQuery& query, Rng& rng) const;

  /// Encoded oracle download of `place`'s current snapshot (empty `place`
  /// = default place): its PlaceShard::oracle_reply() bytes, faulting a
  /// cold shard in and packing on first request. The returned pointer pins
  /// the snapshot. Throws InvalidArgument for an unknown place.
  std::shared_ptr<const Bytes> oracle_reply(const std::string& place) const;

  /// oracle_reply() decoded: the epoch'd oracle download a client
  /// installs. Same place rules and errors.
  OracleDownload oracle_snapshot(const std::string& place) const;

  /// Attach (or detach, with nullptr) the borrowed fan-out worker pool.
  /// Pools are runtime plumbing, never persisted, so a server restored
  /// from disk re-attaches its pool through here. Call during setup,
  /// before queries start — the pointer is read unsynchronized on the
  /// query path.
  void set_pool(ThreadPool* pool);

  /// Serve compact queries through the symmetric-ADC coarse stage on every
  /// shard. Runtime plumbing like the pool (never persisted — a loaded
  /// server re-opts in); answers are bit-identical either way, so this is
  /// purely a serving-cost knob. Call during setup, before queries start.
  void set_compact_symmetric(bool on);

  /// Place counts/ids include registered-but-cold shards: a place does
  /// not disappear from the catalog just because it was evicted.
  std::size_t place_count() const;
  std::vector<std::string> places() const;
  /// Published epoch of a place (0 when unknown/never published). Cold
  /// registered places answer from the manifest without faulting.
  std::uint32_t epoch(const std::string& place) const;
  /// Descriptor storage mode of a place's published shard: "pq" when its
  /// index answers queries through the coarse ADC scan, "exact" otherwise,
  /// empty for an unknown place. Empty `place` means the default place.
  /// Cold registered places answer from the manifest without faulting.
  std::string_view storage_mode(const std::string& place) const;
  /// Total atomic shard-map swaps since construction.
  std::uint64_t swap_count() const noexcept {
    return swap_count_.load(std::memory_order_relaxed);
  }

  // --- writer-side direct access (single-threaded tooling) --------------

  /// Mutable builder state of a place; created on first use. The returned
  /// shard is stable for the store's lifetime (publishes copy from it).
  PlaceShard& builder_shard(const std::string& place);
  const PlaceShard& builder_shard(const std::string& place) const;
  /// True when the place has a builder (has ever been written or restored).
  bool has_builder(const std::string& place) const;

 private:
  struct Builder {
    std::unique_ptr<PlaceShard> shard;  ///< mutable working copy
    bool dirty = true;  ///< builder has state the snapshot map lacks
  };

  using ShardMap =
      std::map<std::string, std::shared_ptr<const PlaceShard>, std::less<>>;

  /// Publish any builder with pending writes. Cheap when clean: one
  /// relaxed atomic load on the hot path, no lock taken.
  void flush() const;

  Builder& builder_locked(const std::string& place, const ServerConfig* cfg);
  /// Bump the builder's epoch and copy it into a fresh snapshot (not yet
  /// visible to readers). Caller holds write_mutex_.
  std::shared_ptr<const PlaceShard> snapshot_locked(Builder& b);
  /// Swap `published` in as `place`'s snapshot. Caller holds write_mutex_.
  void install_locked(const std::string& place,
                      const std::shared_ptr<const PlaceShard>& published);
  std::shared_ptr<const ShardMap> state() const {
    std::lock_guard lock(state_mutex_);
    return state_;
  }
  void set_state(std::shared_ptr<const ShardMap> next) {
    {
      std::lock_guard lock(state_mutex_);
      state_.swap(next);
    }
    // `next` now holds the old map; release it outside the lock.
  }

  /// Write-path prologue for residency-managed places: fault the shard in,
  /// pin it (a written shard diverges from its backing file and must never
  /// be evicted), and seed its builder from the resident snapshot. MUST be
  /// called before taking write_mutex_ — the fault may block on another
  /// thread's load, whose install needs that mutex (lock order is always
  /// write_mutex_ -> manager mutex, and waits happen under neither).
  void prepare_write(const std::string& place);

  /// Publish a freshly-loaded shard into the snapshot map and apply any
  /// budget evictions the manager orders (one atomic swap for both).
  std::shared_ptr<const PlaceShard> install_loaded(
      const std::string& place, std::unique_ptr<PlaceShard> loaded) const;

  ServerConfig default_config_;
  std::string default_place_;

  /// Sequences explicit publishes, which hold it across their pack; lock
  /// order publish_mutex_ -> write_mutex_.
  std::mutex publish_mutex_;
  mutable std::mutex write_mutex_;              ///< writers + flush
  std::map<std::string, Builder, std::less<>> builders_;  ///< guarded
  std::atomic<bool> any_dirty_{false};

  // The published shard map. A mutex rather than atomic<shared_ptr>:
  // libstdc++ 12's atomic<shared_ptr> is not lock-free either, and its
  // load releases its internal lock with relaxed ordering, so a reader's
  // copy does not happen-before the next swap (a race TSan reports).
  mutable std::mutex state_mutex_;
  std::shared_ptr<const ShardMap> state_;  ///< guarded by state_mutex_
  std::atomic<std::uint64_t> swap_count_{0};

  // Residency policy + accounting for lazily-registered shards. Behind a
  // unique_ptr (shallow const) so const read paths can fault shards in;
  // the manager is internally synchronized.
  std::unique_ptr<ShardResidencyManager> residency_;
};

}  // namespace vp
