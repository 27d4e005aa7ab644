#include "core/map_store.hpp"

#include <algorithm>
#include <optional>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace vp {

// ---------------------------------------------------------------------------
// PlaceShard

LocationResponse PlaceShard::localize(const FingerprintQuery& query,
                                      Rng& rng, ThreadPool* pool,
                                      bool symmetric_adc) const {
  LocationResponse resp;
  resp.frame_id = query.frame_id;
  resp.place = place;
  resp.place_label = config.place_label;
  VP_OBS_COUNT("server.queries", 1);
  VP_OBS_COUNT("store.queries." + place, 1);

  // A compact query carries PQ codes, no raw descriptors; it can only be
  // ranked against a PQ-ready index (the server's codebook-epoch gate
  // normally guarantees this — a shard that lost PQ mode answers a
  // structured no-fix rather than ranking zeroed descriptors).
  const bool compact = query.compact();
  if (compact && !index.pq_ready()) {
    VP_OBS_COUNT("server.compact_unrankable", 1);
    return resp;  // found = false
  }

  // Retrieval: |K| * n candidate (pixel, 3-D point) pairs, scored as one
  // batch so the pool and the per-worker scratch both apply.
  std::vector<Observation> candidates;
  std::vector<Vec3> points;
  {
    VP_OBS_SPAN("lsh.retrieve");
    std::vector<Descriptor> qd;
    qd.reserve(query.features.size());
    if (compact) {
      // Reconstruct each code from its centroids: the reconstructed
      // descriptor drives LSH bucketing and the exact rerank, so the
      // compact path rejoins the raw pipeline right here. The symmetric
      // mode additionally reuses the codes for the coarse ADC tables.
      const PqCodebook& book = index.pq_codebook();
      for (std::size_t i = 0; i < query.features.size(); ++i) {
        Descriptor d;
        book.reconstruct(query.codes.data() + i * kPqCodeBytes, d.data());
        qd.push_back(d);
      }
    } else {
      for (const auto& f : query.features) qd.push_back(f.descriptor);
    }
    const auto batch =
        compact && (symmetric_adc || config.compact_symmetric)
            ? index.query_batch_codes(qd, query.codes,
                                      config.neighbors_per_keypoint, pool)
            : index.query_batch(qd, config.neighbors_per_keypoint, pool);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto& f = query.features[i];
      for (const auto& m : batch[i]) {
        if (m.distance2 > config.max_match_distance2) continue;
        candidates.push_back(
            {{f.keypoint.x, f.keypoint.y}, stored[m.id].position});
        points.push_back(stored[m.id].position);
      }
    }
  }
  VP_OBS_TRACE_NOTE("server.candidates", candidates.size());
  if (candidates.size() < 3) return resp;  // found = false

  // Largest spatial cluster; discard everything else (repetitions
  // elsewhere in the building vote into other clusters).
  std::vector<std::size_t> keep;
  {
    VP_OBS_SPAN("cluster");
    keep = largest_cluster(points, config.clustering);
  }
  VP_OBS_TRACE_NOTE("server.clustered", keep.size());
  if (keep.size() < 3) return resp;
  std::vector<Observation> obs;
  obs.reserve(keep.size());
  for (std::size_t i : keep) obs.push_back(candidates[i]);

  CameraIntrinsics cam;
  cam.width = query.image_width;
  cam.height = query.image_height;
  cam.fov_h = static_cast<double>(query.fov_h);
  LocalizeConfig solve_cfg = config.localize;
  solve_cfg.de.pool = pool;  // chunked objective evaluation, same answer
  std::optional<LocalizeResult> result;
  {
    VP_OBS_SPAN("localize.solve");
    result = vp::localize(obs, cam, solve_cfg, rng);
  }
  if (!result) return resp;

  VP_OBS_COUNT("server.localized", 1);
  resp.found = true;
  resp.position = result->pose.translation;
  euler_zyx(result->pose.rotation, resp.yaw, resp.pitch, resp.roll);
  resp.residual = result->residual;
  resp.matched_keypoints = static_cast<std::uint32_t>(obs.size());
  return resp;
}

std::vector<std::uint32_t> PlaceShard::scene_votes(
    std::span<const Feature> features, ThreadPool* pool) const {
  std::vector<std::uint32_t> votes(
      static_cast<std::size_t>(std::max(0, scene_count)), 0);
  std::vector<Descriptor> qd;
  qd.reserve(features.size());
  for (const auto& f : features) qd.push_back(f.descriptor);
  for (const auto& matches : index.query_batch(qd, 1, pool)) {
    if (matches.empty()) continue;
    if (matches[0].distance2 > config.max_match_distance2) continue;
    const std::int32_t sid = stored[matches[0].id].scene_id;
    if (sid >= 0 && static_cast<std::size_t>(sid) < votes.size()) {
      ++votes[static_cast<std::size_t>(sid)];
    }
  }
  return votes;
}

const Bytes& PlaceShard::oracle_reply(ThreadPool* pool) const {
  OracleReplySlot& slot = oracle_reply_slot;
  std::call_once(slot.packed, [&] {
    Timer timer;
    // A PQ-ready shard ships its codebook with the oracle, so the client
    // can encode compact query fingerprints against this exact epoch.
    slot.bytes = OracleDownload::pack(oracle, epoch, place,
                                      index.pq_ready()
                                          ? index.pq_codebook().raw()
                                          : std::span<const std::uint8_t>{},
                                      pool)
                     .encode();
    VP_OBS_OBSERVE("store.oracle_pack", timer.millis());
    VP_OBS_COUNT("store.oracle_packs", 1);
    VP_OBS_GAUGE_SET("store.bytes.oracle_reply." + place,
                     static_cast<double>(slot.bytes.size()));
  });
  return slot.bytes;
}

namespace {

void ingest_into(PlaceShard& shard, const Feature& feature,
                 Vec3 world_position, std::int32_t scene_id,
                 std::uint32_t source_id) {
  const std::uint32_t id = shard.index.insert(feature.descriptor);
  VP_ASSERT(id == shard.stored.size());
  shard.stored.push_back({world_position, scene_id, source_id});
  shard.oracle.insert(feature.descriptor);
  shard.scene_count = std::max(shard.scene_count, scene_id + 1);
  ++shard.oracle_version;
}

/// What one resident shard costs against the LRU byte budget: index
/// (descriptors + bucket maps + PQ payload; borrowed mmap spans count at
/// face value — the budget bounds address space, not just heap), oracle
/// tables, and the stored-keypoint array.
std::size_t shard_resident_bytes(const PlaceShard& shard) {
  return shard.index.byte_size() + shard.oracle.byte_size() +
         shard.stored.capacity() * sizeof(StoredKeypoint);
}

}  // namespace

// ---------------------------------------------------------------------------
// MapStore

MapStore::MapStore(ServerConfig default_config, bool eager_default_builder)
    : default_config_(std::move(default_config)),
      default_place_(default_config_.place_label),
      state_(std::make_shared<const ShardMap>()),
      residency_(std::make_unique<ShardResidencyManager>()) {
  // The default place always exists: the monolithic-server API (ingest
  // with no place, oracle()/index() accessors) reads and writes it. The
  // lazy load path defers it (see header) — registration replaces it.
  if (eager_default_builder) {
    std::lock_guard lock(write_mutex_);
    builder_locked(default_place_, &default_config_);
  }
}

MapStore::Builder& MapStore::builder_locked(const std::string& place,
                                            const ServerConfig* cfg) {
  auto it = builders_.find(place);
  if (it == builders_.end()) {
    ServerConfig shard_cfg = cfg ? *cfg : default_config_;
    if (cfg == nullptr) shard_cfg.place_label = place;
    auto shard = std::make_unique<PlaceShard>(place, std::move(shard_cfg));
    it = builders_.emplace(place, Builder{std::move(shard), true}).first;
    any_dirty_.store(true, std::memory_order_release);
  }
  return it->second;
}

void MapStore::ingest(const std::string& place, const Feature& feature,
                      Vec3 world_position, std::int32_t scene_id,
                      std::uint32_t source_id) {
  prepare_write(place);
  std::lock_guard lock(write_mutex_);
  Builder& b = builder_locked(place, nullptr);
  ingest_into(*b.shard, feature, world_position, scene_id, source_id);
  b.dirty = true;
  any_dirty_.store(true, std::memory_order_release);
}

void MapStore::ingest_wardrive(const std::string& place,
                               std::span<const KeypointMapping> mappings,
                               const ServerConfig* config) {
  prepare_write(place);
  std::lock_guard publishing(publish_mutex_);
  std::shared_ptr<const PlaceShard> published;
  std::shared_ptr<const PlaceShard> current;  // held: no address reuse
  ThreadPool* pool = nullptr;
  {
    std::lock_guard lock(write_mutex_);
    pool = default_config_.pool;
    Builder& b = builder_locked(place, config);
    for (const auto& m : mappings) {
      ingest_into(*b.shard, m.feature, m.world_position, -1, m.snapshot);
    }
    published = snapshot_locked(b);
    const auto map = state();
    const auto it = map->find(place);
    if (it != map->end()) current = it->second;
  }
  // Pack the download here, on the writer, before any reader can see the
  // epoch: otherwise every client refetching after this publish would
  // race to pay the zlib pass inside one of its own fixes. Only
  // publish_mutex_ is held, so faults, flushes and single ingests proceed.
  // The store pool's idle workers help with the zlib chunks; busy ones
  // (e.g. held by open connections) are not waited for.
  published->oracle_reply(pool);
  std::lock_guard lock(write_mutex_);
  const auto map = state();
  const auto it = map->find(place);
  // A read-path flush (newer epoch of this builder) or restore_shard
  // replaced the place while we packed; that state supersedes ours.
  if ((it == map->end() ? nullptr : it->second) != current) return;
  install_locked(place, published);
}

void MapStore::publish(const std::string& place) {
  ingest_wardrive(place, {});
}

std::shared_ptr<const PlaceShard> MapStore::snapshot_locked(Builder& b) {
  b.shard->epoch += 1;
  // PQ mode trains on the builder *before* the copy below, so the
  // published immutable shard always carries a ready codebook + codes
  // (readers never pay training, and pq_ready() holds on snapshots).
  // First publish trains the codebook; later publishes only encode
  // whatever ingest added since.
  if (b.shard->config.index.pq.enabled) {
    b.shard->index.train_pq();
  }
  b.dirty = false;
  // Copy-on-publish: the builder stays the stable mutable copy (its
  // address never changes, so writer-side references remain valid); the
  // published shard is an immutable deep copy readers share.
  return std::make_shared<const PlaceShard>(*b.shard);
}

void MapStore::install_locked(
    const std::string& place,
    const std::shared_ptr<const PlaceShard>& published) {
  auto next = std::make_shared<ShardMap>(*state());
  (*next)[place] = published;
  [[maybe_unused]] const std::size_t shards = next->size();
  set_state(std::move(next));
  swap_count_.fetch_add(1, std::memory_order_relaxed);
  VP_OBS_COUNT("store.swaps", 1);
  VP_OBS_GAUGE_SET("store.shards", static_cast<double>(shards));
  VP_OBS_GAUGE_SET("store.epoch." + place,
                   static_cast<double>(published->epoch));
  VP_OBS_GAUGE_SET("store.bytes.descriptors." + place,
                   static_cast<double>(published->index.descriptor_bytes()));
  VP_OBS_GAUGE_SET("store.bytes.pq." + place,
                   static_cast<double>(published->index.pq_bytes()));
  VP_OBS_GAUGE_SET(
      "index.rerank_depth",
      static_cast<double>(published->config.index.pq.rerank_depth));
}

void MapStore::restore_shard(std::unique_ptr<PlaceShard> shard) {
  VP_ASSERT(shard != nullptr);
  std::lock_guard lock(write_mutex_);
  const std::string place = shard->place;
  // An eagerly-restored shard supersedes any cold registration: the
  // manager must not later fault a stale disk copy over it.
  residency_->forget(place);
  auto published = std::make_shared<const PlaceShard>(*shard);
  builders_[place] = Builder{std::move(shard), false};
  auto next = std::make_shared<ShardMap>(*state());
  (*next)[place] = std::move(published);
  [[maybe_unused]] const std::size_t shards = next->size();
  set_state(std::move(next));
  swap_count_.fetch_add(1, std::memory_order_relaxed);
  VP_OBS_GAUGE_SET("store.shards", static_cast<double>(shards));
}

void MapStore::register_cold_shard(ShardResidencyManager::Manifest manifest) {
  std::lock_guard lock(write_mutex_);
  const std::string& place = manifest.place;
  // Replace semantics (mirrors restore_shard): drop the place's builder
  // and published snapshot so the first fault loads the file's version.
  // The default place always carries an empty builder from construction;
  // dropping it here is what arms lazy loading for it.
  if (builders_.erase(place) != 0) {
    bool dirty = false;
    for (const auto& [_, b] : builders_) dirty |= b.dirty;
    any_dirty_.store(dirty, std::memory_order_release);
  }
  if (state()->find(place) != state()->end()) {
    auto next = std::make_shared<ShardMap>(*state());
    next->erase(place);
    set_state(std::move(next));
    swap_count_.fetch_add(1, std::memory_order_relaxed);
  }
  residency_->register_cold(std::move(manifest));
  VP_OBS_GAUGE_SET(
      "store.resident_bytes",
      static_cast<double>(residency_->stats().resident_bytes));
}

std::shared_ptr<const PlaceShard> MapStore::fault_in(
    const std::string& place) const {
  flush();
  for (;;) {
    {
      const auto map = state();
      const auto it = map->find(place);
      if (it != map->end()) {
        if (residency_->registered(place)) {
          residency_->touch(place);
          VP_OBS_COUNT("store.lru.hits", 1);
        }
        return it->second;
      }
    }
    switch (residency_->begin_fault(place)) {
      case ShardResidencyManager::Fault::kNotManaged:
        return nullptr;
      case ShardResidencyManager::Fault::kResident: {
        // Another thread finished the load (or we raced an install).
        // Usually the map now has it; an immediate eviction loops us back
        // into a fresh fault. A spurious cv wakeup can land in the tiny
        // window between finish_load and the installer's map store —
        // yield instead of hammering the manager mutex.
        const auto map = state();
        const auto it = map->find(place);
        if (it != map->end()) return it->second;
        std::this_thread::yield();
        continue;
      }
      case ShardResidencyManager::Fault::kMustLoad:
        break;
    }
    // This thread won the single-flight race: run the loader with no
    // locks held, then install under the writer mutex. Waiters wake in
    // finish_load/abort_load.
    VP_OBS_COUNT("store.lru.misses", 1);
    auto loader = residency_->loader(place);
    std::unique_ptr<PlaceShard> loaded;
    Timer timer;
    try {
      loaded = loader();
      VP_ASSERT(loaded != nullptr && loaded->place == place);
    } catch (...) {
      residency_->abort_load(place);
      throw;
    }
    VP_OBS_OBSERVE("store.reload_latency", timer.millis());
    return install_loaded(place, std::move(loaded));
  }
}

std::shared_ptr<const PlaceShard> MapStore::install_loaded(
    const std::string& place, std::unique_ptr<PlaceShard> loaded) const {
  auto* self = const_cast<MapStore*>(this);
  std::lock_guard lock(self->write_mutex_);
  std::shared_ptr<const PlaceShard> published(std::move(loaded));
  const std::size_t bytes = shard_resident_bytes(*published);
  auto next = std::make_shared<ShardMap>(*state());
  (*next)[place] = published;
  const auto victims = self->residency_->finish_load(place, bytes);
  for (const auto& victim : victims) next->erase(victim);
  [[maybe_unused]] const std::size_t shards = next->size();
  self->set_state(std::move(next));
  // Wake single-flight waiters only now that the map store is visible:
  // they re-read the map on wakeup and must find the shard there.
  self->residency_->notify_waiters();
  self->swap_count_.fetch_add(1, std::memory_order_relaxed);
  VP_OBS_COUNT("store.swaps", 1);
  if (!victims.empty()) {
    VP_OBS_COUNT("store.lru.evictions",
                 static_cast<std::uint64_t>(victims.size()));
  }
  VP_OBS_GAUGE_SET("store.shards", static_cast<double>(shards));
  VP_OBS_GAUGE_SET(
      "store.resident_bytes",
      static_cast<double>(residency_->stats().resident_bytes));
  return published;
}

void MapStore::set_resident_budget(std::size_t bytes) {
  std::lock_guard lock(write_mutex_);
  const auto victims = residency_->set_budget(bytes);
  if (!victims.empty()) {
    auto next = std::make_shared<ShardMap>(*state());
    for (const auto& victim : victims) next->erase(victim);
    set_state(std::move(next));
    swap_count_.fetch_add(1, std::memory_order_relaxed);
    VP_OBS_COUNT("store.lru.evictions",
                 static_cast<std::uint64_t>(victims.size()));
  }
  VP_OBS_GAUGE_SET(
      "store.resident_bytes",
      static_cast<double>(residency_->stats().resident_bytes));
}

void MapStore::prepare_write(const std::string& place) {
  if (!residency_->registered(place)) return;
  for (;;) {
    const auto shard = fault_in(place);
    if (shard == nullptr) return;  // registration dropped concurrently
    residency_->pin(place);
    if (residency_->state(place) != ShardResidencyManager::State::kPinned) {
      continue;  // evicted between fault and pin; refault and retry
    }
    // Seed the builder from the resident snapshot so the write extends
    // the loaded state instead of an empty shard. Reloads of the same
    // file are bit-identical, so it does not matter which load's snapshot
    // seeds it.
    std::lock_guard lock(write_mutex_);
    if (builders_.find(place) == builders_.end()) {
      builders_.emplace(place,
                        Builder{std::make_unique<PlaceShard>(*shard), false});
    }
    return;
  }
}

void MapStore::flush() const {
  if (!any_dirty_.load(std::memory_order_acquire)) return;
  auto* self = const_cast<MapStore*>(this);
  std::lock_guard lock(self->write_mutex_);
  if (!self->any_dirty_.load(std::memory_order_acquire)) return;
  for (auto& [place, b] : self->builders_) {
    if (b.dirty) self->install_locked(place, self->snapshot_locked(b));
  }
  self->any_dirty_.store(false, std::memory_order_release);
}

std::shared_ptr<const PlaceShard> MapStore::snapshot(
    const std::string& place) const {
  flush();
  const auto map = state();
  const auto it = map->find(place);
  return it == map->end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<const PlaceShard>> MapStore::snapshots() const {
  flush();
  // Capture each place's shard individually through fault_in: the
  // returned shared_ptrs pin shards that a tight budget evicts while
  // later places load, so the caller still gets the complete set.
  std::map<std::string, std::shared_ptr<const PlaceShard>, std::less<>> all;
  for (const auto& [place, shard] : *state()) all.emplace(place, shard);
  for (const auto& st : residency_->statuses()) {
    if (all.find(st.place) != all.end()) continue;
    if (auto shard = fault_in(st.place)) all.emplace(st.place, shard);
  }
  std::vector<std::shared_ptr<const PlaceShard>> out;
  out.reserve(all.size());
  for (auto& [_, shard] : all) out.push_back(std::move(shard));
  return out;
}

LocationResponse MapStore::localize(const FingerprintQuery& query,
                                    Rng& rng) const {
  flush();
  const auto map = state();

  LocationResponse miss;
  miss.frame_id = query.frame_id;
  miss.place = query.place;

  ThreadPool* pool = default_config_.pool;
  // Compact queries are always targeted: their codes only mean something
  // against one place's codebook, so a place-less compact query routes to
  // the default place instead of fanning out across shards whose codebooks
  // it was not encoded with. (Clients keep fan-out queries raw.)
  if (!query.place.empty() || query.compact()) {
    // fault_in loads a registered-but-cold shard on first query (single-
    // flight) and refreshes LRU recency on hits; unmanaged places are a
    // plain map lookup.
    const auto shard =
        fault_in(query.place.empty() ? default_place_ : query.place);
    if (shard == nullptr) {
      // Unknown place is an expected client condition (wrong venue id,
      // venue not yet wardriven) — a structured no-fix, never a throw.
      VP_OBS_COUNT("store.unknown_place", 1);
      return miss;
    }
    return shard->localize(query, rng, pool,
                           default_config_.compact_symmetric);
  }

  if (map->empty()) return miss;
  if (map->size() == 1) {
    return map->begin()->second->localize(query, rng, pool);
  }

  // Fan out across every shard and keep the best answer. Per-shard rng
  // seeds are drawn sequentially up front so results are deterministic
  // for a given caller rng regardless of pool size.
  VP_OBS_COUNT("store.fanout_queries", 1);
  std::vector<std::shared_ptr<const PlaceShard>> shards;
  shards.reserve(map->size());
  for (const auto& [_, shard] : *map) shards.push_back(shard);
  std::vector<std::uint64_t> seeds(shards.size());
  for (auto& s : seeds) s = rng.next_u64();

  // Inside the fan-out each shard's own batch/solve parallelism collapses
  // to inline execution (nested parallel_for runs on the calling worker),
  // so per-shard results stay pool-size independent.
  std::vector<LocationResponse> results(shards.size());
  const auto run = [&](std::size_t i) {
    Rng shard_rng(seeds[i]);
    results[i] = shards[i]->localize(query, shard_rng, pool);
  };
  if (pool != nullptr) {
    pool->parallel_for(shards.size(), run);
  } else {
    for (std::size_t i = 0; i < shards.size(); ++i) run(i);
  }

  // Best-scoring place: a fix beats no fix; more matched keypoints beat
  // fewer; equal support ties break toward the smaller solver residual.
  const LocationResponse* best = &results[0];
  for (const auto& r : results) {
    if (r.found != best->found) {
      if (r.found) best = &r;
      continue;
    }
    if (!r.found) continue;
    if (r.matched_keypoints != best->matched_keypoints) {
      if (r.matched_keypoints > best->matched_keypoints) best = &r;
      continue;
    }
    if (r.residual < best->residual) best = &r;
  }
  return *best;
}

std::shared_ptr<const Bytes> MapStore::oracle_reply(
    const std::string& place) const {
  const std::string& id = place.empty() ? default_place_ : place;
  // A client download is a first-class read: fault the shard in if cold.
  auto shard = fault_in(id);
  VP_REQUIRE(shard != nullptr, "oracle snapshot of unknown place: " + id);
  // A first download of a restored or faulted-in shard packs here. On a
  // serve worker of the store pool (the TCP path) that runs inline.
  const Bytes& bytes = shard->oracle_reply(default_config_.pool);
  return {std::move(shard), &bytes};
}

OracleDownload MapStore::oracle_snapshot(const std::string& place) const {
  return OracleDownload::decode(*oracle_reply(place));
}

void MapStore::set_pool(ThreadPool* pool) {
  std::lock_guard lock(write_mutex_);
  default_config_.pool = pool;
}

void MapStore::set_compact_symmetric(bool on) {
  std::lock_guard lock(write_mutex_);
  default_config_.compact_symmetric = on;
}

std::size_t MapStore::place_count() const { return places().size(); }

std::vector<std::string> MapStore::places() const {
  flush();
  const auto map = state();
  std::vector<std::string> out;
  out.reserve(map->size());
  for (const auto& [place, _] : *map) out.push_back(place);
  // Registered-but-cold places are part of the catalog too (resident ones
  // are already in the map).
  for (const auto& st : residency_->statuses()) {
    if (map->find(st.place) == map->end()) out.push_back(st.place);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint32_t MapStore::epoch(const std::string& place) const {
  const std::string& id = place.empty() ? default_place_ : place;
  const auto shard = snapshot(id);
  if (shard) return shard->epoch;
  // Cold registered shards answer from the manifest — metadata reads must
  // not page a shard in.
  return residency_->manifest_epoch(id);
}

std::string_view MapStore::storage_mode(const std::string& place) const {
  const std::string& id = place.empty() ? default_place_ : place;
  const auto shard = snapshot(id);
  if (shard) return shard->index.pq_ready() ? "pq" : "exact";
  // Manifest answer for cold shards, pinned to static storage so the
  // string_view cannot dangle.
  const std::string mode = residency_->manifest_storage(id);
  if (mode == "pq") return "pq";
  if (mode == "exact") return "exact";
  return {};
}

PlaceShard& MapStore::builder_shard(const std::string& place) {
  prepare_write(place);
  std::lock_guard lock(write_mutex_);
  return *builder_locked(place, nullptr).shard;
}

const PlaceShard& MapStore::builder_shard(const std::string& place) const {
  auto* self = const_cast<MapStore*>(this);
  self->prepare_write(place);
  std::lock_guard lock(self->write_mutex_);
  return *self->builder_locked(place, nullptr).shard;
}

bool MapStore::has_builder(const std::string& place) const {
  auto* self = const_cast<MapStore*>(this);
  std::lock_guard lock(self->write_mutex_);
  return self->builders_.find(place) != self->builders_.end();
}

}  // namespace vp
