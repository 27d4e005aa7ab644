// Tiered shard residency: which places are worth keeping in RAM.
//
// A deployment carrying thousands of venues cannot hold every PlaceShard
// resident (ROADMAP "millions of users, thousands of places"). The
// ShardResidencyManager is the bookkeeping half of the answer: shards are
// *registered* from a database manifest (place, epoch, byte estimate, a
// loader closure over the mmap'd file) without being loaded; the first
// query to a cold place faults it in; a configurable resident-byte budget
// evicts the least-recently-used shards once exceeded.
//
// The manager owns policy and accounting only — the MapStore owns the
// actual snapshot map and performs install/remove under its writer mutex.
// Lock order is always MapStore::write_mutex_ -> manager mutex (the
// manager never calls back into the store), and the single-flight wait
// never holds the store's mutex, so a loader blocked on I/O cannot stall
// resident queries.
//
// Single-flight: concurrent faults on the same cold place elect exactly
// one loader via the Cold->Loading transition; everyone else waits on the
// condition variable and re-reads the snapshot map. Eviction composes
// with the RCU snapshot discipline for free: removing a shard from the
// map only drops one shared_ptr reference, so in-flight queries holding
// the old snapshot keep the shard — and the mmap keepalive behind its
// borrowed buffers — alive until they finish.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace vp {

struct PlaceShard;

class ShardResidencyManager {
 public:
  /// Parses one registered shard out of its database file. Captures the
  /// MappedFile shared_ptr and the parsed record, so it stays valid
  /// independent of the store. Must be thread-compatible: at most one
  /// invocation per place at a time (the single-flight guarantee),
  /// arbitrary places concurrently.
  using Loader = std::function<std::unique_ptr<PlaceShard>()>;

  enum class State : std::uint8_t { kCold, kLoading, kResident, kPinned };

  /// What a fault attempt should do next.
  enum class Fault : std::uint8_t {
    kNotManaged,  ///< place was never registered; caller falls through
    kResident,    ///< already loaded (or just finished); re-read the map
    kMustLoad,    ///< caller won the single-flight race: run the loader
  };

  struct Manifest {
    std::string place;
    std::uint32_t epoch = 0;
    /// Pre-load resident-cost estimate (segment bytes + oracle bytes from
    /// the file header); replaced by the measured cost after first load.
    std::size_t bytes = 0;
    std::string storage = "exact";  ///< "pq" or "exact", from the header
    Loader loader;
  };

  struct PlaceStatus {
    std::string place;
    State state = State::kCold;
    std::size_t bytes = 0;
    std::uint32_t epoch = 0;
    std::string storage;
    std::uint64_t loads = 0;  ///< times faulted in (1 = never evicted)
  };

  struct Stats {
    std::uint64_t hits = 0;        ///< reads served by a resident shard
    std::uint64_t misses = 0;      ///< reads that found the place cold
    std::uint64_t evictions = 0;
    std::uint64_t loads = 0;       ///< loader executions (<= misses)
    std::size_t resident_bytes = 0;
    std::size_t budget_bytes = 0;  ///< 0 = unlimited
    std::size_t registered = 0;    ///< managed places
    std::size_t resident = 0;      ///< managed places currently loaded
  };

  /// Resident-byte budget; 0 disables eviction. Takes effect on the next
  /// finish_load / set_budget call (set_budget itself returns the places
  /// to evict immediately, like finish_load).
  std::vector<std::string> set_budget(std::size_t bytes);
  std::size_t budget() const;

  /// Register (or replace) a cold entry. Replacing drops any resident
  /// accounting for the old entry; the caller removes the stale snapshot.
  void register_cold(Manifest manifest);
  /// Drop an entry entirely (eager restore replaced the managed shard).
  void forget(const std::string& place);
  bool registered(const std::string& place) const;

  /// One step of the fault protocol. kMustLoad transfers loader duty to
  /// the caller, which MUST follow with finish_load or abort_load.
  /// Blocks (without any store lock) while another thread loads.
  Fault begin_fault(const std::string& place);
  /// Loader copy for the place (valid only between begin_fault ->
  /// kMustLoad and the matching finish/abort).
  Loader loader(const std::string& place) const;
  /// The shard is installed in the snapshot map; record its measured
  /// bytes and return the LRU places the caller must now evict to get
  /// back under budget (never the place itself, never pinned/loading
  /// entries). Call with the store's writer mutex held. Does NOT wake
  /// single-flight waiters — the caller calls notify_waiters() after the
  /// updated snapshot map is visible, so woken waiters find the shard
  /// instead of spinning on the kResident-but-unpublished gap.
  std::vector<std::string> finish_load(const std::string& place,
                                       std::size_t bytes);
  /// Wake single-flight waiters (after publishing a finished load).
  void notify_waiters() noexcept;
  /// The loader threw; the place returns to cold and waiters wake.
  void abort_load(const std::string& place) noexcept;

  /// A read touched a resident managed place: refresh recency, count hit.
  void touch(const std::string& place);
  /// A write diverged the place from its backing file: never evict it
  /// again (its builder is now the source of truth).
  void pin(const std::string& place);

  /// Manifest epoch/storage for cold metadata reads (no fault).
  std::uint32_t manifest_epoch(const std::string& place) const;
  std::string manifest_storage(const std::string& place) const;
  std::size_t manifest_bytes(const std::string& place) const;
  State state(const std::string& place) const;

  Stats stats() const;
  std::vector<PlaceStatus> statuses() const;

 private:
  struct Entry {
    Manifest manifest;
    State state = State::kCold;
    std::size_t bytes = 0;       ///< counted toward resident_bytes_
    std::uint64_t last_touch = 0;
    std::uint64_t loads = 0;
  };

  /// Evict LRU resident entries until under budget. Requires mu_ held.
  std::vector<std::string> plan_evictions_locked(const std::string& keep);
  void make_cold_locked(Entry& e);

  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< single-flight load completion
  std::map<std::string, Entry, std::less<>> entries_;
  std::size_t budget_ = 0;
  std::size_t resident_bytes_ = 0;
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t loads_ = 0;
};

}  // namespace vp
