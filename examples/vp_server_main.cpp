// vp_server: the VisualPrint cloud service as a real process.
//
// On first run it wardrives a synthetic gallery, ingests the mappings, and
// saves the database; later runs load the database file directly. Then it
// serves the wire protocol over TCP (loopback), handling connections
// concurrently on a borrowed ThreadPool with per-socket deadlines:
//   request 'O'            -> OracleDownload (zlib'd uniqueness tables)
//   request 'Q' + VPQ! ... -> LocationResponse
//   request 'S' + VPS! ... -> StatsResponse (metrics scrape, JSON/Prometheus)
// Handler failures answer with a structured ErrorResponse (VPE!) instead of
// dropping the connection; the exit summary reports every failure class.
//
// `--db` is repeatable: the first file is the primary database (built from
// a demo wardrive when missing); every further file is merged in, shard by
// shard, so one process can serve many places. Queries naming a place
// route to its shard; unplaced queries fan out across all shards on the
// worker pool.
//
// `--pq` builds the demo database with product-quantized shard storage:
// descriptors are coarse-ranked through 16-byte ADC codes and only the
// top rerank_depth survivors touch the raw 128-byte descriptors. Loaded
// databases keep whatever storage mode they were saved with.
//
// `--slow-log` prints the worst-N slow-query log (per-stage milliseconds,
// trace ids, candidate counts) at exit; clients can fetch the same data
// live as StatsRequest format 2.
//
// `--max-inflight` bounds concurrently executing queries (DESIGN.md §13):
// excess 'Q' requests are shed with a structured kOverloaded reply that
// clients retry with backoff, instead of queueing until their deadline
// blows out. Defaults to 4x the worker count; 0 disables the gate. Oracle
// downloads and stats scrapes are never shed.
//
// `--lazy` registers every shard of every --db file cold (DESIGN.md §14):
// the process mmaps the files and serves place metadata immediately; the
// first query naming a place faults its shard in. `--resident-budget N`
// (bytes, k/m/g suffixes accepted; implies --lazy) caps resident shard
// bytes with LRU eviction, so a server carrying thousands of places runs
// in a bounded memory envelope.
//
// `--symmetric` serves compact (PQ-coded) queries through the
// symmetric-ADC coarse stage: the per-query lookup table is gathered from
// the codebook's precomputed centroid-distance matrix instead of being
// rebuilt from the reconstructed descriptor. Bit-identical answers —
// purely a serving-cost knob, meaningful only for PQ shards.
//
// Run:   ./vp_server [--port N] [--db FILE]... [--threads N] [--pq] [--once]
//                    [--slow-log] [--max-inflight N] [--lazy]
//                    [--resident-budget BYTES] [--symmetric]
// Pair:  ./vp_client [--place ID] (in another terminal)
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/server.hpp"
#include "net/tcp.hpp"
#include "obs/export.hpp"
#include "scene/environments.hpp"
#include "slam/map_merge.hpp"
#include "slam/mapping.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

vp::VisualPrintServer build_demo_database(const std::string& db_path,
                                          bool pq) {
  using namespace vp;
  std::printf("no database found; wardriving the demo gallery...\n");
  Rng rng(2016);
  GalleryConfig gallery;
  gallery.num_scenes = 8;
  gallery.hall_length = 24;
  const World world = build_gallery(gallery, rng);

  WardriveConfig wardrive_cfg;
  wardrive_cfg.intrinsics = {320, 240, 1.15192};
  wardrive_cfg.stop_spacing = 2.5;
  wardrive_cfg.views_per_stop = 3;
  auto snaps = wardrive(world, wardrive_cfg, rng);
  const auto merged = merge_snapshots(snaps, {});
  const auto mappings = extract_mappings(snaps, merged.corrected_poses);

  ServerConfig cfg;
  cfg.oracle.capacity =
      std::max<std::size_t>(50'000, mappings.size() * 2);
  world.bounds(cfg.localize.search_lo, cfg.localize.search_hi);
  cfg.place_label = "Demo Gallery (vp_server)";
  cfg.index.pq.enabled = pq;
  VisualPrintServer server(cfg);
  server.ingest_wardrive(mappings);
  server.save(db_path);
  std::printf("database built: %zu keypoints, saved to %s\n",
              server.keypoint_count(), db_path.c_str());
  return server;
}

/// "1500000", "512k", "64m", "2g" -> bytes. Returns 0 on parse failure.
std::size_t parse_byte_size(const char* arg) {
  char* end = nullptr;
  const double value = std::strtod(arg, &end);
  if (end == arg || value < 0) return 0;
  double scale = 1;
  switch (*end) {
    case 'k': case 'K': scale = 1024.0; break;
    case 'm': case 'M': scale = 1024.0 * 1024.0; break;
    case 'g': case 'G': scale = 1024.0 * 1024.0 * 1024.0; break;
    default: break;
  }
  return static_cast<std::size_t>(value * scale);
}

const char* residency_state_name(vp::ShardResidencyManager::State s) {
  using State = vp::ShardResidencyManager::State;
  switch (s) {
    case State::kCold: return "cold";
    case State::kLoading: return "loading";
    case State::kResident: return "resident";
    case State::kPinned: return "pinned";
  }
  return "?";
}

/// Per-place residency table: resident shards with their measured bytes,
/// cold shards with their manifest estimate. Printed at startup (what the
/// process actually holds vs. merely catalogs) and at exit.
void print_residency(const vp::VisualPrintServer& server) {
  using namespace vp;
  for (const auto& st : server.store().residency().statuses()) {
    std::printf("place '%s': %s, %s %s, epoch %u, storage %s, loads %llu\n",
                st.place.c_str(), residency_state_name(st.state),
                Table::bytes_human(static_cast<double>(st.bytes)).c_str(),
                st.state == ShardResidencyManager::State::kCold ? "on disk"
                                                                : "resident",
                st.epoch, st.storage.c_str(),
                static_cast<unsigned long long>(st.loads));
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vp;
  std::uint16_t port = 47001;
  std::vector<std::string> db_paths;
  std::size_t threads = 4;
  bool once = false;
  bool pq = false;
  bool slow_log = false;
  std::size_t max_inflight = 0;
  bool max_inflight_set = false;
  bool lazy = false;
  bool symmetric = false;
  std::size_t resident_budget = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--db") == 0 && i + 1 < argc) {
      db_paths.emplace_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--pq") == 0) {
      pq = true;  // demo database stores PQ codes + ADC coarse ranking
    } else if (std::strcmp(argv[i], "--once") == 0) {
      once = true;  // serve a single connection then exit (used in tests)
    } else if (std::strcmp(argv[i], "--slow-log") == 0) {
      slow_log = true;  // print the worst-N slow-query log at exit
    } else if (std::strcmp(argv[i], "--max-inflight") == 0 && i + 1 < argc) {
      max_inflight = static_cast<std::size_t>(std::atoll(argv[++i]));
      max_inflight_set = true;
    } else if (std::strcmp(argv[i], "--symmetric") == 0) {
      symmetric = true;  // compact queries use the symmetric-ADC fast path
    } else if (std::strcmp(argv[i], "--lazy") == 0) {
      lazy = true;  // register shards cold; first query faults them in
    } else if (std::strcmp(argv[i], "--resident-budget") == 0 &&
               i + 1 < argc) {
      resident_budget = parse_byte_size(argv[++i]);
      lazy = true;  // a budget only means something for managed shards
    }
  }
  if (db_paths.empty()) db_paths.push_back("vp_demo.db");

  DbLoadOptions load_opts;
  load_opts.lazy = lazy;
  load_opts.resident_budget = resident_budget;
  VisualPrintServer server =
      std::filesystem::exists(db_paths[0])
          ? VisualPrintServer::load(db_paths[0], load_opts)
          : build_demo_database(db_paths[0], pq);
  for (std::size_t i = 1; i < db_paths.size(); ++i) {
    if (!std::filesystem::exists(db_paths[i])) {
      std::printf("warning: --db %s not found, skipping\n",
                  db_paths[i].c_str());
      continue;
    }
    server.load_shards(db_paths[i], load_opts);
    std::printf("merged shards from %s\n", db_paths[i].c_str());
  }
  if (lazy) {
    // Cold shards must not be faulted in just to print a banner: report
    // from the residency manifests instead of materialized snapshots.
    print_residency(server);
    if (resident_budget != 0) {
      std::printf("resident budget: %s (LRU eviction)\n",
                  Table::bytes_human(static_cast<double>(resident_budget))
                      .c_str());
    }
  } else {
    for (const auto& shard : server.store().snapshots()) {
      std::printf(
          "place '%s' (%s): %zu keypoints, epoch %u, oracle %s, storage %s\n",
          shard->place.c_str(), shard->config.place_label.c_str(),
          shard->stored.size(), shard->epoch,
          Table::bytes_human(static_cast<double>(shard->oracle.byte_size())).c_str(),
          shard->index.pq_ready() ? "pq" : "exact");
    }
  }

  TcpListener listener(port);
  ThreadPool pool(threads);
  // Unplaced queries fan out across shards on the same borrowed pool that
  // serves connections.
  server.store().set_pool(&pool);
  // Like the pool, symmetric-ADC serving is runtime plumbing — never
  // persisted, so a loaded database re-opts in per process.
  if (symmetric) server.store().set_compact_symmetric(true);
  // Default cap: enough concurrency to keep every worker busy, small
  // enough that a population spike sheds instead of queueing (§13).
  server.set_max_inflight(max_inflight_set ? max_inflight
                                           : 4 * pool.thread_count());
  std::printf(
      "listening on 127.0.0.1:%u (%zu workers, %zu places, "
      "max inflight queries %zu) ...\n",
      listener.port(), pool.thread_count(), server.store().place_count(),
      server.admission().max_inflight());

  ServeOptions options;
  options.pool = &pool;
  options.max_connections = 2 * pool.thread_count();
  options.io_timeout_ms = 15'000;
  ServeStats stats;
  std::atomic<std::size_t> served{0};
  listener.serve(
      [&](std::span<const std::uint8_t> request) -> Bytes {
        Bytes response = server.handle_request(request, /*solver_seed=*/7);
        ++served;
        return response;
      },
      [&] { return !(once && served.load() > 0); }, options, &stats);

  std::printf(
      "served %zu requests over %llu connections "
      "(%llu handler errors, %llu decode errors, %llu timeouts, "
      "%llu io errors)\n",
      served.load(),
      static_cast<unsigned long long>(stats.accepted.load()),
      static_cast<unsigned long long>(stats.handler_errors.load()),
      static_cast<unsigned long long>(stats.decode_errors.load()),
      static_cast<unsigned long long>(stats.timeouts.load()),
      static_cast<unsigned long long>(stats.io_errors.load()));
  std::printf(
      "admission: %llu queries admitted, %llu shed (peak %zu inflight, "
      "cap %zu)\n",
      static_cast<unsigned long long>(server.admission().admitted()),
      static_cast<unsigned long long>(server.admission().shed()),
      server.admission().peak_inflight(),
      server.admission().max_inflight());
  {
    const auto rs = server.store().residency().stats();
    if (rs.registered > 0) {
      std::printf(
          "residency: %zu/%zu places resident (%s of %s budget), "
          "%llu hits, %llu misses, %llu loads, %llu evictions\n",
          rs.resident, rs.registered,
          Table::bytes_human(static_cast<double>(rs.resident_bytes)).c_str(),
          rs.budget_bytes == 0
              ? "unlimited"
              : Table::bytes_human(static_cast<double>(rs.budget_bytes))
                    .c_str(),
          static_cast<unsigned long long>(rs.hits),
          static_cast<unsigned long long>(rs.misses),
          static_cast<unsigned long long>(rs.loads),
          static_cast<unsigned long long>(rs.evictions));
      print_residency(server);
    }
  }
  if (slow_log) {
    std::printf("\nslow-query log (worst %zu of %llu):\n%s",
                server.slow_log().capacity(),
                static_cast<unsigned long long>(server.slow_log().seen()),
                server.slow_log().to_json_lines().c_str());
  }
  return 0;
}
