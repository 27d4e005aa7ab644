// perfbench: the VisualPrint benchmark of record.
//
// One seeded workload runs through the path a deployed phone uses:
//   VisualPrintClient -> RemoteLocalizer -> RetryingClient -> loopback TCP
//   -> TcpListener::serve -> VisualPrintServer::handle_request
// with the server wired like examples/vp_server_main.cpp: one ThreadPool of
// hardware_concurrency workers shared by serve() and the store, at most
// 2x pool connections, admission cap 4x pool. A single query's solve
// therefore runs inline on one serve worker.
//
// One departure from the server defaults: DeConfig::time_budget_sec is set
// out of reach, so the pose solve stops on its generation/stall rule and
// every answer depends only on the seed, never on the wall clock.
//
// Workloads (the office is fixed; the wardrive pass, query views, client
// picks and churn deltas derive from --seed):
//   walk   one phone, closed loop, rendered 920x540 frames through the full
//          client frame path, raw uplink.
//   fleet  hardware_concurrency phones, closed loop, replaying queries
//          extracted before the timed phase; half raw, half compact uplink.
//   churn  hardware_concurrency/2 compact phones plus a writer that
//          republishes the place (ingest_wardrive of a second wardrive
//          pass) after every round of served fixes. Rounds are lockstep, so
//          which epoch answers each query is fixed by the seed.
//
// Accuracy and byte metrics come from a fixed prefix of every phone's query
// list (its first pass), so they are identical run to run for one seed;
// timings come from every fix of the timed phase. --trace 1 additionally
// records one span per public call made here (client, transport, server
// handler, publish, install) and, after the timed phase, replays served
// queries stage by stage (decode -> query_batch -> largest_cluster ->
// localize) against the shard snapshot that answered them.
//
// Usage:
//   perfbench --workload walk|fleet|churn --seed N --seconds S --trace 0|1
//             [--out DIR]
// The last line on stdout is one JSON object with the keys correct,
// attempted, failed and metrics. The exit code is nonzero when any output
// check fails.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/client.hpp"
#include "core/remote.hpp"
#include "core/server.hpp"
#include "features/distance.hpp"
#include "features/pq.hpp"
#include "features/sift.hpp"
#include "geometry/clustering.hpp"
#include "geometry/localize.hpp"
#include "imaging/filters.hpp"
#include "net/retry.hpp"
#include "net/tcp.hpp"
#include "net/wire.hpp"
#include "scene/environments.hpp"
#include "scene/render.hpp"
#include "slam/map_merge.hpp"
#include "slam/mapping.hpp"
#include "slam/wardrive.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#ifndef VP_BENCH_BUILD_TYPE
#define VP_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace vp;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

const Clock::time_point kProcessStart = Clock::now();

/// Seconds since the program started, for the progress lines on stderr.
double uptime_s() { return ms_between(kProcessStart, Clock::now()) / 1e3; }

// --- fixed benchmark parameters ---------------------------------------------

constexpr std::uint64_t kSolverSeed = 7;  // as examples/vp_server_main.cpp
constexpr const char* kPlace = "office";
// The office is the same building on every seed, as the paper's test sites
// are; the seed drives the wardrive pass, the query views and client picks.
// A seed-dependent office moved per-seed timing medians by ~25%.
constexpr std::uint64_t kWorldSeed = 2016;
constexpr CameraIntrinsics kQueryIntrinsics{920, 540, 1.15192};  // Fig. 16
constexpr std::size_t kSetupRepeats = 3;        // setup_s is the median of these
constexpr std::size_t kWalkFrames = 24;        // walk accuracy prefix
constexpr std::size_t kQueriesPerPhone = 16;   // fleet/churn accuracy prefix
constexpr std::size_t kChurnRoundFixes = 4;    // per phone between publishes
constexpr std::size_t kChurnDeltas = 12;       // second-pass publish chunks
constexpr std::size_t kReplays = 6;            // traced server-stage replays
// Garbage detector, not an accuracy target: some seeded wardrives map the
// office badly enough to put the median fix ~6 m off (accuracy is reported,
// and pinned per seed, by the determinism checks instead).
constexpr double kMaxMedianErrorM = 8.0;
constexpr double kMinFixRate = 0.5;
constexpr double kConsistencyTolerance = 0.10;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench";
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Run fn(i) for i in [0, n), each on its own thread; rethrows the first
/// failure once every thread has joined.
void run_parallel(std::size_t n, const std::function<void(std::size_t)>& fn) {
  std::vector<std::exception_ptr> errors(n);
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

// --- spans ------------------------------------------------------------------

/// In-memory span store for the traced run: one record per public call the
/// benchmark makes (name, start, end, parent, per-query id). Written out as
/// a Chrome trace when the run ends. Inactive stores record nothing.
class SpanStore {
 public:
  explicit SpanStore(bool on) : on_(on) {}

  bool on() const noexcept { return on_; }

  int add(std::string name, Clock::time_point start, Clock::time_point end,
          int parent, std::uint64_t query) {
    if (!on_) return -1;
    std::lock_guard lock(mutex_);
    spans_.push_back({std::move(name), ms_between(epoch_, start),
                      ms_between(epoch_, end), parent, query});
    return static_cast<int>(spans_.size() - 1);
  }

  std::vector<double> durations(const std::string& name) const {
    std::lock_guard lock(mutex_);
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.end_ms - s.start_ms);
    }
    return out;
  }

  void write_chrome(const std::string& path) const {
    std::lock_guard lock(mutex_);
    std::ofstream out(path, std::ios::trunc);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[320];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                    "\"parent\":%d}}",
                    i == 0 ? "" : ",", s.name.c_str(),
                    static_cast<unsigned long long>(s.query),
                    s.start_ms * 1e3, (s.end_ms - s.start_ms) * 1e3, i,
                    s.parent);
      out << buf;
    }
    out << "]}\n";
  }

 private:
  struct Span {
    std::string name;
    double start_ms = 0;
    double end_ms = 0;
    int parent = -1;
    std::uint64_t query = 0;
  };
  const bool on_;
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// --- server side --------------------------------------------------------------

/// One handled request as seen by the serve() handler wrapper.
struct HandledRequest {
  std::uint8_t tag = 0;
  Clock::time_point start, end;
  bool error_reply = false;
  Bytes request;  ///< 'Q' requests answered with a LocationResponse (traced)
  double record_ms = 0;  ///< time this wrapper spent recording (overhead)
};

/// The serve() handler: VisualPrintServer::handle_request, timed per request
/// when tracing. 'Q' records are keyed by frame id so each phone can claim
/// the server side of its own fixes; 'O' records are kept in order.
class ServerTap {
 public:
  ServerTap(const VisualPrintServer& server, bool trace)
      : server_(server), trace_(trace) {}

  Bytes handle(std::span<const std::uint8_t> request) {
    if (!trace_ || !recording_.load(std::memory_order_acquire)) {
      return server_.handle_request(request, kSolverSeed);
    }
    HandledRequest rec;
    rec.tag = request.empty() ? 0 : request[0];
    rec.start = Clock::now();
    Bytes reply = server_.handle_request(request, kSolverSeed);
    rec.end = Clock::now();
    rec.error_reply = is_error_frame(reply);
    if (rec.tag == kQueryRequest) {
      const std::uint32_t frame_id =
          FingerprintQuery::decode(request.subspan(1)).frame_id;
      if (!rec.error_reply) rec.request.assign(request.begin(), request.end());
      rec.record_ms = ms_between(rec.end, Clock::now());
      std::lock_guard lock(mutex_);
      queries_[frame_id].push_back(std::move(rec));
    } else {
      std::lock_guard lock(mutex_);
      others_.push_back(std::move(rec));
    }
    return reply;
  }

  void set_recording(bool on) { recording_.store(on, std::memory_order_release); }

  /// Server records of every 'Q' request carrying `frame_id`, in arrival
  /// order; removes them so a later pass can reuse the id.
  std::vector<HandledRequest> take(std::uint32_t frame_id) {
    std::lock_guard lock(mutex_);
    const auto it = queries_.find(frame_id);
    if (it == queries_.end()) return {};
    std::vector<HandledRequest> out = std::move(it->second);
    queries_.erase(it);
    return out;
  }

  std::vector<HandledRequest> others() const {
    std::lock_guard lock(mutex_);
    return others_;
  }

 private:
  const VisualPrintServer& server_;
  const bool trace_;
  std::atomic<bool> recording_{false};
  mutable std::mutex mutex_;
  std::map<std::uint32_t, std::vector<HandledRequest>> queries_;
  std::vector<HandledRequest> others_;
};

// --- client side --------------------------------------------------------------

/// One transport call made by a phone.
struct Exchange {
  std::uint8_t tag = 0;
  Clock::time_point start, end;
};

/// A phone: RetryingClient (one TCP connection) under a RemoteLocalizer,
/// with the VisualPrintClient that holds the downloaded oracle. Counts the
/// framed bytes of every exchange and, when tracing, its timing.
class Phone {
 public:
  Phone(std::uint16_t port, std::uint64_t seed, bool compact, bool trace)
      : retry_("127.0.0.1", port, retry_policy(), seed),
        remote_([this](std::span<const std::uint8_t> req) {
          return exchange(req);
        }),
        client_(client_config(), seed),
        trace_(trace) {
    if (compact) remote_.enable_compact_uplink();
    remote_.on_oracle_refresh([this](const OracleDownload& download) {
      const auto t0 = Clock::now();
      client_.install_oracle(download);
      const auto t1 = Clock::now();
      last_download_ = download;
      installs_.push_back({kOracleRequest, t0, t1});
    });
  }
  Phone(const Phone&) = delete;
  Phone& operator=(const Phone&) = delete;

  static ClientConfig client_config() {
    ClientConfig cfg;
    cfg.top_k = 200;  // paper and vp_client default
    return cfg;
  }

  static RetryPolicy retry_policy() {
    RetryPolicy policy;
    // Generous deadlines: a timeout here means a hang, and clean runs must
    // count none (the solve alone takes hundreds of milliseconds).
    policy.io_timeout_ms = 60'000;
    policy.connect_timeout_ms = 10'000;
    return policy;
  }

  /// Start a fresh client (same seed) on the last downloaded oracle, so a
  /// new pass over the frames stamps the same frame ids as the first.
  void reset_client(std::uint64_t seed) {
    client_ = VisualPrintClient(client_config(), seed);
    client_.install_oracle(last_download_);
  }

  RemoteLocalizer& remote() noexcept { return remote_; }
  VisualPrintClient& client() noexcept { return client_; }
  const RetryStats& retry_stats() const noexcept { return retry_.stats(); }
  const OracleDownload& last_download() const noexcept {
    return last_download_;
  }

  std::uint64_t bytes_up() const noexcept { return up_; }
  std::uint64_t bytes_down() const noexcept { return down_; }
  std::vector<Exchange> take_exchanges() { return std::move(exchanges_); }
  /// Time spent recording exchanges since the last call (tracing overhead).
  double take_record_ms() { return std::exchange(record_ms_, 0.0); }
  std::vector<Exchange> take_installs() { return std::move(installs_); }
  const Bytes& last_oracle_reply() const noexcept { return oracle_reply_; }

  void close() { retry_.close(); }

 private:
  Bytes exchange(std::span<const std::uint8_t> request) {
    constexpr std::uint64_t kFrame = 4;  // u32 length prefix per message
    up_ += request.size() + kFrame;
    const auto t0 = Clock::now();
    Bytes reply;
    try {
      reply = retry_.request(request);
    } catch (const RemoteError& e) {
      // The structured error frame was consumed by the transport; count
      // its wire size from the same code and message.
      std::string message = e.what();
      const std::string prefix = "remote: ";
      if (message.rfind(prefix, 0) == 0) message.erase(0, prefix.size());
      ErrorResponse err;
      err.code = e.code();
      err.message = message;
      down_ += err.encode().size() + kFrame;
      record(request, t0);
      throw;
    }
    down_ += reply.size() + kFrame;
    record(request, t0);
    if (trace_ && !request.empty() && request[0] == kOracleRequest) {
      const auto c0 = Clock::now();
      oracle_reply_ = reply;
      record_ms_ += ms_between(c0, Clock::now());
    }
    return reply;
  }

  void record(std::span<const std::uint8_t> request, Clock::time_point t0) {
    if (!trace_) return;
    const auto end = Clock::now();
    exchanges_.push_back(
        {request.empty() ? std::uint8_t{0} : request[0], t0, end});
    record_ms_ += ms_between(end, Clock::now());
  }

  RetryingClient retry_;
  RemoteLocalizer remote_;
  VisualPrintClient client_;
  const bool trace_;
  OracleDownload last_download_;
  std::uint64_t up_ = 0;
  std::uint64_t down_ = 0;
  std::vector<Exchange> exchanges_;
  std::vector<Exchange> installs_;
  Bytes oracle_reply_;
  double record_ms_ = 0;
};

// --- setup --------------------------------------------------------------------

RoomConfig office_config() {
  return RoomConfig{.width = 18, .depth = 10, .height = 3, .num_scenes = 6};
}

WardriveConfig wardrive_config() {
  WardriveConfig cfg;
  cfg.intrinsics = {320, 240, 1.15192};
  cfg.stop_spacing = 2.2;
  cfg.lane_spacing = 3.5;
  cfg.views_per_stop = 2;
  return cfg;
}

std::vector<KeypointMapping> wardrive_mappings(const World& world,
                                               const WardriveConfig& cfg,
                                               Rng& rng) {
  const auto snapshots = wardrive(world, cfg, rng);
  const auto merged = merge_snapshots(snapshots, {});
  return extract_mappings(snapshots, merged.corrected_poses);
}

ServerConfig server_config(const World& world, std::size_t mappings) {
  ServerConfig cfg;
  cfg.oracle.capacity = std::max<std::size_t>(50'000, mappings * 2);
  world.bounds(cfg.localize.search_lo, cfg.localize.search_hi);
  cfg.place_label = kPlace;  // the default place's shard id
  cfg.index.pq.enabled = true;  // raw and compact phones share the shard
  // Out of reach: the DE stops on its generation/stall rule, so a pose
  // never depends on CPU contention (see perfbench/README.md).
  cfg.localize.de.time_budget_sec = 1e9;
  return cfg;
}

/// Everything setup_s times: world, wardrive, ingest, serve start and the
/// first phone's oracle fetch over TCP.
struct Rig {
  World world;
  std::vector<KeypointMapping> mappings;
  std::unique_ptr<VisualPrintServer> server;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<TcpListener> listener;
  std::unique_ptr<ServerTap> tap;
  ServeStats serve_stats;
  std::atomic<bool> stop{false};
  std::thread serve_thread;
  std::unique_ptr<Phone> first_phone;

  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  /// Closes the phone first: serve() returns only after every connection
  /// it accepted has drained.
  ~Rig() {
    first_phone.reset();
    stop.store(true);
    if (serve_thread.joinable()) serve_thread.join();
  }

  std::uint16_t port() const { return listener->port(); }
};

std::unique_ptr<Rig> set_up(std::uint64_t seed, bool trace, bool compact_first) {
  auto rig = std::make_unique<Rig>();
  Rng rng(kWorldSeed);
  rig->world = build_office(office_config(), rng);
  Rng wardrive_rng(seed ^ 0x77a2d1e5ULL);
  rig->mappings =
      wardrive_mappings(rig->world, wardrive_config(), wardrive_rng);

  const ServerConfig cfg =
      server_config(rig->world, rig->mappings.size());
  rig->server = std::make_unique<VisualPrintServer>(cfg);
  rig->server->ingest_wardrive(rig->mappings);

  rig->pool = std::make_unique<ThreadPool>(0);
  rig->server->store().set_pool(rig->pool.get());
  rig->server->set_max_inflight(4 * rig->pool->thread_count());
  rig->listener = std::make_unique<TcpListener>(0);
  rig->tap = std::make_unique<ServerTap>(*rig->server, trace);
  Rig* r = rig.get();
  rig->serve_thread = std::thread([r] {
    ServeOptions options;
    options.pool = r->pool.get();
    options.max_connections = 2 * r->pool->thread_count();
    options.io_timeout_ms = 60'000;
    try {
      r->listener->serve(
          [r](std::span<const std::uint8_t> req) { return r->tap->handle(req); },
          [r] { return !r->stop.load(); }, options, &r->serve_stats);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve failed: %s\n", e.what());
    }
  });

  rig->first_phone =
      std::make_unique<Phone>(rig->port(), seed * 31 + 1, compact_first, trace);
  rig->first_phone->remote().fetch_oracle(kPlace);
  return rig;
}

// --- inputs -----------------------------------------------------------------

struct View {
  Camera camera;
  ImageF image;
};

/// Seeded views of the office's unique wall content (the paper's "photograph
/// a poster" query), rendered at the query resolution on `threads` threads.
std::vector<View> render_views(const World& world, std::size_t n,
                               std::uint64_t seed, std::size_t threads) {
  const auto quads = scene_quads(world);
  std::vector<View> views(n);
  run_parallel(threads, [&](std::size_t t) {
      for (std::size_t i = t; i < n; i += threads) {
        // A tour of the posters: every poster from a spread of angles and
        // distances, jittered per seed.
        Rng view_rng(seed * 1'000'003ULL + i);
        const std::size_t laps = (n + quads.size() - 1) / quads.size();
        const std::size_t lap = i / quads.size();
        const double angle = -25.0 + 50.0 * (static_cast<double>(lap) + 0.5) /
                                         static_cast<double>(laps);
        const double distance =
            2.3 + 0.9 * std::fmod(static_cast<double>(i) * 0.618034, 1.0);
        views[i].camera = view_of_quad(
            world, quads[i % quads.size()], kQueryIntrinsics,
            angle + view_rng.uniform(-4, 4),
            distance + view_rng.uniform(-0.15, 0.15), view_rng);
        views[i].image = render(world, views[i].camera, {}, view_rng).image;
      }
  });
  return views;
}

/// A query extracted by the client frame path before the timed phase.
struct Prepared {
  FingerprintQuery query;
  Vec3 truth;
  std::size_t keypoints = 0;
};

std::vector<Prepared> prepare_queries(const World& world, std::size_t n,
                                      std::uint64_t seed,
                                      const OracleDownload& oracle,
                                      std::size_t threads) {
  const std::vector<View> views = render_views(world, n, seed, threads);
  std::vector<Prepared> out(n);
  run_parallel(threads, [&](std::size_t t) {
      VisualPrintClient client(Phone::client_config(), seed + t);
      client.install_oracle(oracle);
      for (std::size_t i = t; i < n; i += threads) {
        FrameResult fr = client.process_frame(views[i].image, 0.0, 0.0);
        out[i].truth = views[i].camera.pose.translation;
        out[i].keypoints = fr.total_keypoints;
        if (fr.query) out[i].query = std::move(*fr.query);
      }
  });
  return out;
}

// --- fixes --------------------------------------------------------------------

/// One attempted fix.
struct Fix {
  std::size_t phone = 0;
  std::size_t item = 0;       ///< index into the phone's input list
  std::size_t pass = 0;       ///< 0 = the accuracy prefix
  std::uint32_t frame_id = 0;
  bool sent = false;          ///< a request went out (frame queued)
  bool failed = false;        ///< transport or remote error
  bool frame_id_mismatch = false;  ///< response answered another frame
  bool found = false;
  Vec3 position;
  std::uint32_t matched = 0;
  double error_m = 0;
  double fix_ms = 0;
  Clock::time_point end;      ///< when the fix completed
  double frame_ms = 0;        ///< walk: process_frame
  // Traced accounting (sums over the fix's exchanges).
  double record_ms = 0;       ///< tracing's own work inside the fix window
  double link_ms = 0;
  double handle_ms = 0;       ///< 'Q' handler time
  std::size_t keypoints = 0;
  std::size_t selected = 0;
  Bytes served_request;       ///< final 'Q' request, for the replay
  std::uint32_t served_epoch = 0;
};

/// Per-phone byte counters over the accuracy prefix.
struct PrefixBytes {
  std::uint64_t up = 0;
  std::uint64_t down = 0;
};

/// Claim the server side of a just-finished fix and, when tracing, record
/// its spans: fix -> [client.frame] -> net.request (one per exchange) ->
/// server.handle.query + net.link, and client.oracle_install.
void account_fix(Fix& fix, Phone& phone, ServerTap& tap, SpanStore& spans,
                 Clock::time_point t0, Clock::time_point frame_end,
                 Clock::time_point t1, std::uint64_t query_id) {
  const std::vector<Exchange> exchanges = phone.take_exchanges();
  std::vector<HandledRequest> handled = tap.take(fix.frame_id);
  const std::vector<Exchange> installs = phone.take_installs();
  fix.record_ms = phone.take_record_ms();
  if (!spans.on()) return;
  const int root = spans.add("fix", t0, t1, -1, query_id);
  if (frame_end != t0) spans.add("client.frame", t0, frame_end, root, query_id);
  std::size_t next_q = 0;
  for (const Exchange& ex : exchanges) {
    const bool query = ex.tag == kQueryRequest;
    const int req = spans.add(query ? "net.request.query" : "net.request.oracle",
                              ex.start, ex.end, root, query_id);
    if (!query || next_q >= handled.size()) continue;
    HandledRequest& h = handled[next_q++];
    const double handle = ms_between(h.start, h.end);
    fix.link_ms += std::max(0.0, ms_between(ex.start, ex.end) - handle);
    fix.handle_ms += handle;
    fix.record_ms += h.record_ms;
    spans.add("server.handle.query", h.start, h.end, req, query_id);
    spans.add("net.link", ex.start, ex.end - (h.end - h.start), req, query_id);
    if (!h.error_reply) fix.served_request = std::move(h.request);
  }
  for (const Exchange& inst : installs) {
    spans.add("client.oracle_install", inst.start, inst.end, root, query_id);
  }
}

/// Send one prepared query as its phone's app would: stamped with the epoch
/// of the oracle its client holds, so a republish surfaces as kStaleOracle.
Fix send_prepared(Phone& phone, const Prepared& prep, std::uint32_t frame_id,
                  ServerTap& tap, SpanStore& spans, std::uint64_t query_id) {
  Fix fix;
  fix.frame_id = frame_id;
  fix.keypoints = prep.keypoints;
  fix.selected = prep.query.features.size();
  FingerprintQuery q = prep.query;
  q.frame_id = frame_id;
  q.oracle_epoch = phone.client().oracle_epoch();
  fix.sent = true;
  const auto t0 = Clock::now();
  try {
    const LocationResponse resp = phone.remote().localize(std::move(q));
    fix.frame_id_mismatch = resp.frame_id != frame_id;
    fix.found = resp.found;
    fix.position = resp.position;
    fix.matched = resp.matched_keypoints;
  } catch (const std::exception& e) {
    fix.failed = true;
    std::fprintf(stderr, "fix %u failed: %s\n", frame_id, e.what());
  }
  const auto t1 = Clock::now();
  fix.fix_ms = ms_between(t0, t1);
  fix.end = t1;
  fix.served_epoch = phone.client().oracle_epoch();
  if (fix.found) fix.error_m = fix.position.distance(prep.truth);
  account_fix(fix, phone, tap, spans, t0, t0, t1, query_id);
  return fix;
}

// --- replay -----------------------------------------------------------------

struct Replay {
  std::size_t candidates = 0;
  std::size_t clustered = 0;
  bool found = false;
  bool hit_time_bound = false;
  double stages_ms = 0;  ///< decode + retrieve + cluster + solve
};

/// Re-run the server stages of a served 'Q' request through the public
/// functions, against the shard snapshot that answered it. Call it on a
/// worker of `pool`, as serve() runs handlers: the pooled stages then run
/// inline on that worker, exactly as they did when the query was served.
Replay replay_query(std::span<const std::uint8_t> request,
                    const PlaceShard& shard, ThreadPool* pool,
                    SpanStore& spans, std::uint64_t query_id,
                    const std::vector<Feature>* client_features) {
  Replay out;
  const auto r0 = Clock::now();
  const int root = spans.add("replay", r0, r0, -1, query_id);
  auto timed = [&](const char* name, auto&& fn) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    spans.add(name, t0, t1, root, query_id);
    return ms_between(t0, t1);
  };

  FingerprintQuery q;
  out.stages_ms += timed("net.query_decode", [&] {
    q = FingerprintQuery::decode(request.subspan(1));
  });
  timed("net.query_encode", [&] { (void)q.encode(); });
  if (q.compact() && client_features != nullptr) {
    timed("features.pq_encode", [&] {
      std::array<std::uint8_t, kPqCodeBytes> code{};
      for (const Feature& f : *client_features) {
        shard.index.pq_codebook().encode(f.descriptor.data(), code.data());
      }
    });
  }

  std::vector<Observation> candidates;
  std::vector<Vec3> points;
  out.stages_ms += timed("index.retrieve", [&] {
    std::vector<Descriptor> qd;
    qd.reserve(q.features.size());
    if (q.compact()) {
      const PqCodebook& book = shard.index.pq_codebook();
      for (std::size_t i = 0; i < q.features.size(); ++i) {
        Descriptor d;
        book.reconstruct(q.codes.data() + i * kPqCodeBytes, d.data());
        qd.push_back(d);
      }
    } else {
      for (const auto& f : q.features) qd.push_back(f.descriptor);
    }
    const std::size_t k = shard.config.neighbors_per_keypoint;
    const auto batch = q.compact() && shard.config.compact_symmetric
                           ? shard.index.query_batch_codes(qd, q.codes, k, pool)
                           : shard.index.query_batch(qd, k, pool);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      for (const Match& m : batch[i]) {
        if (m.distance2 > shard.config.max_match_distance2) continue;
        candidates.push_back({{q.features[i].keypoint.x,
                               q.features[i].keypoint.y},
                              shard.stored[m.id].position});
        points.push_back(shard.stored[m.id].position);
      }
    }
  });
  out.candidates = candidates.size();
  if (candidates.size() >= 3) {
    std::vector<std::size_t> keep;
    out.stages_ms += timed("geometry.cluster", [&] {
      keep = largest_cluster(points, shard.config.clustering);
    });
    out.clustered = keep.size();
    if (keep.size() >= 3) {
      std::vector<Observation> obs;
      for (std::size_t i : keep) obs.push_back(candidates[i]);
      CameraIntrinsics cam;
      cam.width = q.image_width;
      cam.height = q.image_height;
      cam.fov_h = static_cast<double>(q.fov_h);
      std::optional<LocalizeResult> result;
      out.stages_ms += timed("geometry.solve", [&] {
        Rng rng(kSolverSeed ^ (0x51ULL << 56) ^ q.frame_id);
        LocalizeConfig solve_cfg = shard.config.localize;
        solve_cfg.de.pool = pool;
        result = localize(obs, cam, solve_cfg, rng);
      });
      if (result) {
        out.found = true;
        out.hit_time_bound = result->hit_time_bound;
      }
    }
  }
  return out;
}

// --- results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::vector<std::string> violations;
  std::vector<Metric> metrics;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      violations.push_back(what);
    }
  }
  void add(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) value = 0;
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Samples the process's resident set size every 20 ms from construction
/// until stop(). Covers the timed phase only, so the benchmark's own set-up
/// repeats and input rendering do not count toward the peak.
class RssSampler {
 public:
  RssSampler() : thread_([this] { loop(); }) {}
  ~RssSampler() { stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Stop sampling and return the peak in MiB.
  double stop() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return static_cast<double>(peak_bytes_) / (1024.0 * 1024.0);
  }

 private:
  void loop() {
    std::unique_lock lock(mutex_);
    do {
      peak_bytes_ = std::max(peak_bytes_, rss_bytes());
    } while (!cv_.wait_for(lock, std::chrono::milliseconds(20),
                           [this] { return stop_; }));
    peak_bytes_ = std::max(peak_bytes_, rss_bytes());
  }

  static std::size_t rss_bytes() {
    std::ifstream in("/proc/self/statm");
    std::size_t total = 0, resident = 0;
    in >> total >> resident;
    return resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;               // guarded by mutex_
  std::size_t peak_bytes_ = 0;      // guarded by mutex_
  std::thread thread_;              // last: started after the state above
};

/// FNV-1a of the running binary: keys the accuracy record, so a rebuilt
/// program never compares against another program's answers.
std::uint64_t self_hash() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  std::uint64_t h = 1469598103934665603ULL;
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      h = (h ^ static_cast<std::uint8_t>(buf[i])) * 1099511628211ULL;
    }
  }
  return h;
}

std::string host_fingerprint(std::size_t pool) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"hw_threads\":%u,\"pool_threads\":%zu,"
                "\"distance_kernel\":\"%s\",\"build_type\":\"%s\","
                "\"vp_obs\":%d}",
                std::thread::hardware_concurrency(), pool,
                std::string(kernel_name(active_distance_kernel())).c_str(),
                VP_BENCH_BUILD_TYPE, VP_OBS_ENABLED ? 1 : 0);
  return buf;
}

// --- the run --------------------------------------------------------------------

class Bench {
 public:
  explicit Bench(Options opt) : opt_(std::move(opt)), spans_(opt_.trace) {}

  int run();

 private:
  void setup();
  void run_walk();
  void run_fleet(std::size_t phones, bool churn);
  void traced_replays();
  void finish_metrics();

  std::size_t threads() const {
    return std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  bool time_up() const { return Clock::now() >= deadline_; }

  Options opt_;
  SpanStore spans_;
  Report report_;
  std::unique_ptr<Rig> rig_;
  std::vector<double> setup_s_;
  Clock::time_point start_, deadline_, end_;

  std::vector<Fix> fixes_;
  std::vector<PrefixBytes> prefix_bytes_;
  std::vector<std::unique_ptr<Phone>> phones_;
  std::vector<std::vector<Prepared>> phone_inputs_;  // fleet/churn
  std::vector<View> frames_;                          // walk
  std::map<std::uint32_t, std::shared_ptr<const PlaceShard>> shards_;
  std::size_t publishes_ = 0;
  std::vector<double> publish_ms_;
  std::uint64_t stale_refreshes_ = 0;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  double peak_rss_mb_ = 0;
};

void Bench::setup() {
  // Set up kSetupRepeats times and keep the first. Set-up is single-threaded
  // until serve() starts, so with a core each the repeats run side by side.
  const bool compact_first = opt_.workload == "churn";
  std::vector<std::unique_ptr<Rig>> rigs(kSetupRepeats);
  setup_s_.assign(kSetupRepeats, 0.0);
  auto one = [&](std::size_t i) {
    const auto t0 = Clock::now();
    rigs[i] = set_up(opt_.seed, opt_.trace, compact_first);
    setup_s_[i] = ms_between(t0, Clock::now()) / 1e3;
  };
  if (threads() >= kSetupRepeats) {
    run_parallel(kSetupRepeats, one);
  } else {
    for (std::size_t i = 0; i < kSetupRepeats; ++i) one(i);
  }
  rig_ = std::move(rigs[0]);
  rigs.clear();
  malloc_trim(0);  // hand the other set-ups' memory back before measuring
  std::fprintf(stderr, "[%.1f s] setup: %zu mappings, %zu workers, setup_s %.3f\n",
               uptime_s(), rig_->mappings.size(),
               rig_->pool->thread_count(), median(setup_s_));
  const auto shard = rig_->server->store().snapshot(kPlace);
  report_.check(shard != nullptr && shard->index.pq_ready(),
                "place shard did not come up PQ-ready");
  if (shard) shards_[shard->epoch] = shard;
}

void Bench::run_walk() {
  frames_ = render_views(rig_->world, kWalkFrames, opt_.seed, threads());
  phones_.push_back(std::move(rig_->first_phone));
  Phone& phone = *phones_[0];
  // The set-up fetch is not part of any fix.
  phone.take_exchanges();
  phone.take_installs();
  prefix_bytes_.resize(1);
  rig_->tap->set_recording(true);
  RssSampler rss;
  start_ = Clock::now();
  deadline_ = start_ + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(opt_.seconds));
  std::uint64_t query_id = 0;
  for (std::size_t pass = 0; pass == 0 || !time_up(); ++pass) {
    if (pass > 0) phone.reset_client(opt_.seed * 31 + 1);
    for (std::size_t i = 0; i < frames_.size(); ++i) {
      if (pass > 0 && time_up()) break;
      Fix fix;
      fix.item = i;
      fix.pass = pass;
      const std::uint64_t up0 = phone.bytes_up(), down0 = phone.bytes_down();
      const auto t0 = Clock::now();
      FrameResult fr = phone.client().process_frame(frames_[i].image, 0.0, 0.0);
      const auto frame_end = Clock::now();
      fix.frame_ms = ms_between(t0, frame_end);
      fix.keypoints = fr.total_keypoints;
      fix.selected = fr.selected_keypoints;
      if (fr.query) {
        fix.frame_id = fr.query->frame_id;
        fix.sent = true;
        try {
          const LocationResponse resp =
              phone.remote().localize(std::move(*fr.query));
          fix.frame_id_mismatch = resp.frame_id != fix.frame_id;
          fix.found = resp.found;
          fix.position = resp.position;
          fix.matched = resp.matched_keypoints;
        } catch (const std::exception& e) {
          fix.failed = true;
          std::fprintf(stderr, "walk fix failed: %s\n", e.what());
        }
      }
      const auto t1 = Clock::now();
      fix.fix_ms = ms_between(t0, t1);
      fix.end = t1;
      if (fix.found) {
        fix.error_m = fix.position.distance(frames_[i].camera.pose.translation);
      }
      fix.served_epoch = phone.client().oracle_epoch();
      account_fix(fix, phone, *rig_->tap, spans_, t0, frame_end, t1, query_id);
      if (pass == 0) {
        prefix_bytes_[0].up += phone.bytes_up() - up0;
        prefix_bytes_[0].down += phone.bytes_down() - down0;
      }
      fixes_.push_back(std::move(fix));
      ++query_id;
    }
  }
  end_ = Clock::now();
  peak_rss_mb_ = rss.stop();
  rig_->tap->set_recording(false);
}

/// Lockstep round barrier for churn: every phone sends kChurnRoundFixes
/// queries per round; when the last one lands (a fix-count trigger), the
/// writer publishes the next delta and releases the round.
struct RoundBarrier {
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t arrived = 0;
  std::size_t released_round = 0;  ///< rounds whose barrier has opened
  bool stop = false;               ///< set by the writer at an open
};

void Bench::run_fleet(std::size_t phone_count, bool churn) {
  const std::size_t per_phone = kQueriesPerPhone;
  const std::size_t total = phone_count * per_phone;

  // Churn deltas: a second, differently-seeded wardrive pass over the same
  // world, split into publish-sized chunks. Built beside the queries.
  std::vector<std::vector<KeypointMapping>> deltas;
  std::vector<Prepared> prepared;
  run_parallel(churn ? 2 : 1, [&](std::size_t job) {
    if (job == 0) {
      prepared = prepare_queries(rig_->world, total, opt_.seed,
                                 rig_->first_phone->last_download(), threads());
      return;
    }
    Rng delta_rng(opt_.seed ^ 0xd17a5eedULL);
    WardriveConfig cfg = wardrive_config();
    cfg.stop_spacing = 2.6;
    cfg.views_per_stop = 1;
    const auto second = wardrive_mappings(rig_->world, cfg, delta_rng);
    deltas.resize(kChurnDeltas);
    for (std::size_t i = 0; i < second.size(); ++i) {
      deltas[i % kChurnDeltas].push_back(second[i]);
    }
  });
  phone_inputs_.assign(phone_count, {});
  for (std::size_t i = 0; i < total; ++i) {
    phone_inputs_[i % phone_count].push_back(std::move(prepared[i]));
  }
  malloc_trim(0);  // the rendered frames are gone; measure the server

  std::fprintf(stderr, "[%.1f s] inputs: %zu queries, %zu deltas\n",
               uptime_s(), prepared.size(), deltas.size());
  // Connect the other phones, each fetching its oracle (concurrently: an
  // oracle snapshot is the slowest request the server answers).
  phones_.clear();
  phones_.push_back(std::move(rig_->first_phone));
  for (std::size_t p = 1; p < phone_count; ++p) {
    const bool compact = churn || (p % 2 == 1);
    phones_.push_back(std::make_unique<Phone>(
        rig_->port(), opt_.seed * 31 + 1 + p, compact, opt_.trace));
  }
  run_parallel(phone_count - 1, [&](std::size_t i) {
    phones_[i + 1]->remote().fetch_oracle(kPlace);
  });
  // The oracle fetches above are set-up traffic, not part of any fix.
  for (auto& phone : phones_) {
    phone->take_exchanges();
    phone->take_installs();
  }
  prefix_bytes_.assign(phone_count, {});

  const std::size_t prefix_rounds = per_phone / kChurnRoundFixes;
  RoundBarrier barrier;
  std::vector<std::vector<Fix>> per_phone_fixes(phone_count);
  std::atomic<bool> failed_sync{false};

  rig_->tap->set_recording(true);
  RssSampler rss;
  start_ = Clock::now();
  deadline_ = start_ + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(opt_.seconds));

  std::thread writer;
  if (churn) {
    writer = std::thread([&] {
      for (std::size_t round = 0;; ++round) {
        std::unique_lock lock(barrier.mutex);
        barrier.cv.wait(lock, [&] {
          return barrier.arrived == phone_count || failed_sync.load();
        });
        if (failed_sync.load()) {
          barrier.stop = true;
          barrier.released_round = round + 1;
          barrier.cv.notify_all();
          return;
        }
        barrier.arrived = 0;
        // Rounds covering the accuracy prefix always publish (so which
        // epoch answers each prefix query is fixed); later rounds publish
        // while time and deltas remain, and run on until time is up.
        const bool more = round + 1 < prefix_rounds || !time_up();
        const bool publish = more && round < deltas.size();
        if (publish) {
          lock.unlock();
          const auto t0 = Clock::now();
          rig_->server->ingest_wardrive(deltas[round]);
          const auto t1 = Clock::now();
          spans_.add("map_store.publish", t0, t1, -1, 0);
          publish_ms_.push_back(ms_between(t0, t1));
          const auto shard = rig_->server->store().snapshot(kPlace);
          lock.lock();
          shards_[shard->epoch] = shard;
          ++publishes_;
        }
        barrier.stop = !more;
        barrier.released_round = round + 1;
        barrier.cv.notify_all();
        if (barrier.stop) return;
      }
    });
  }

  std::vector<std::thread> workers;
  for (std::size_t p = 0; p < phone_count; ++p) {
    workers.emplace_back([&, p] {
      Phone& phone = *phones_[p];
      const auto& inputs = phone_inputs_[p];
      std::vector<Fix>& mine = per_phone_fixes[p];
      for (std::size_t k = 0;; ++k) {
        if (churn && k > 0 && k % kChurnRoundFixes == 0) {
          std::unique_lock lock(barrier.mutex);
          const std::size_t round = k / kChurnRoundFixes;  // rounds done
          ++barrier.arrived;
          barrier.cv.notify_all();
          barrier.cv.wait(lock, [&] { return barrier.released_round >= round; });
          if (barrier.stop) break;
        } else if (!churn && k >= per_phone && time_up()) {
          break;
        }
        const std::size_t item = k % per_phone;
        const std::uint32_t frame_id =
            static_cast<std::uint32_t>((p + 1) << 16 | item);
        const std::uint64_t up0 = phone.bytes_up(), down0 = phone.bytes_down();
        const std::uint64_t query_id = (static_cast<std::uint64_t>(p) << 32) | k;
        Fix fix = send_prepared(phone, inputs[item], frame_id, *rig_->tap,
                                spans_, query_id);
        fix.phone = p;
        fix.item = item;
        fix.pass = k / per_phone;
        if (fix.pass == 0) {
          prefix_bytes_[p].up += phone.bytes_up() - up0;
          prefix_bytes_[p].down += phone.bytes_down() - down0;
        }
        if (fix.failed) failed_sync.store(true);
        mine.push_back(std::move(fix));
        if (failed_sync.load() && !churn) break;
      }
    });
  }
  for (auto& w : workers) w.join();
  if (writer.joinable()) writer.join();
  end_ = Clock::now();
  peak_rss_mb_ = rss.stop();
  rig_->tap->set_recording(false);
  for (auto& v : per_phone_fixes) {
    for (auto& f : v) fixes_.push_back(std::move(f));
  }
  for (const auto& phone : phones_) {
    stale_refreshes_ += phone->remote().stale_refreshes();
  }
}

void Bench::traced_replays() {
  // Replay the latest prefix fixes (caches warm, as for most served
  // queries), spread across phones.
  std::vector<const Fix*> picks;
  for (const Fix& fix : fixes_) {
    if (fix.pass == 0 && !fix.served_request.empty() &&
        shards_.count(fix.served_epoch) != 0) {
      picks.push_back(&fix);
    }
  }
  std::stable_sort(picks.begin(), picks.end(), [](const Fix* a, const Fix* b) {
    return a->item != b->item ? a->item > b->item : a->phone < b->phone;
  });
  if (picks.size() > kReplays) picks.resize(kReplays);

  std::size_t done = 0;
  double replayed_ms = 0, served_ms = 0;
  std::size_t solve_bound_hits = 0;
  std::vector<double> candidates_per_query, keep_ratio;
  const auto slow = rig_->server->slow_log().worst();
  for (const Fix* pick : picks) {
    const Fix& fix = *pick;
    const auto it = shards_.find(fix.served_epoch);
    const std::uint64_t query_id = 1'000'000 + done;
    const std::vector<Feature>* features =
        phone_inputs_.empty() ? nullptr
                              : &phone_inputs_[fix.phone][fix.item].query.features;
    ThreadPool* pool = rig_->pool.get();
    Replay r;
    pool->submit([&] {
          r = replay_query(fix.served_request, *it->second, pool, spans_,
                           query_id, features);
        })
        .get();
    ++done;
    solve_bound_hits += r.hit_time_bound ? 1 : 0;
    candidates_per_query.push_back(static_cast<double>(r.candidates));
    if (r.candidates > 0) {
      keep_ratio.push_back(static_cast<double>(r.clustered) /
                           static_cast<double>(r.candidates));
    }
    report_.check(r.found == fix.found,
                  "replay: fix/no-fix differs from the served query");
    if (fix.found) {
      report_.check(r.clustered == fix.matched,
                    "replay: clustered count differs from the served query");
    }
    for (const obs::SlowQuery& s : slow) {
      if (s.frame_id != fix.frame_id || s.error_code != 0) continue;
      for (const auto& [key, value] : s.notes) {
        if (key == "server.candidates") {
          report_.check(static_cast<std::size_t>(value) == r.candidates,
                        "replay: candidate count differs from the served query");
        }
      }
    }
    replayed_ms += r.stages_ms;
    served_ms += fix.handle_ms;
    std::fprintf(stderr,
                 "replay frame %u: %zu candidates, %zu clustered, stages "
                 "%.1f ms vs served handler %.1f ms\n",
                 fix.frame_id, r.candidates, r.clustered, r.stages_ms,
                 fix.handle_ms);

    // Client layers of the walk frame path, through their public functions.
    if (!frames_.empty()) {
      const ImageF& image = frames_[fix.item].image;
      VisualPrintClient& client = phones_[0]->client();
      const auto t0 = Clock::now();
      (void)variance_of_laplacian(image);
      const auto t1 = Clock::now();
      std::vector<Feature> features_all = sift_detect(image, client.config().sift);
      const auto t2 = Clock::now();
      (void)client.select_features(std::move(features_all), client.config().top_k);
      const auto t3 = Clock::now();
      spans_.add("imaging.blur_gate", t0, t1, -1, query_id);
      spans_.add("features.sift", t1, t2, -1, query_id);
      spans_.add("hashing.select", t2, t3, -1, query_id);
    }
  }
  // Client oracle install: decode of the last oracle download plus the
  // install measured live in the refresh hook.
  for (const auto& phone : phones_) {
    if (phone->last_oracle_reply().empty()) continue;
    const auto t0 = Clock::now();
    const OracleDownload d = OracleDownload::decode(phone->last_oracle_reply());
    const auto t1 = Clock::now();
    spans_.add("client.oracle_decode", t0, t1, -1, 0);
    (void)d;
  }
  report_.check(solve_bound_hits == 0,
                "geometry.solve_time_bound_hits must be 0");
  report_.add("geometry.solve_time_bound_hits",
              static_cast<double>(solve_bound_hits), "count");
  report_.add("index.candidates", median(candidates_per_query), "count");
  report_.add("geometry.cluster_keep_ratio", median(keep_ratio), "ratio");
  const double replay_gap =
      served_ms > 0 ? std::abs(replayed_ms / served_ms - 1.0) : 0.0;
  report_.add("consistency.replay_gap", replay_gap, "ratio");
  if (opt_.workload == "walk") {
    report_.check(done > 0, "walk: no served query to replay");
    report_.check(replay_gap <= kConsistencyTolerance,
                  "walk: replayed stages do not account for server.handle_ms "
                  "within 10%");
  }
}

void Bench::finish_metrics() {
  // Accuracy and bytes: the prefix (first pass) of every phone.
  std::size_t prefix_attempted = 0, prefix_found = 0;
  std::vector<double> errors;
  std::uint64_t position_hash = 1469598103934665603ULL;
  for (const Fix& f : fixes_) {
    if (f.pass != 0) continue;
    ++prefix_attempted;
    if (!f.found) continue;
    ++prefix_found;
    errors.push_back(f.error_m);
    for (double v : {f.position.x, f.position.y, f.position.z}) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      position_hash = (position_hash ^ bits) * 1099511628211ULL;
    }
  }
  // Later passes over the same inputs must reproduce the prefix exactly
  // (walk and fleet; churn answers move with the epoch by design).
  if (opt_.workload != "churn") {
    std::map<std::pair<std::size_t, std::size_t>, const Fix*> first;
    for (const Fix& f : fixes_) {
      if (f.pass == 0) first[{f.phone, f.item}] = &f;
    }
    for (const Fix& f : fixes_) {
      if (f.pass == 0 || f.failed) continue;
      const auto it = first.find({f.phone, f.item});
      if (it == first.end()) continue;
      const Fix& a = *it->second;
      report_.check(a.found == f.found && a.position.x == f.position.x &&
                        a.position.y == f.position.y &&
                        a.position.z == f.position.z,
                    "a repeated query got a different answer (results must "
                    "not depend on wall-clock time)");
    }
  }
  std::uint64_t up = 0, down = 0;
  for (const PrefixBytes& b : prefix_bytes_) up += b.up, down += b.down;

  // Throughput window: the deadline, or the last first-pass fix when the
  // accuracy prefix outlasts it. Fixes finishing after it (phones winding
  // down one by one) count toward latency but not throughput.
  Clock::time_point window_end = deadline_;
  for (const Fix& f : fixes_) {
    if (f.pass == 0) window_end = std::max(window_end, f.end);
  }
  std::vector<double> fix_ms, fix_ms_untraced;
  std::size_t attempted = 0, failed = 0, completed = 0, in_window = 0;
  std::size_t mismatched = 0;
  for (const Fix& f : fixes_) {
    ++attempted;
    if (f.failed) ++failed;
    if (f.frame_id_mismatch) ++mismatched;
    if (!f.sent || f.failed) continue;
    ++completed;
    if (f.end <= window_end) ++in_window;
    fix_ms.push_back(f.fix_ms);
    fix_ms_untraced.push_back(f.fix_ms - f.record_ms);
  }
  attempted_ = attempted;
  failed_ = failed;
  const double phase_s = std::chrono::duration<double>(end_ - start_).count();
  const double window_s =
      std::chrono::duration<double>(window_end - start_).count();
  const double fix_rate =
      prefix_attempted == 0
          ? 0.0
          : static_cast<double>(prefix_found) /
                static_cast<double>(prefix_attempted);
  const double err_p50 = percentile(errors, 0.5);
  const double err_p90 = percentile(errors, 0.9);

  report_.check(failed == 0, "some fixes failed");
  report_.check(mismatched == 0,
                "a LocationResponse did not match its query's frame_id");
  report_.check(fix_rate >= kMinFixRate, "fix_rate below the sanity floor");
  report_.check(!errors.empty() && err_p50 <= kMaxMedianErrorM,
                "median position error above the sanity floor");
  std::uint64_t shed = rig_->server->admission().shed();
  report_.check(shed == 0, "server.shed must be 0");
  RetryStats retry{};
  for (const auto& phone : phones_) {
    const RetryStats& s = phone->retry_stats();
    retry.retries += s.retries;
    retry.timeouts += s.timeouts;
    retry.overloaded += s.overloaded;
  }
  report_.check(retry.retries == 0 && retry.timeouts == 0 &&
                    retry.overloaded == 0,
                "transport retries, timeouts or overloads in a clean run");
  if (opt_.workload == "churn") {
    report_.check(stale_refreshes_ == publishes_ * phones_.size(),
                  "churn: stale refreshes != publishes x phones");
    report_.check(publishes_ > 0, "churn: no publish happened");
  }

  // Cross-run determinism: the same binary and seed must reproduce the
  // accuracy and byte figures exactly.
  {
    char record[512];
    std::snprintf(record, sizeof(record),
                  "fix_rate=%.17g err_p50=%.17g err_p90=%.17g up=%llu "
                  "down=%llu attempted=%zu positions=%016llx\n",
                  fix_rate, err_p50, err_p90,
                  static_cast<unsigned long long>(up),
                  static_cast<unsigned long long>(down), prefix_attempted,
                  static_cast<unsigned long long>(position_hash));
    char name[160];
    std::snprintf(name, sizeof(name), "accuracy-%s-%llu-%016llx.txt",
                  opt_.workload.c_str(),
                  static_cast<unsigned long long>(opt_.seed),
                  static_cast<unsigned long long>(self_hash()));
    const std::filesystem::path path =
        std::filesystem::path(opt_.out_dir) / name;
    std::ifstream in(path);
    if (in) {
      std::stringstream previous;
      previous << in.rdbuf();
      report_.check(previous.str() == record,
                    "accuracy or byte metrics differ from an earlier run of "
                    "this binary with the same seed");
    } else {
      std::ofstream(path, std::ios::trunc) << record;
    }
  }

  std::fprintf(stderr,
               "[%.1f s] phase %.2f s: %zu fixes (%zu failed), prefix %zu (%zu found), "
               "fix p50 %.1f ms p90 %.1f ms, err p50 %.3f m p90 %.3f m, "
               "%.0f B up / %.0f B down per fix\n",
               uptime_s(), phase_s, attempted, failed, prefix_attempted,
               prefix_found,
               percentile(fix_ms, 0.5), percentile(fix_ms, 0.9), err_p50,
               err_p90,
               static_cast<double>(up) / std::max<std::size_t>(1, prefix_attempted),
               static_cast<double>(down) / std::max<std::size_t>(1, prefix_attempted));

  const double per_fix = static_cast<double>(std::max<std::size_t>(1, prefix_attempted));
  if (!opt_.trace) {
    report_.add("setup_s", median(setup_s_), "s");
    report_.add("fix_ms.p50", percentile(fix_ms, 0.5), "ms");
    report_.add("fix_ms.p90", percentile(fix_ms, 0.9), "ms");
    report_.add("fixes_per_s", static_cast<double>(in_window) / window_s,
                "1/s");
    report_.add("fix_rate", fix_rate, "ratio");
    report_.add("uplink_bytes_per_fix", static_cast<double>(up) / per_fix, "B");
    report_.add("downlink_bytes_per_fix", static_cast<double>(down) / per_fix,
                "B");
    report_.add("peak_rss_mb", peak_rss_mb_, "MiB");
    return;
  }

  // --- per-layer metrics (traced run) ---
  traced_replays();
  std::vector<double> frame_ms, link_ms, handle_q, keypoints, selected;
  std::vector<double> fix_gaps;  // per fix: (frame + link + handler) / fix - 1
  std::size_t frames = 0, select_ran = 0;
  for (const Fix& f : fixes_) {
    if (f.frame_ms > 0) frame_ms.push_back(f.frame_ms);
    if (f.link_ms > 0) link_ms.push_back(f.link_ms);
    if (f.handle_ms > 0) handle_q.push_back(f.handle_ms);
    if (f.handle_ms > 0 && f.fix_ms > 0) {
      fix_gaps.push_back((f.frame_ms + f.link_ms + f.handle_ms) / f.fix_ms - 1);
    }
  }
  for (const Fix& f : fixes_) {
    if (opt_.workload != "walk") break;
    ++frames;
    keypoints.push_back(static_cast<double>(f.keypoints));
    selected.push_back(static_cast<double>(f.selected));
    if (f.keypoints > Phone::client_config().top_k) ++select_ran;
  }
  auto p50 = [&](const std::string& span) { return median(spans_.durations(span)); };
  std::vector<double> oracle_handle;
  for (const HandledRequest& h : rig_->tap->others()) {
    if (h.tag == kOracleRequest) oracle_handle.push_back(ms_between(h.start, h.end));
  }
  std::vector<double> install_ms = spans_.durations("client.oracle_install");
  const double install_p50 =
      install_ms.empty() ? 0.0 : median(install_ms) + p50("client.oracle_decode");

  report_.add("fix.samples", static_cast<double>(completed), "count");
  // Accuracy is pinned per seed (determinism check) but spreads across
  // seeds far beyond any regression bound, so it is reported here.
  report_.add("pos_err_m.p50", err_p50, "m");
  report_.add("pos_err_m.p90", err_p90, "m");
  report_.add("client.frame_ms", median(frame_ms), "ms");
  report_.add("imaging.blur_gate_ms", p50("imaging.blur_gate"), "ms");
  report_.add("features.sift_ms", p50("features.sift"), "ms");
  report_.add("hashing.select_ms", p50("hashing.select"), "ms");
  report_.add("client.keypoints", median(keypoints), "count");
  report_.add("client.selected", median(selected), "count");
  report_.add("client.select_ran_ratio",
              frames == 0 ? 0.0
                          : static_cast<double>(select_ran) /
                                static_cast<double>(frames),
              "ratio");
  report_.add("features.pq_encode_ms", p50("features.pq_encode"), "ms");
  report_.add("net.query_encode_ms", p50("net.query_encode"), "ms");
  report_.add("net.query_decode_ms", p50("net.query_decode"), "ms");
  report_.add("net.link_ms", median(link_ms), "ms");
  report_.add("net.retries", static_cast<double>(retry.retries), "count");
  report_.add("net.timeouts", static_cast<double>(retry.timeouts), "count");
  report_.add("net.overloaded", static_cast<double>(retry.overloaded), "count");
  report_.add("server.handle_ms.query", median(handle_q), "ms");
  report_.add("server.handle_ms.oracle", median(oracle_handle), "ms");
  report_.add("server.admitted",
              static_cast<double>(rig_->server->admission().admitted()), "count");
  report_.add("server.shed", static_cast<double>(shed), "count");
  report_.add("index.retrieve_ms", p50("index.retrieve"), "ms");
  report_.add("geometry.cluster_ms", p50("geometry.cluster"), "ms");
  report_.add("geometry.solve_ms", p50("geometry.solve"), "ms");
  report_.add("map_store.publish_ms", median(publish_ms_), "ms");
  report_.add("map_store.oracle_snapshot_ms", median(oracle_handle), "ms");
  report_.add("client.oracle_install_ms", install_p50, "ms");
  report_.add("remote.stale_refreshes", static_cast<double>(stale_refreshes_),
              "count");
  // Tracing here is this benchmark's own recording; its cost inside each
  // fix window is measured, so the untraced fix is the fix minus it.
  const double fix_p50 = median(fix_ms);
  const double untraced_p50 = median(fix_ms_untraced);
  report_.add("obs.trace_overhead",
              untraced_p50 > 0 ? fix_p50 / untraced_p50 : 0.0, "ratio");
  const double fix_gap = std::abs(median(fix_gaps));
  report_.add("consistency.fix_gap", fix_gap, "ratio");
  if (opt_.workload == "walk") {
    report_.check(fix_gap <= kConsistencyTolerance,
                  "walk: client.frame_ms + net.link_ms + server.handle_ms "
                  "does not account for the fix time within 10%");
  }
}

int Bench::run() {
  std::filesystem::create_directories(opt_.out_dir);
  setup();
  if (opt_.workload == "walk") {
    run_walk();
  } else if (opt_.workload == "fleet") {
    run_fleet(std::max<std::size_t>(2, threads()), false);
  } else {
    run_fleet(std::max<std::size_t>(1, threads() / 2), true);
  }
  // Hang up before the traced replays: serve() holds a worker per open
  // connection, and the replays run on those workers.
  for (auto& phone : phones_) phone->close();
  finish_metrics();
  if (spans_.on()) {
    spans_.write_chrome(opt_.out_dir + "/trace-" + opt_.workload + "-" +
                        std::to_string(opt_.seed) + ".json");
  }
  phones_.clear();
  rig_.reset();

  for (const std::string& v : report_.violations) {
    std::fprintf(stderr, "VIOLATION: %s\n", v.c_str());
  }
  std::printf("host %s\n", host_fingerprint(threads()).c_str());
  std::string out = "{\"correct\": ";
  out += report_.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < report_.metrics.size(); ++i) {
    const Metric& m = report_.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return report_.correct ? 0 : 1;
}

bool parse_args(int argc, char** argv, Options& opt) {
  if (argc % 2 == 0) return false;  // every flag takes one value
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (key == "--trace") {
      opt.trace = std::atoi(value) != 0;
    } else if (key == "--out") {
      opt.out_dir = value;
    } else {
      return false;
    }
  }
  return (opt.workload == "walk" || opt.workload == "fleet" ||
          opt.workload == "churn") &&
         opt.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload walk|fleet|churn --seed N "
                 "--seconds S --trace 0|1 [--out DIR]\n");
    return 2;
  }
  try {
    Bench bench(std::move(opt));
    return bench.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench failed: %s\n", e.what());
    return 1;
  }
}
