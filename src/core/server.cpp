#include "core/server.hpp"

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace vp {
namespace {

double ms_since(std::chrono::steady_clock::time_point t0) noexcept {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// RAII server.inflight gauge: counts 'Q' requests currently inside the
/// handler, exception-safe.
struct InflightGuard {
  obs::Gauge& gauge;
  explicit InflightGuard(obs::Gauge& g) : gauge(g) { gauge.add(1); }
  ~InflightGuard() { gauge.add(-1); }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;
};

/// The kStaleOracle reply to a query built against state its place has
/// since replaced (an oracle epoch or a codebook epoch): counts `counter`
/// and tags the slow-log entry so the client refreshes and resends.
Bytes stale_reply([[maybe_unused]] const char* counter, std::string message,
                  const std::string& place, obs::SlowQuery& slow) {
  VP_OBS_COUNT(counter, 1);
  slow.error_code = ErrorResponse::kStaleOracle;
  slow.place = place;
  ErrorResponse err;
  err.code = ErrorResponse::kStaleOracle;
  err.message = std::move(message);
  return err.encode();
}

}  // namespace

VisualPrintServer::VisualPrintServer(ServerConfig config)
    : VisualPrintServer(std::move(config), /*eager_default_builder=*/true) {}

VisualPrintServer::VisualPrintServer(ServerConfig config,
                                     bool eager_default_builder)
    : store_(std::make_unique<MapStore>(std::move(config),
                                        eager_default_builder)),
      runtime_(std::make_unique<ServerRuntime>()) {
  // Self-describing build gauges (direct registry calls, not macros: they
  // must appear in scrapes of a VP_OBS=OFF binary too — that a scrape
  // self-reports "tracing compiled out" is the point).
  auto& registry = obs::Registry::global();
#if VP_OBS_ENABLED
  registry.gauge("build.vp_obs").set(1);
#else
  registry.gauge("build.vp_obs").set(0);
#endif
  // Compiled SIMD levels beyond the scalar reference (0 = portable-only
  // build; 2 on x86: SSE2 and AVX2).
  registry.gauge("build.simd")
      .set(static_cast<double>(kCompiledSimdLevels.size() - 1));
}

const PlaceShard& VisualPrintServer::default_builder() const {
  return store_->builder_shard(store_->default_place());
}

void VisualPrintServer::ingest(const Feature& feature, Vec3 world_position,
                               std::int32_t scene_id,
                               std::uint32_t source_id) {
  store_->ingest(store_->default_place(), feature, world_position, scene_id,
                 source_id);
}

void VisualPrintServer::ingest_wardrive(
    std::span<const KeypointMapping> mappings) {
  store_->ingest_wardrive(store_->default_place(), mappings);
}

void VisualPrintServer::ingest_wardrive(
    const std::string& place, std::span<const KeypointMapping> mappings,
    const ServerConfig* config) {
  store_->ingest_wardrive(place, mappings, config);
}

LocationResponse VisualPrintServer::localize_query(
    const FingerprintQuery& query, Rng& rng) const {
  return store_->localize(query, rng);
}

std::vector<std::uint32_t> VisualPrintServer::scene_votes(
    std::span<const Feature> features) const {
  const auto shard = store_->snapshot(store_->default_place());
  VP_ASSERT(shard != nullptr);
  return shard->scene_votes(features);
}

Bytes VisualPrintServer::handle_request(std::span<const std::uint8_t> request,
                                        std::uint64_t solver_seed) const {
  if (request.empty()) throw DecodeError{"empty request"};
  const std::uint8_t tag = request[0];
  const auto body = request.subspan(1);
  if (tag == kOracleRequest) {
    // Legacy bare 'O' (empty body) resolves to the default place; a body
    // is an OracleRequest naming the shard. The reply is the snapshot's
    // already-encoded download (packed once per published epoch).
    const std::string place =
        body.empty() ? std::string{} : OracleRequest::decode(body).place;
    const auto reply = store_->oracle_reply(place);
    return Bytes(reply->begin(), reply->end());
  }
  if (tag == kQueryRequest) {
    return handle_query(body, solver_seed);
  }
  if (tag == kStatsRequest) {
    const StatsRequest req = StatsRequest::decode(body);
    StatsResponse resp;
    resp.format = req.format;
    if (req.format == StatsRequest::kFormatSlowLog) {
      resp.text = runtime_->slow_log.to_json_lines();
      return resp.encode();
    }
    // Refresh the scrape-time gauges so every export self-describes the
    // serving process, not just its build.
    auto& registry = obs::Registry::global();
    registry.gauge("server.uptime_ms").set(ms_since(runtime_->start));
    const auto seen = runtime_->queries_seen.load(std::memory_order_relaxed);
    const auto traced =
        runtime_->queries_traced.load(std::memory_order_relaxed);
    registry.gauge("server.trace_sample_rate")
        .set(seen == 0 ? 0.0
                       : static_cast<double>(traced) /
                             static_cast<double>(seen));
    registry.gauge("server.admission_cap")
        .set(static_cast<double>(runtime_->admission.max_inflight()));
    registry.gauge("server.shed_rate").set(runtime_->admission.shed_rate());
    const auto snap = registry.snapshot();
    resp.text = req.format == StatsRequest::kFormatPrometheus
                    ? obs::to_prometheus(snap)
                    : obs::to_json_lines(snap);
    return resp.encode();
  }
  throw DecodeError{"unknown request tag"};
}

Bytes VisualPrintServer::handle_query(std::span<const std::uint8_t> body,
                                      std::uint64_t solver_seed) const {
  const auto t0 = std::chrono::steady_clock::now();
  runtime_->queries_seen.fetch_add(1, std::memory_order_relaxed);
  // Admission first, before any decode work: a shed query must cost the
  // server almost nothing, or shedding would not shield the admitted ones.
  const AdmissionTicket ticket(&runtime_->admission);
  if (!ticket.admitted()) {
    VP_OBS_COUNT("server.shed", 1);
    ErrorResponse err;
    err.code = ErrorResponse::kOverloaded;
    err.message = "query shed: admission cap " +
                  std::to_string(runtime_->admission.max_inflight()) +
                  " inflight queries reached";
    return err.encode();
  }
  VP_OBS_COUNT("server.admitted", 1);
  const InflightGuard inflight(obs::Registry::global().gauge("server.inflight"));
  // The handler trace opens before decode so the wire "decode" span lands
  // in it. Cheap either way (two thread-local stores), so it is opened for
  // untraced queries too — their spans still feed the slow-query log.
  obs::FrameTrace trace;
  obs::SlowQuery slow;
  Bytes reply;
  const FingerprintQuery query = FingerprintQuery::decode(body);
  VP_OBS_OBSERVE_IN("net.query_bytes", obs::HistogramBuckets::bytes(),
                    static_cast<double>(body.size()));
  slow.trace_id = query.trace_id;
  slow.frame_id = query.frame_id;
  if (query.trace_id != 0) {
    runtime_->queries_traced.fetch_add(1, std::memory_order_relaxed);
  }
  // A query built against state the place has since replaced is answered
  // kStaleOracle (reply set) instead of being localized.
  const std::string& place =
      query.place.empty() ? store_->default_place() : query.place;
  if (query.compact()) {
    VP_OBS_COUNT("server.compact_decode", 1);
    // A compact query's codes are only rankable against the codebook epoch
    // the client encoded with. Epoch/mode come from metadata (manifest for
    // cold shards) so the gate never faults a shard in; an unknown place
    // falls through to localize() and its structured miss.
    const std::uint32_t current = store_->epoch(place);
    const std::string_view mode = store_->storage_mode(place);
    if (current != 0 &&
        (mode != "pq" || current != query.codebook_epoch)) {
      reply = stale_reply(
          "server.stale_codebook",
          "codebook epoch " + std::to_string(query.codebook_epoch) +
              " for place '" + place + "' cannot rank compact codes: " +
              (mode == "pq" ? "superseded by epoch " + std::to_string(current)
                            : "place is not PQ-indexed"),
          place, slow);
    }
  }
  if (reply.empty() && query.oracle_epoch != 0) {
    // The client ranked its keypoints against an epoch'd oracle; if the
    // place has republished since, tell it to refresh instead of
    // localizing against selections an outdated uniqueness table made.
    const auto shard = store_->snapshot(place);
    if (shard != nullptr && shard->epoch != query.oracle_epoch) {
      reply = stale_reply("server.stale_oracle",
                          "oracle epoch " + std::to_string(query.oracle_epoch) +
                              " for place '" + place +
                              "' superseded by epoch " +
                              std::to_string(shard->epoch),
                          place, slow);
    }
  }
  if (reply.empty()) {
    // Per-query rng: deterministic for a given (seed, frame) and safe when
    // serve() runs handlers concurrently on pool workers.
    Rng solver_rng(solver_seed ^ (0x51ULL << 56) ^ query.frame_id);
    LocationResponse resp = store_->localize(query, solver_rng);
    resp.trace_id = query.trace_id;
    if (query.trace_id != 0 && (query.trace_flags & obs::kTraceSampled)) {
      // Echo this handler's span tree as the reply's timing block. Spans run on
      // pool workers (multi-shard fan-out) are histogram-only and absent
      // here — the block shows the coordinating thread's structure.
      for (const obs::SpanRecord& rec : trace.records()) {
        WireSpan s;
        s.name = rec.name;
        s.parent = static_cast<std::int16_t>(rec.parent);
        s.start_ms = static_cast<float>(rec.start_ms);
        s.duration_ms = static_cast<float>(rec.duration_ms);
        resp.server_spans.push_back(std::move(s));
      }
    }
    slow.place = resp.place;
    reply = resp.encode();
  }
  slow.total_ms = ms_since(t0);
  const obs::StageTimings stage_totals = trace.stage_timings();
  for (const auto& [stage, ms] : stage_totals.entries()) {
    slow.stages.emplace_back(stage, ms);
  }
  for (const auto& [key, value] : trace.notes()) {
    slow.notes.emplace_back(key, value);
  }
  runtime_->slow_log.record(std::move(slow));
  return reply;
}

OracleDownload VisualPrintServer::oracle_snapshot() const {
  return store_->oracle_snapshot({});
}

OracleDownload VisualPrintServer::oracle_snapshot(
    const std::string& place) const {
  return store_->oracle_snapshot(place);
}

const UniquenessOracle& VisualPrintServer::oracle() const {
  return default_builder().oracle;
}

const LshIndex& VisualPrintServer::index() const {
  return default_builder().index;
}

std::size_t VisualPrintServer::keypoint_count() const {
  return default_builder().stored.size();
}

const StoredKeypoint& VisualPrintServer::stored(std::uint32_t id) const {
  return default_builder().stored.at(id);
}

int VisualPrintServer::scene_count() const {
  return default_builder().scene_count;
}

std::size_t VisualPrintServer::index_byte_size() const {
  return default_builder().index.byte_size();
}

}  // namespace vp
