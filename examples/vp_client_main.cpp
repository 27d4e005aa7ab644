// vp_client: the VisualPrint client as a real process, talking to
// vp_server over TCP. Downloads the uniqueness oracle of a place,
// "photographs" the same demo gallery (the simulated camera), selects the
// most unique keypoints, ships fingerprint queries, and prints the
// locations the service returns against ground truth.
//
// All traffic goes through RetryingClient (per-attempt deadlines, then
// reconnect-and-resend with bounded exponential backoff) wrapped in a
// RemoteLocalizer: a flaky or restarting server costs retries, and a
// server that republished its map mid-session (kStaleOracle) costs one
// transparent oracle refresh — never a crash.
//
// With --compact-uplink, queries to a PQ-serving place go out as
// compact frames: 16-byte PQ codes (encoded against the codebook that
// rode the oracle download) plus quantized keypoint coordinates — 20
// bytes per feature on the wire instead of 144. The exit summary prints
// the measured per-frame uplink/downlink split from the net.bytes.*
// counters.
//
// Run:   ./vp_server         (first, in another terminal)
//        ./vp_client [--port N] [--views N] [--place ID]
//                    [--trace-out FILE] [--metrics-out FILE]
//                    [--compact-uplink]
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/client.hpp"
#include "core/remote.hpp"
#include "net/retry.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "scene/environments.hpp"
#include "scene/render.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace vp;
  std::uint16_t port = 47001;
  int views = 6;
  std::string place;  // "" = the server's default place
  std::string trace_out;    // Chrome-trace JSON of the stitched traces
  std::string metrics_out;  // write the stats scrape here too
  bool compact_uplink = false;  // PQ-coded query fingerprints
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--views") == 0 && i + 1 < argc) {
      views = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--place") == 0 && i + 1 < argc) {
      place = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--compact-uplink") == 0) {
      compact_uplink = true;
    }
  }

  // The same demo gallery the server wardrove (seed-identical): this is
  // the world the simulated camera photographs.
  Rng rng(2016);
  GalleryConfig gallery;
  gallery.num_scenes = 8;
  gallery.hall_length = 24;
  const World world = build_gallery(gallery, rng);
  const auto quads = scene_quads(world);
  const CameraIntrinsics intr{480, 360, 1.15192};

  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.io_timeout_ms = 10'000;  // oracle download + cold solver latencies
  RetryingClient net("127.0.0.1", port, policy);

  ClientConfig cfg;
  cfg.top_k = 200;
  cfg.blur_threshold = 2.0;
  VisualPrintClient client(cfg);

  RemoteLocalizer localizer(
      [&net](std::span<const std::uint8_t> req) { return net.request(req); });
  // End-to-end tracing: every query carries a trace_id and asks the server
  // to echo its span block, which the localizer stitches with its own
  // spans and the measured round trip.
  if (!trace_out.empty()) localizer.enable_tracing(1.0);
  if (compact_uplink) localizer.enable_compact_uplink();
  // Every oracle the localizer downloads — first fetch or mid-session
  // stale refresh — lands in the client's per-place cache.
  localizer.on_oracle_refresh(
      [&client](const OracleDownload& d) { client.install_oracle(d); });

  // First launch: fetch the place's uniqueness oracle.
  const OracleDownload download = localizer.fetch_oracle(place);
  std::printf("oracle for place '%s' @ epoch %u downloaded: %s compressed\n",
              download.place.c_str(), download.epoch,
              Table::bytes_human(static_cast<double>(download.compressed.size())).c_str());
  if (compact_uplink) {
    if (download.codebook.empty()) {
      std::printf(
          "compact uplink requested, but the place serves no PQ codebook; "
          "queries stay raw\n");
    } else {
      std::printf(
          "compact uplink on: %s codebook cached, queries go out PQ-coded\n",
          Table::bytes_human(static_cast<double>(download.codebook.size()))
              .c_str());
    }
  }

  Table table("Localization over TCP");
  table.header({"view", "uploaded", "server says", "truth", "error (m)"});
  std::uint64_t queries_sent = 0;
  for (int v = 0; v < views; ++v) {
    Rng view_rng(9100 + v);
    const std::size_t scene = static_cast<std::size_t>(v) % quads.size();
    const Camera cam = view_of_quad(world, quads[scene], intr,
                                    view_rng.uniform(-20, 20), 2.4, view_rng);
    auto photo = render(world, cam, {}, view_rng);
    const auto fr = client.process_frame(photo.image, 0.0, 0.0);
    if (fr.status != FrameResult::Status::kQueued) {
      table.row({std::to_string(v), "-", "(frame rejected)", "-", "-"});
      continue;
    }
    const LocationResponse resp = localizer.localize(*fr.query);
    ++queries_sent;

    char est[64], truth[64];
    std::snprintf(est, sizeof est, "(%.1f, %.1f, %.1f)", resp.position.x,
                  resp.position.y, resp.position.z);
    std::snprintf(truth, sizeof truth, "(%.1f, %.1f, %.1f)",
                  cam.pose.translation.x, cam.pose.translation.y,
                  cam.pose.translation.z);
    table.row({std::to_string(v),
               Table::bytes_human(static_cast<double>(fr.query->wire_size())),
               resp.found ? std::string(est) : std::string("(no fix)"),
               std::string(truth),
               resp.found
                   ? Table::num(resp.position.distance(cam.pose.translation), 2)
                   : "-"});
  }
  table.print();

  // Scrape the server's per-stage metrics over the same connection: the
  // decode/retrieve/cluster/solve breakdown for the queries just served.
  StatsRequest stats_req;
  stats_req.format = StatsRequest::kFormatPrometheus;
  ByteWriter sw;
  sw.u8(kStatsRequest);
  sw.raw(stats_req.encode());
  const Bytes reply = net.request(sw.bytes());
  const StatsResponse stats = StatsResponse::decode(reply);
  std::printf("\nserver metrics (prometheus):\n%s", stats.text.c_str());
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out, std::ios::trunc);
    out << stats.text;
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }

  if (!trace_out.empty()) {
    std::ofstream out(trace_out, std::ios::trunc);
    out << obs::to_chrome_trace(localizer.traces());
    std::printf(
        "%zu stitched traces written to %s (open in chrome://tracing "
        "or Perfetto)\n",
        localizer.traces().size(), trace_out.c_str());
  }

  // Measured traffic split from this process's net.bytes.* counters (the
  // localizer counts every request/reply it exchanges, by message kind).
  {
    auto& reg = obs::Registry::global();
    const auto up_q = reg.counter("net.bytes.up.query").value();
    const auto down_q = reg.counter("net.bytes.down.query").value();
    const auto up_o = reg.counter("net.bytes.up.oracle").value();
    const auto down_o = reg.counter("net.bytes.down.oracle").value();
    const std::uint64_t frames = queries_sent > 0 ? queries_sent : 1;
    std::printf(
        "\nuplink:   %s total (%s/frame over %llu frames; %llu compact)\n"
        "downlink: %s query replies + %s oracle (oracle requests: %s)\n",
        Table::bytes_human(static_cast<double>(up_q)).c_str(),
        Table::bytes_human(static_cast<double>(up_q) /
                           static_cast<double>(frames))
            .c_str(),
        static_cast<unsigned long long>(frames),
        static_cast<unsigned long long>(localizer.compact_queries()),
        Table::bytes_human(static_cast<double>(down_q)).c_str(),
        Table::bytes_human(static_cast<double>(down_o)).c_str(),
        Table::bytes_human(static_cast<double>(up_o)).c_str());
  }

  const RetryStats& rs = net.stats();
  if (rs.retries > 0 || rs.timeouts > 0 || rs.conn_dropped > 0 ||
      rs.stale_oracles > 0) {
    std::printf(
        "\nlink faults absorbed: %llu retries (%llu timeouts, "
        "%llu drops, %llu remote errors, %llu stale oracles)\n",
        static_cast<unsigned long long>(rs.retries),
        static_cast<unsigned long long>(rs.timeouts),
        static_cast<unsigned long long>(rs.conn_dropped),
        static_cast<unsigned long long>(rs.remote_errors),
        static_cast<unsigned long long>(rs.stale_oracles));
  }
  return 0;
}
