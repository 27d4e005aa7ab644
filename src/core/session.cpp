#include "core/session.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "imaging/codec.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace vp {
namespace {

/// User trajectory: walk back and forth along the world's long axis at
/// walking speed while panning the camera sinusoidally toward the walls.
struct UserPath {
  Vec3 lo, hi;
  double eye = 1.5;
  double speed;
  double pan_period;
  double pan_amplitude;

  Vec3 position(double t) const {
    const double margin = 2.0;
    const double span = std::max(1.0, (hi.x - lo.x) - 2 * margin);
    double s = std::fmod(t * speed, 2 * span);
    if (s > span) s = 2 * span - s;  // ping-pong
    const double y = lo.y + (hi.y - lo.y) * 0.5;
    return {lo.x + margin + s, y, eye};
  }

  double pan_angle(double t) const {
    return pan_amplitude *
           std::sin(2 * std::numbers::pi * t / pan_period);
  }

  /// Angular velocity of the pan (rad/s) — drives motion blur.
  double pan_rate(double t) const {
    return pan_amplitude * 2 * std::numbers::pi / pan_period *
           std::cos(2 * std::numbers::pi * t / pan_period);
  }

  Camera camera(double t, const CameraIntrinsics& intr) const {
    const Vec3 pos = position(t);
    const double yaw = pan_angle(t);
    const Vec3 dir{std::sin(yaw), std::cos(yaw), 0.05};
    return look_at(intr, pos, pos + dir.normalized() * 3.0);
  }
};

}  // namespace

std::vector<std::pair<double, double>> SessionStats::cumulative_upload()
    const {
  std::vector<std::pair<double, double>> curve;
  std::vector<TransferRecord> sorted = uploads;
  std::sort(sorted.begin(), sorted.end(),
            [](const TransferRecord& a, const TransferRecord& b) {
              return a.complete_time < b.complete_time;
            });
  double total = 0;
  for (const auto& r : sorted) {
    total += static_cast<double>(r.bytes);
    curve.emplace_back(r.complete_time, total);
  }
  return curve;
}

Session::Session(const World& world, VisualPrintServer& server,
                 SessionConfig config)
    : world_(world), server_(server), config_(config) {}

SessionStats Session::run() {
  Rng rng(config_.seed);
  SessionStats stats;
  stats.duration_s = config_.duration_s;

  VisualPrintClient client(config_.client);
  if (config_.mode == OffloadMode::kVisualPrint ||
      config_.mode == OffloadMode::kAllKeypoints) {
    client.install_oracle(server_.oracle_snapshot());
  }

  SimulatedLink link(config_.link, rng.next_u64());

  UserPath path;
  world_.bounds(path.lo, path.hi);
  path.speed = config_.walk_speed_mps;
  path.pan_period = config_.pan_period_s;
  path.pan_amplitude = config_.pan_amplitude_rad;

  const int slots = static_cast<int>(std::ceil(config_.duration_s));
  stats.activity.assign(static_cast<std::size_t>(slots), ActivitySlot{});
  std::vector<double> compute_busy(static_cast<std::size_t>(slots), 0.0);

  auto add_compute = [&](double from, double ms) {
    double remaining = ms / 1e3;
    double t = from;
    while (remaining > 0 && t < config_.duration_s) {
      const auto slot = static_cast<std::size_t>(t);
      const double slot_end = std::floor(t) + 1.0;
      const double chunk = std::min(remaining, slot_end - t);
      compute_busy[slot] += chunk;
      remaining -= chunk;
      t = slot_end;
    }
  };

  const double frame_dt = 1.0 / config_.camera_fps;
  double client_busy_until = 0.0;
  Rng client_rng = rng.fork();

  for (double t = 0; t < config_.duration_s; t += frame_dt) {
    SessionFrame sf;
    sf.capture_time = t;
    sf.true_position = path.position(t);

    // Drop frames captured while the pipeline is still busy with an older
    // frame (the client "only processes extremely recent frames").
    if (client_busy_until > t + config_.client.stale_frame_budget_s) {
      sf.status = FrameResult::Status::kStale;
      stats.frames.push_back(sf);
      continue;
    }

    // Render what the camera sees; pan rate drives motion blur.
    const Camera cam = path.camera(t, config_.intrinsics);
    RenderOptions ro = config_.render;
    const double blur_px =
        std::abs(path.pan_rate(t)) * config_.intrinsics.focal_px() * frame_dt;
    ro.motion_blur_px = blur_px;
    ro.motion_dir = {1.0, 0.0};
    auto rendered = render(world_, cam, ro, client_rng);

    const double start = std::max(t, client_busy_until);
    const bool keypoint_mode = config_.mode == OffloadMode::kVisualPrint ||
                               config_.mode == OffloadMode::kAllKeypoints;

    std::size_t payload = 0;
    std::optional<FingerprintQuery> query;
    std::vector<obs::SpanRecord> client_records;
    {
      // The tracer collects every span the client pipeline opens on this
      // thread; its flattened stage record becomes the frame's latency
      // breakdown. Under VP_OBS=OFF no spans fire and the fallback
      // entries below reproduce the pre-tracer two-stage record.
      obs::FrameTrace trace;
      if (keypoint_mode) {
        // Client pipeline: blur gate -> SIFT -> oracle ranking -> query.
        FrameResult fr = client.process_frame(rendered.image, t, start);
        sf.status = fr.status;
        sf.total_keypoints = fr.total_keypoints;
        sf.selected_keypoints = fr.selected_keypoints;
        sf.stages = trace.stage_timings();
        if (!sf.stages.contains("sift")) sf.stages.add("sift", fr.sift_ms);
        if (!sf.stages.contains("select")) {
          sf.stages.add("select", fr.scoring_ms);
        }
        // Host wall-clock -> modeled phone latency.
        sf.stages.scale(config_.phone_slowdown);
        if (fr.status == FrameResult::Status::kQueued) {
          payload = fr.query->wire_size();
          query = std::move(fr.query);
        }
      } else {
        // Whole-frame offload: no feature extraction on the phone, only the
        // encoder runs (that is the baseline's appeal — and its bandwidth
        // cost). Encode time stands in for phone-side compute, unscaled:
        // phones encode stills/video in hardware, so the CPU slowdown
        // factor that applies to SIFT does not apply here.
        Timer encode_timer;
        {
          VP_OBS_SPAN("encode");
          FrameUpload up;
          up.frame_id = static_cast<std::uint32_t>(stats.frames.size());
          up.capture_time = t;
          if (config_.mode == OffloadMode::kFramePng) {
            up.codec = 0;
            up.payload = png_encode(to_u8(rendered.image));
          } else {
            up.codec = 1;
            up.payload =
                jpeg_encode(to_u8(rendered.image), config_.jpeg_quality);
          }
          payload = up.encode().size();
        }
        sf.status = FrameResult::Status::kQueued;
        sf.stages = trace.stage_timings();
        if (!sf.stages.contains("encode")) {
          sf.stages.add("encode", encode_timer.millis());
        }
      }
      // Copy before the trace closes: the records back the client lane of
      // this frame's stitched trace.
      if (config_.collect_traces) client_records = trace.records();
    }

    if (sf.status == FrameResult::Status::kQueued) {
      const double compute_ms = sf.phone_sift_ms() + sf.phone_scoring_ms();
      add_compute(start, compute_ms);
      client_busy_until = start + compute_ms / 1e3;
      sf.payload_bytes = payload;
      const auto rec = link.submit(client_busy_until, payload);
      // Simulated link stages join the frame's latency breakdown.
      sf.stages.add("queue_wait", (rec.start_time - rec.submit_time) * 1e3);
      sf.stages.add("transfer", (rec.complete_time - rec.start_time) * 1e3);
      stats.uploads.push_back(rec);
      stats.total_upload_bytes += payload;

      if (config_.localize_on_server && query.has_value() &&
          config_.mode == OffloadMode::kVisualPrint) {
        if (config_.collect_traces) {
          // Deterministic per-frame trace context: reruns with
          // the same seed produce identical trace ids.
          const std::uint64_t id = config_.seed ^ (0x7aceULL << 48) ^
                                   (query->frame_id + std::uint64_t{1});
          query->trace_id = id == 0 ? 1 : id;
          query->trace_flags = obs::kTraceSampled;
        }
        // Round-trip through the wire format, as the deployed system
        // would. The format is lossless for everything localization reads
        // (u8 descriptors, pixel coordinates, camera geometry), so results
        // match the direct call; it also exercises the encode/decode
        // stages every real upload pays.
        const Bytes wire_bytes = query->encode();
        std::vector<obs::SpanRecord> server_records;
        LocationResponse resp;
        {
          // Server-side handler trace: wire decode + the localize spans
          // run inline on this thread, mirroring what handle_request
          // echoes to remote clients.
          obs::FrameTrace server_trace;
          const FingerprintQuery delivered =
              FingerprintQuery::decode(wire_bytes);
          Rng server_rng(config_.seed ^ delivered.frame_id);
          resp = server_.localize_query(delivered, server_rng);
          if (config_.collect_traces) server_records = server_trace.records();
        }
        if (resp.found) {
          sf.localized = true;
          sf.estimated_position = resp.position;
          sf.position_error =
              (resp.position - sf.true_position).norm();
        }
        if (config_.collect_traces) {
          // Stitch the three lanes onto the session clock (ms since t=0):
          // client stages phone-scaled from the frame's processing start,
          // link stages straight from the simulated transfer, server
          // stages in real handler ms placed at delivery time.
          obs::StitchedTrace st;
          st.trace_id = query->trace_id;
          st.frame_id = query->frame_id;
          st.place = resp.place;
          st.base_ms = t * 1e3;
          st.client = obs::to_stitched_spans(
              client_records, config_.phone_slowdown, (start - t) * 1e3);
          st.link.push_back({"queue_wait", -1, (rec.submit_time - t) * 1e3,
                             (rec.start_time - rec.submit_time) * 1e3});
          st.link.push_back({"transfer", -1, (rec.start_time - t) * 1e3,
                             (rec.complete_time - rec.start_time) * 1e3});
          st.server = obs::to_stitched_spans(server_records, 1.0,
                                             (rec.complete_time - t) * 1e3);
          stats.traces.push_back(std::move(st));
        }
      }
    }
    stats.frames.push_back(sf);
  }

  // Fold compute and radio busy time into per-second activity slots.
  for (std::size_t s = 0; s < stats.activity.size(); ++s) {
    stats.activity[s].compute_fraction = std::min(1.0, compute_busy[s]);
  }
  for (const auto& rec : stats.uploads) {
    double t0 = rec.start_time;
    const double t1 = std::min(rec.complete_time,
                               static_cast<double>(stats.activity.size()));
    while (t0 < t1) {
      const auto slot = static_cast<std::size_t>(t0);
      if (slot >= stats.activity.size()) break;
      const double slot_end = std::floor(t0) + 1.0;
      const double chunk = std::min(t1, slot_end) - t0;
      stats.activity[slot].tx_fraction =
          std::min(1.0, stats.activity[slot].tx_fraction + chunk);
      t0 = slot_end;
    }
  }
  return stats;
}

}  // namespace vp
