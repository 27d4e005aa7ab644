#include "slam/wardrive.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace vp {
namespace {

/// Lawnmower waypoints covering the floor rectangle, respecting margins.
std::vector<Vec3> plan_path(const World& world, const WardriveConfig& cfg) {
  Vec3 lo, hi;
  world.bounds(lo, hi);
  const double x0 = lo.x + cfg.margin;
  const double x1 = hi.x - cfg.margin;
  const double y0 = lo.y + cfg.margin;
  const double y1 = hi.y - cfg.margin;
  VP_REQUIRE(x1 > x0 && y1 > y0, "world too small for wardriving margins");

  std::vector<Vec3> stops;
  bool forward = true;
  for (double y = y0; y <= y1 + 1e-9; y += cfg.lane_spacing) {
    std::vector<double> xs;
    for (double x = x0; x <= x1 + 1e-9; x += cfg.stop_spacing) xs.push_back(x);
    if (!forward) std::reverse(xs.begin(), xs.end());
    for (double x : xs) stops.push_back({x, y, cfg.eye_height});
    forward = !forward;
  }
  return stops;
}

}  // namespace

std::vector<Snapshot> wardrive(const World& world, const WardriveConfig& cfg,
                               Rng& rng) {
  VP_OBS_SPAN("wardrive.capture");
  const auto stops = plan_path(world, cfg);
  std::vector<Snapshot> snaps;
  snaps.reserve(stops.size() * static_cast<std::size_t>(cfg.views_per_stop));

  RenderOptions render_opts = cfg.render;
  render_opts.want_depth = true;

  // Integrating drift state (random walk in position and heading).
  Vec3 drift_pos{};
  double drift_yaw = 0.0;
  Vec3 prev_stop = stops.empty() ? Vec3{} : stops.front();

  for (const Vec3& stop : stops) {
    const double walked = (stop - prev_stop).norm();
    prev_stop = stop;
    const double s = std::sqrt(std::max(walked, 1e-9));
    drift_pos.x += rng.gaussian(0, cfg.drift.pos_per_meter * s);
    drift_pos.y += rng.gaussian(0, cfg.drift.pos_per_meter * s);
    drift_pos.z += rng.gaussian(0, cfg.drift.pos_per_meter * s * 0.3);
    drift_yaw += rng.gaussian(0, cfg.drift.yaw_per_meter * s);

    for (int v = 0; v < cfg.views_per_stop; ++v) {
      // Alternate looking toward the two side walls, with jitter, the way
      // a person sweeps the device while walking. Every third view looks
      // along the walking direction — those views see the corridor end
      // walls, which is what pins the along-corridor axis during ICP map
      // merging (side-wall views alone leave it unconstrained).
      double base_yaw;
      if (v % 3 == 2) {
        base_yaw = (snaps.size() % 2 == 0 ? 0.0 : std::numbers::pi) +
                   rng.uniform(-0.3, 0.3);
      } else {
        base_yaw = (v % 2 == 0 ? 0.5 : -0.5) * std::numbers::pi +
                   rng.uniform(-0.45, 0.45);
      }
      const Vec3 look_dir{std::cos(base_yaw), std::sin(base_yaw),
                          rng.uniform(-0.12, 0.12)};
      const Camera true_cam =
          look_at(cfg.intrinsics, stop, stop + look_dir * 3.0);

      Snapshot snap;
      snap.true_pose = true_cam.pose;
      snap.intrinsics = cfg.intrinsics;
      snap.depth_downscale = render_opts.depth_downscale;

      auto out = render(world, true_cam, render_opts, rng);
      snap.image = std::move(out.image);
      snap.depth = std::move(out.depth);

      // Reported pose = truth corrupted by accumulated drift plus
      // per-snapshot measurement jitter, with the drift rotation applied
      // about the vertical axis (heading drift).
      const double yaw_err =
          drift_yaw + rng.gaussian(0, cfg.drift.yaw_jitter);
      const Mat3 r_err = rotation_zyx(yaw_err, 0, 0);
      snap.reported_pose.rotation = r_err * snap.true_pose.rotation;
      snap.reported_pose.translation =
          r_err * snap.true_pose.translation + drift_pos +
          Vec3{rng.gaussian(0, cfg.drift.pos_jitter),
               rng.gaussian(0, cfg.drift.pos_jitter),
               rng.gaussian(0, cfg.drift.pos_jitter * 0.3)};
      snaps.push_back(std::move(snap));
    }
  }
  return snaps;
}

std::optional<Vec3> depth_to_world(const Snapshot& snap, const Pose& pose,
                                   int dx, int dy) {
  VP_REQUIRE(snap.depth.in_bounds(dx, dy), "depth pixel out of range");
  const float t = snap.depth(dx, dy);
  if (t <= 0.0f) return std::nullopt;
  const Vec2 pixel{(dx + 0.5) * snap.depth_downscale,
                   (dy + 0.5) * snap.depth_downscale};
  const Vec3 body_ray = snap.intrinsics.pixel_ray(pixel);
  return pose.to_world(body_ray * static_cast<double>(t));
}

std::vector<Vec3> snapshot_point_cloud(const Snapshot& snap, const Pose& pose,
                                       int stride) {
  VP_REQUIRE(stride >= 1, "stride must be >= 1");
  std::vector<Vec3> cloud;
  for (int y = 0; y < snap.depth.height(); y += stride) {
    for (int x = 0; x < snap.depth.width(); x += stride) {
      if (auto p = depth_to_world(snap, pose, x, y)) cloud.push_back(*p);
    }
  }
  return cloud;
}

}  // namespace vp
