#include "scene/render.hpp"

#include <algorithm>
#include <cmath>

#include "imaging/filters.hpp"
#include "util/error.hpp"

namespace vp {
namespace {

float sample_texture(const ImageF& tex, double u, double v) {
  // Bilinear sample with clamped edges; (u,v) in [0,1].
  const double fx = u * (tex.width() - 1);
  const double fy = v * (tex.height() - 1);
  const int x0 = static_cast<int>(std::floor(fx));
  const int y0 = static_cast<int>(std::floor(fy));
  const float tx = static_cast<float>(fx - x0);
  const float ty = static_cast<float>(fy - y0);
  const float p00 = tex.at_clamped(x0, y0);
  const float p10 = tex.at_clamped(x0 + 1, y0);
  const float p01 = tex.at_clamped(x0, y0 + 1);
  const float p11 = tex.at_clamped(x0 + 1, y0 + 1);
  return (1 - ty) * ((1 - tx) * p00 + tx * p10) +
         ty * ((1 - tx) * p01 + tx * p11);
}

}  // namespace

RenderOutput render(const World& world, const Camera& camera,
                    const RenderOptions& options, Rng& rng) {
  const auto& cam = camera.intrinsics;
  VP_REQUIRE(cam.width > 0 && cam.height > 0, "render: empty viewport");

  RenderOutput out;
  out.image = ImageF(cam.width, cam.height, 1, options.background);
  const bool depth = options.want_depth;
  const int dw = depth ? std::max(1, cam.width / options.depth_downscale) : 0;
  const int dh = depth ? std::max(1, cam.height / options.depth_downscale) : 0;
  if (depth) out.depth = ImageF(dw, dh, 1, 0.0f);

  // One caster and one focal length per frame: every ray leaves the camera
  // centre, so the per-quad plane numerators and the tan are shared.
  const RayCaster caster(world, camera.pose.translation);
  const double focal = cam.focal_px();
  for (int y = 0; y < cam.height; ++y) {
    for (int x = 0; x < cam.width; ++x) {
      const Vec3 dir = camera.world_ray({x + 0.5, y + 0.5}, focal);
      const auto hit = caster.cast(dir);
      if (!hit) continue;
      const auto& quad = world.quads()[hit->quad];
      const float albedo =
          sample_texture(world.texture(quad.texture), hit->u, hit->v);
      // Simple lighting: ambient plus distance falloff, plus a grazing-angle
      // dimming so oblique surfaces shade like real walls do.
      const double facing =
          std::abs(dir.dot(world.ray_terms()[hit->quad].unit_n));
      const double light =
          options.ambient + (1.0 - options.ambient) * facing;
      const double falloff =
          1.0 / (1.0 + options.distance_falloff * hit->t * hit->t);
      out.image(x, y) = static_cast<float>(
          std::clamp(albedo * light * falloff, 0.0, 255.0));
    }
  }

  if (depth) {
    for (int y = 0; y < dh; ++y) {
      for (int x = 0; x < dw; ++x) {
        const Vec2 px{(x + 0.5) * options.depth_downscale,
                      (y + 0.5) * options.depth_downscale};
        const Vec3 dir = camera.world_ray(px, focal);
        if (const auto hit = caster.cast(dir)) {
          out.depth(x, y) = static_cast<float>(hit->t);
        }
      }
    }
  }

  if (options.motion_blur_px >= 1.0) {
    out.image = motion_blur(out.image, options.motion_dir.x,
                            options.motion_dir.y, options.motion_blur_px);
  }
  if (options.noise_stddev > 0) {
    add_gaussian_noise(out.image, options.noise_stddev, rng);
  }
  return out;
}

std::vector<int> visible_scene_ids(const World& world, const Camera& camera,
                                   std::size_t min_pixels) {
  // Sample a 5x5 grid on each labeled quad; count samples that project into
  // the frame AND win the occlusion ray test. Estimate covered pixels from
  // the projected footprint of the winning samples.
  std::vector<int> visible;
  const Vec3 origin = camera.pose.translation;
  const RayCaster caster(world, origin);
  for (std::size_t qi = 0; qi < world.quads().size(); ++qi) {
    const auto& q = world.quads()[qi];
    if (q.scene_id == kBackgroundScene) continue;

    int hits = 0;
    Vec2 lo{1e18, 1e18}, hi{-1e18, -1e18};
    constexpr int kGrid = 5;
    for (int a = 0; a < kGrid; ++a) {
      for (int b = 0; b < kGrid; ++b) {
        const double ua = (a + 0.5) / kGrid;
        const double vb = (b + 0.5) / kGrid;
        const Vec3 p = q.origin + q.edge_u * ua + q.edge_v * vb;
        const auto px = camera.project_world(p);
        if (!px) continue;
        const Vec3 dir = (p - origin).normalized();
        const auto hit = caster.cast(dir);
        if (!hit || hit->quad != qi) continue;  // occluded
        ++hits;
        lo.x = std::min(lo.x, px->x);
        lo.y = std::min(lo.y, px->y);
        hi.x = std::max(hi.x, px->x);
        hi.y = std::max(hi.y, px->y);
      }
    }
    if (hits < 3) continue;
    const double footprint = std::max(0.0, hi.x - lo.x) *
                             std::max(0.0, hi.y - lo.y) *
                             (static_cast<double>(hits) / (kGrid * kGrid));
    if (footprint >= static_cast<double>(min_pixels)) {
      visible.push_back(q.scene_id);
    }
  }
  std::sort(visible.begin(), visible.end());
  visible.erase(std::unique(visible.begin(), visible.end()), visible.end());
  return visible;
}

std::optional<Vec3> world_point_at_pixel(const World& world,
                                         const Camera& camera, Vec2 pixel) {
  const Vec3 dir = camera.world_ray(pixel);
  const auto hit = raycast(world, camera.pose.translation, dir);
  if (!hit) return std::nullopt;
  return camera.pose.translation + dir * hit->t;
}

Camera look_at(const CameraIntrinsics& intrinsics, Vec3 position, Vec3 target,
               double roll) {
  // World is Z-up. Camera body: +Z forward, +X right, +Y down.
  // Right-handed basis: right = forward x up, down = forward x right,
  // which satisfies right x down = forward.
  const Vec3 forward = (target - position).normalized();
  VP_REQUIRE(forward.norm() > 0.5, "look_at: position equals target");
  const Vec3 world_up{0, 0, 1};
  Vec3 r = forward.cross(world_up);
  if (r.norm() < 1e-9) {
    // Looking straight up/down; pick an arbitrary horizontal right.
    r = Vec3{0, -1, 0};
  }
  r = r.normalized();
  Vec3 d = forward.cross(r);

  if (std::abs(roll) > 1e-12) {
    // Rotate right/down about the forward axis (Rodrigues).
    auto rotate_about = [&](Vec3 v) {
      const double c = std::cos(roll), s = std::sin(roll);
      return v * c + forward.cross(v) * s + forward * (forward.dot(v) * (1 - c));
    };
    r = rotate_about(r);
    d = rotate_about(d);
  }

  Camera camera;
  camera.intrinsics = intrinsics;
  camera.pose.translation = position;
  camera.pose.rotation.m[0][0] = r.x;
  camera.pose.rotation.m[1][0] = r.y;
  camera.pose.rotation.m[2][0] = r.z;
  camera.pose.rotation.m[0][1] = d.x;
  camera.pose.rotation.m[1][1] = d.y;
  camera.pose.rotation.m[2][1] = d.z;
  camera.pose.rotation.m[0][2] = forward.x;
  camera.pose.rotation.m[1][2] = forward.y;
  camera.pose.rotation.m[2][2] = forward.z;
  return camera;
}

}  // namespace vp
