#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>

#include "imaging/filters.hpp"
#include "scene/environments.hpp"
#include "scene/render.hpp"
#include "scene/texture.hpp"
#include "scene/world.hpp"

namespace vp {
namespace {

TEST(Texture, DimensionsAndRange) {
  Rng rng(1);
  for (const ImageF& tex :
       {noise_texture(64, 48, 3, 20, 230, rng), painting_texture(64, 48, rng),
        checkerboard_texture(64, 48, 8, 120, 180, rng),
        ceiling_texture(64, 48, 12, rng), wood_texture(64, 48, rng),
        door_texture(64, 96, 42, rng), nameplate_texture(64, 24, rng),
        shelf_texture(64, 48, 1, rng), wall_texture(64, 48, 200, rng)}) {
    EXPECT_EQ(tex.width(), 64);
    for (const float p : tex.pixels()) {
      EXPECT_GE(p, 0.0f);
      EXPECT_LE(p, 255.0f);
    }
  }
}

TEST(Texture, PaintingsAreDistinct) {
  Rng rng(2);
  const ImageF a = painting_texture(64, 64, rng);
  const ImageF b = painting_texture(64, 64, rng);
  double diff = 0;
  for (std::size_t i = 0; i < a.pixels().size(); ++i) {
    diff += std::abs(a.pixels()[i] - b.pixels()[i]);
  }
  EXPECT_GT(diff / a.pixels().size(), 10.0);
}

TEST(Texture, DoorKnobsIdenticalAcrossDoors) {
  Rng rng1(3), rng2(4);  // different wood grain
  const ImageF a = door_texture(110, 240, 42, rng1);
  const ImageF b = door_texture(110, 240, 42, rng2);
  // The knob area (around x=5w/6, y=h/2) should be pixel-identical.
  const int kx = 110 * 5 / 6, ky = 120, kr = 110 / 16;
  for (int dy = -kr + 2; dy <= kr - 2; ++dy) {
    for (int dx = -kr + 2; dx <= kr - 2; ++dx) {
      if (dx * dx + dy * dy <= (kr - 2) * (kr - 2)) {
        EXPECT_EQ(a(kx + dx, ky + dy), b(kx + dx, ky + dy));
      }
    }
  }
}

TEST(Texture, CheckerboardAlternates) {
  Rng rng(5);
  const ImageF t = checkerboard_texture(64, 64, 16, 100, 200, rng);
  // Centers of adjacent tiles differ by ~100 gray levels.
  EXPECT_GT(std::abs(t(8, 8) - t(24, 8)), 60.0f);
}

TEST(World, AddAndBounds) {
  World w;
  Rng rng(6);
  w.add_surface({0, 0, 0}, {10, 0, 0}, {0, 0, 3},
                wall_texture(32, 16, 200, rng));
  w.add_surface({0, 5, 0}, {10, 0, 0}, {0, 0, 3},
                wall_texture(32, 16, 200, rng), 2, "scene2");
  Vec3 lo, hi;
  w.bounds(lo, hi);
  EXPECT_DOUBLE_EQ(lo.x, 0);
  EXPECT_DOUBLE_EQ(hi.x, 10);
  EXPECT_DOUBLE_EQ(hi.y, 5);
  EXPECT_DOUBLE_EQ(hi.z, 3);
  EXPECT_EQ(w.scene_count(), 3);  // ids 0..2 possible
}

TEST(World, RejectsDegenerateQuad) {
  World w;
  Rng rng(7);
  const auto tex = w.add_texture(wall_texture(8, 8, 100, rng));
  TexturedQuad q;
  q.edge_u = {1, 0, 0};
  q.edge_v = {2, 0, 0};  // parallel edges -> zero area
  q.texture = tex;
  EXPECT_THROW(w.add_quad(q), InvalidArgument);
}

TEST(Raycast, HitsFrontQuad) {
  World w;
  Rng rng(8);
  w.add_surface({-1, 2, -1}, {2, 0, 0}, {0, 0, 2},
                wall_texture(16, 16, 150, rng));
  w.add_surface({-1, 5, -1}, {2, 0, 0}, {0, 0, 2},
                wall_texture(16, 16, 150, rng));
  const auto hit = raycast(w, {0, 0, 0}, {0, 1, 0});
  ASSERT_TRUE(hit.has_value());
  EXPECT_NEAR(hit->t, 2.0, 1e-9);
  EXPECT_EQ(hit->quad, 0u);  // nearest, not the one behind
  EXPECT_NEAR(hit->u, 0.5, 1e-9);
  EXPECT_NEAR(hit->v, 0.5, 1e-9);
}

TEST(Raycast, MissesOutsideQuad) {
  World w;
  Rng rng(9);
  w.add_surface({-1, 2, -1}, {2, 0, 0}, {0, 0, 2},
                wall_texture(16, 16, 150, rng));
  EXPECT_FALSE(raycast(w, {10, 0, 0}, {0, 1, 0}).has_value());
  EXPECT_FALSE(raycast(w, {0, 0, 0}, {0, -1, 0}).has_value());  // behind
}

// --- Reference raycast/render --------------------------------------------
// The loops as they were before the per-quad terms were cached and the
// plane numerator and focal length hoisted per frame: every term is
// recomputed per ray. The cached caster must reproduce them bit for bit.

std::optional<RayHit> reference_raycast(const World& world, Vec3 origin,
                                        Vec3 dir, double t_min = 1e-6) {
  std::optional<RayHit> best;
  for (std::size_t qi = 0; qi < world.quads().size(); ++qi) {
    const auto& q = world.quads()[qi];
    const Vec3 n = q.edge_u.cross(q.edge_v);
    const double denom = dir.dot(n);
    if (std::abs(denom) < 1e-12) continue;  // parallel
    const double t = (q.origin - origin).dot(n) / denom;
    if (t <= t_min) continue;
    if (best && t >= best->t) continue;
    const Vec3 p = origin + dir * t;
    const Vec3 rel = p - q.origin;
    const double uu = q.edge_u.norm2();
    const double vv = q.edge_v.norm2();
    const double u = rel.dot(q.edge_u) / uu;
    const double v = rel.dot(q.edge_v) / vv;
    if (u < 0 || u > 1 || v < 0 || v > 1) continue;
    best = RayHit{t, qi, u, v};
  }
  return best;
}

float reference_sample(const ImageF& tex, double u, double v) {
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

RenderOutput reference_render(const World& world, const Camera& camera,
                              const RenderOptions& options, Rng& rng) {
  const auto& cam = camera.intrinsics;
  RenderOutput out;
  out.image = ImageF(cam.width, cam.height, 1, options.background);
  const bool depth = options.want_depth;
  const int dw = depth ? std::max(1, cam.width / options.depth_downscale) : 0;
  const int dh = depth ? std::max(1, cam.height / options.depth_downscale) : 0;
  if (depth) out.depth = ImageF(dw, dh, 1, 0.0f);
  const Vec3 origin = camera.pose.translation;
  for (int y = 0; y < cam.height; ++y) {
    for (int x = 0; x < cam.width; ++x) {
      const Vec3 dir = camera.world_ray({x + 0.5, y + 0.5});
      const auto hit = reference_raycast(world, origin, dir);
      if (!hit) continue;
      const auto& quad = world.quads()[hit->quad];
      const float albedo =
          reference_sample(world.texture(quad.texture), hit->u, hit->v);
      const double facing = std::abs(dir.dot(quad.normal()));
      const double light = options.ambient + (1.0 - options.ambient) * facing;
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
        const Vec3 dir = camera.world_ray(px);
        if (const auto hit = reference_raycast(world, origin, dir)) {
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

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

/// Same hit or same miss, compared bit for bit.
void expect_same_hit(const std::optional<RayHit>& got,
                     const std::optional<RayHit>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!want) return;
  EXPECT_EQ(got->quad, want->quad);
  EXPECT_EQ(bits(got->t), bits(want->t));
  EXPECT_EQ(bits(got->u), bits(want->u));
  EXPECT_EQ(bits(got->v), bits(want->v));
}

void expect_same_pixels(const ImageF& got, const ImageF& want) {
  ASSERT_EQ(got.width(), want.width());
  ASSERT_EQ(got.height(), want.height());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < want.pixels().size(); ++i) {
    if (std::bit_cast<std::uint32_t>(got.pixels()[i]) !=
        std::bit_cast<std::uint32_t>(want.pixels()[i])) {
      ++differing;
    }
  }
  EXPECT_EQ(differing, 0u);
}

TEST(RayCaster, MatchesReferenceOnRandomRays) {
  // Random oblique quads plus axis-aligned ones with exactly representable
  // corners, so rays can land exactly on u or v = 0 or 1.
  World w;
  Rng rng(31);
  const auto tex = [&] { return wall_texture(8, 8, 150, rng); };
  w.add_surface({0, 4, 0}, {2, 0, 0}, {0, 0, 2}, tex());
  w.add_surface({0, 4, 0}, {2, 0, 0}, {0, 0, 2}, tex());  // coincident twin
  w.add_surface({-3, -1, -1}, {0, 2, 0}, {0, 0, 4}, tex());
  w.add_surface({-2, -2, -1}, {4, 0, 0}, {0, 4, 0}, tex());  // floor z = -1
  for (int i = 0; i < 12; ++i) {
    const Vec3 u{rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-1, 1)};
    Vec3 v = u.cross(Vec3{rng.uniform(-1, 1), rng.uniform(-1, 1), 1});
    v = v.normalized() * rng.uniform(0.5, 3);
    w.add_surface({rng.uniform(-6, 6), rng.uniform(-6, 6), rng.uniform(-3, 3)},
                  u, v, tex());
  }

  const Vec3 origin{1, 0, 1};
  for (int i = 0; i < 4000; ++i) {
    const Vec3 dir = Vec3{rng.uniform(-1, 1), rng.uniform(-1, 1),
                          rng.uniform(-1, 1)}.normalized();
    expect_same_hit(raycast(w, origin, dir), reference_raycast(w, origin, dir));
  }

  const RayCaster caster(w, origin);
  std::vector<Vec3> dirs = {
      {1, 0, 0}, {0, 0, 1},  // parallel to quads 0/1 and to the floor
      {-1, 4, -1}, {1, 4, -1}, {-1, 4, 1}, {1, 4, 1},  // corners of quad 0
      {0, 4, -1}, {0, 4, 1}, {-1, 4, 0}, {1, 4, 0},    // its edge midpoints
      {0, 1, 0},                                       // its centre
      {-3, -1, -2}, {-3, -2, -2}, {1, 2, -2}, {1, -2, -2},  // floor rim
  };
  for (const Vec3& d : dirs) {
    for (const Vec3 dir : {d, d.normalized()}) {
      expect_same_hit(raycast(w, origin, dir),
                      reference_raycast(w, origin, dir));
      expect_same_hit(caster.cast(dir), reference_raycast(w, origin, dir));
    }
  }
  // The twin quads tie on t: the lower index must win, as before.
  const auto twin = caster.cast({0, 1, 0});
  ASSERT_TRUE(twin.has_value());
  EXPECT_EQ(twin->quad, 0u);
  // t_min ties: quad 0 sits exactly at t = 4 along +y, the floor at t = 2
  // along -z; a hit at exactly t_min is rejected.
  for (const double t_min : {0.0, 1e-6, 2.0, 4.0, 4.5}) {
    for (const Vec3 dir : {Vec3{0, 1, 0}, Vec3{0, 0, -1}, Vec3{0, 4, -1}}) {
      expect_same_hit(caster.cast(dir, t_min),
                      reference_raycast(w, origin, dir, t_min));
    }
  }
}

TEST(Render, MatchesReferenceOnOfficeFrames) {
  Rng world_rng(2016);
  const World w = build_office(
      RoomConfig{.width = 18, .depth = 10, .height = 3, .num_scenes = 6},
      world_rng);
  const CameraIntrinsics intr{160, 120, 1.15192};
  RenderOptions opts;
  opts.want_depth = true;
  const struct {
    Vec3 from, to;
    double blur;
  } views[] = {{{2, 2, 1.5}, {10, 8, 1.2}, 0.0},
               {{15, 5, 1.4}, {1, 5, 1.7}, 3.0},
               {{9, 1, 1.6}, {9, 9, 0.4}, 0.0},
               {{4, 8, 1.5}, {4, 2, 2.9}, 1.5}};
  for (const auto& view : views) {
    const Camera cam = look_at(intr, view.from, view.to);
    opts.motion_blur_px = view.blur;
    Rng a(7), b(7);
    const RenderOutput got = render(w, cam, opts, a);
    const RenderOutput want = reference_render(w, cam, opts, b);
    expect_same_pixels(got.image, want.image);
    expect_same_pixels(got.depth, want.depth);
  }
}

TEST(LookAt, TargetProjectsToImageCenter) {
  CameraIntrinsics intr{640, 480, 1.2};
  const Vec3 pos{3, 7, 1.5};
  const Vec3 target{10, 2, 1.0};
  const Camera cam = look_at(intr, pos, target);
  const auto px = cam.project_world(target);
  ASSERT_TRUE(px.has_value());
  EXPECT_NEAR(px->x, 320, 1.0);
  EXPECT_NEAR(px->y, 240, 1.0);
}

TEST(LookAt, UprightImage) {
  // A point above the target should project above the center (smaller y).
  CameraIntrinsics intr{640, 480, 1.2};
  const Camera cam = look_at(intr, {0, 0, 1.5}, {5, 0, 1.5});
  const auto above = cam.project_world({5, 0, 2.5});
  ASSERT_TRUE(above.has_value());
  EXPECT_LT(above->y, 240);
}

TEST(Render, ProducesImageAndDepth) {
  Rng rng(10);
  GalleryConfig gc;
  gc.num_scenes = 4;
  gc.hall_length = 20;
  const World w = build_gallery(gc, rng);
  const auto sq = scene_quads(w);
  CameraIntrinsics intr{160, 120, 1.2};
  const Camera cam = view_of_quad(w, sq[0], intr, 0, 2.0, rng);
  RenderOptions ro;
  ro.want_depth = true;
  const auto out = render(w, cam, ro, rng);
  EXPECT_EQ(out.image.width(), 160);
  EXPECT_EQ(out.depth.width(), 40);  // downscale 4
  // Looking at a wall from 2 m: central depth should be around 2 m.
  EXPECT_NEAR(out.depth(20, 15), 2.0, 0.8);
  // The image should have nontrivial content.
  double lo = 255, hi = 0;
  for (float p : out.image.pixels()) {
    lo = std::min<double>(lo, p);
    hi = std::max<double>(hi, p);
  }
  EXPECT_GT(hi - lo, 40.0);
}

TEST(Render, DepthMatchesRaycast) {
  Rng rng(11);
  World w;
  w.add_surface({-5, 4, -5}, {10, 0, 0}, {0, 0, 10},
                wall_texture(32, 32, 150, rng));
  CameraIntrinsics intr{64, 48, 1.0};
  const Camera cam = look_at(intr, {0, 0, 0}, {0, 4, 0});
  RenderOptions ro;
  ro.want_depth = true;
  ro.noise_stddev = 0;
  const auto out = render(w, cam, ro, rng);
  const Vec2 px{32.5, 24.5};
  const auto wp = world_point_at_pixel(w, cam, px);
  ASSERT_TRUE(wp.has_value());
  EXPECT_NEAR(wp->y, 4.0, 1e-6);
}

TEST(Render, VisibleScenesDetected) {
  Rng rng(12);
  GalleryConfig gc;
  gc.num_scenes = 6;
  gc.hall_length = 30;
  const World w = build_gallery(gc, rng);
  const auto sq = scene_quads(w);
  CameraIntrinsics intr{320, 240, 1.2};
  for (int s : {0, 3, 5}) {
    const Camera cam =
        view_of_quad(w, sq[static_cast<std::size_t>(s)], intr, 5.0, 1.8, rng);
    const auto vis = visible_scene_ids(w, cam);
    EXPECT_TRUE(std::find(vis.begin(), vis.end(), s) != vis.end())
        << "scene " << s << " not visible from its own viewpoint";
  }
}

TEST(Environments, GalleryHasRequestedScenes) {
  Rng rng(13);
  GalleryConfig gc;
  gc.num_scenes = 10;
  const World w = build_gallery(gc, rng);
  EXPECT_EQ(w.scene_count(), 10);
  const auto sq = scene_quads(w);
  ASSERT_EQ(sq.size(), 10u);
  for (auto qi : sq) EXPECT_LT(qi, w.quads().size());
}

TEST(Environments, AllPresetsBuild) {
  Rng rng(14);
  RoomConfig rc;
  rc.width = 30;
  rc.depth = 12;
  rc.num_scenes = 5;
  for (const World& w :
       {build_office(rc, rng), build_cafeteria(rc, rng), build_grocery(rc, rng)}) {
    EXPECT_GT(w.quads().size(), 6u);
    EXPECT_GE(w.scene_count(), 1);
    Vec3 lo, hi;
    w.bounds(lo, hi);
    EXPECT_GT(hi.x - lo.x, 10.0);
  }
}

}  // namespace
}  // namespace vp
