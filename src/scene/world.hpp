// 3-D indoor world model: textured rectangular quads (walls, floors,
// ceilings, paintings, doors, shelves) positioned in meters. Quads carry a
// scene id so experiments have ground truth for "this frame captures scene
// k" (Fig. 13) and for keypoint 3-D positions (localization figures).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "geometry/camera.hpp"
#include "geometry/vec.hpp"
#include "imaging/image.hpp"

namespace vp {

inline constexpr int kBackgroundScene = -1;

/// A rectangle in 3-D: corners origin, origin+u, origin+v, origin+u+v.
/// Builders keep u ⟂ v; texture coordinates are affine in (u, v).
struct TexturedQuad {
  Vec3 origin;
  Vec3 edge_u;
  Vec3 edge_v;
  std::size_t texture = 0;          ///< index into World's texture pool
  int scene_id = kBackgroundScene;  ///< ground-truth scene label
  std::string name;

  Vec3 normal() const noexcept { return edge_u.cross(edge_v).normalized(); }
  Vec3 center() const noexcept {
    return origin + edge_u * 0.5 + edge_v * 0.5;
  }
  double area() const noexcept {
    return edge_u.cross(edge_v).norm();
  }
};

/// The ray-independent terms of one quad's intersection test, computed
/// once when the quad is added and shared by every ray.
struct QuadRayTerms {
  Vec3 origin;
  Vec3 edge_u;
  Vec3 edge_v;
  Vec3 n;           ///< edge_u × edge_v (unnormalized plane normal)
  Vec3 unit_n;      ///< n.normalized(), i.e. TexturedQuad::normal()
  double uu = 0;    ///< |edge_u|²
  double vv = 0;    ///< |edge_v|²
};

class World {
 public:
  /// Registers a texture; returns its index.
  std::size_t add_texture(ImageF texture);

  /// Adds a quad referencing a registered texture index.
  void add_quad(TexturedQuad quad);

  /// Convenience: register texture and quad together.
  void add_surface(Vec3 origin, Vec3 edge_u, Vec3 edge_v, ImageF texture,
                   int scene_id = kBackgroundScene, std::string name = {});

  const std::vector<TexturedQuad>& quads() const noexcept { return quads_; }
  /// Cached intersection terms, parallel to quads().
  const std::vector<QuadRayTerms>& ray_terms() const noexcept {
    return ray_terms_;
  }
  const ImageF& texture(std::size_t id) const { return textures_.at(id); }
  std::size_t texture_count() const noexcept { return textures_.size(); }

  /// Highest scene id present plus one (0 when only background).
  int scene_count() const noexcept;

  /// Axis-aligned bounds of all quad corners.
  void bounds(Vec3& lo, Vec3& hi) const;

 private:
  std::vector<ImageF> textures_;
  std::vector<TexturedQuad> quads_;
  std::vector<QuadRayTerms> ray_terms_;
};

/// First quad intersection along a ray.
struct RayHit {
  double t = 0;           ///< distance along the (unit) ray
  std::size_t quad = 0;   ///< index into world.quads()
  double u = 0, v = 0;    ///< texture coordinates in [0,1]
};

/// Nearest-hit caster for rays leaving one origin (a camera centre). It
/// holds each quad's origin-dependent plane numerator (q.origin − origin)·n,
/// so a frame's rays share it; the per-quad terms come from the world.
/// Holds a reference to `world`, which must outlive it and stay unmodified.
class RayCaster {
 public:
  RayCaster(const World& world, Vec3 origin);

  /// Cast `origin + t*dir` against every quad; nearest hit with t > t_min.
  std::optional<RayHit> cast(Vec3 dir, double t_min = 1e-6) const;

 private:
  const std::vector<QuadRayTerms>& terms_;
  Vec3 origin_;
  std::vector<double> numerators_;  ///< (q.origin − origin)·n per quad
};

/// Cast `origin + t*dir` against every quad; nearest hit with t > t_min.
/// One-ray shorthand for RayCaster(world, origin).cast(dir, t_min).
std::optional<RayHit> raycast(const World& world, Vec3 origin, Vec3 dir,
                              double t_min = 1e-6);

}  // namespace vp
