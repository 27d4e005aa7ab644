#include "scene/world.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace vp {

std::size_t World::add_texture(ImageF texture) {
  VP_REQUIRE(!texture.empty(), "add_texture: empty texture");
  textures_.push_back(std::move(texture));
  return textures_.size() - 1;
}

void World::add_quad(TexturedQuad quad) {
  VP_REQUIRE(quad.texture < textures_.size(),
             "add_quad: texture index out of range");
  VP_REQUIRE(quad.area() > 1e-12, "add_quad: degenerate quad");
  QuadRayTerms terms;
  terms.origin = quad.origin;
  terms.edge_u = quad.edge_u;
  terms.edge_v = quad.edge_v;
  terms.n = quad.edge_u.cross(quad.edge_v);
  terms.unit_n = quad.normal();
  terms.uu = quad.edge_u.norm2();
  terms.vv = quad.edge_v.norm2();
  ray_terms_.push_back(terms);
  quads_.push_back(std::move(quad));
}

void World::add_surface(Vec3 origin, Vec3 edge_u, Vec3 edge_v, ImageF texture,
                        int scene_id, std::string name) {
  TexturedQuad q;
  q.origin = origin;
  q.edge_u = edge_u;
  q.edge_v = edge_v;
  q.texture = add_texture(std::move(texture));
  q.scene_id = scene_id;
  q.name = std::move(name);
  add_quad(std::move(q));
}

int World::scene_count() const noexcept {
  int max_id = -1;
  for (const auto& q : quads_) max_id = std::max(max_id, q.scene_id);
  return max_id + 1;
}

void World::bounds(Vec3& lo, Vec3& hi) const {
  lo = {std::numeric_limits<double>::max(), std::numeric_limits<double>::max(),
        std::numeric_limits<double>::max()};
  hi = {std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::lowest()};
  auto grow = [&](Vec3 p) {
    lo = {std::min(lo.x, p.x), std::min(lo.y, p.y), std::min(lo.z, p.z)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y), std::max(hi.z, p.z)};
  };
  for (const auto& q : quads_) {
    grow(q.origin);
    grow(q.origin + q.edge_u);
    grow(q.origin + q.edge_v);
    grow(q.origin + q.edge_u + q.edge_v);
  }
  if (quads_.empty()) lo = hi = Vec3{};
}

RayCaster::RayCaster(const World& world, Vec3 origin)
    : terms_(world.ray_terms()), origin_(origin) {
  numerators_.reserve(terms_.size());
  for (const auto& q : terms_) {
    numerators_.push_back((q.origin - origin).dot(q.n));
  }
}

std::optional<RayHit> RayCaster::cast(Vec3 dir, double t_min) const {
  std::optional<RayHit> best;
  for (std::size_t qi = 0; qi < terms_.size(); ++qi) {
    const auto& q = terms_[qi];
    const double denom = dir.dot(q.n);
    if (std::abs(denom) < 1e-12) continue;  // parallel
    const double t = numerators_[qi] / denom;
    if (t <= t_min) continue;
    if (best && t >= best->t) continue;
    const Vec3 p = origin_ + dir * t;
    const Vec3 rel = p - q.origin;
    // Builders keep edges orthogonal, so the local coordinates decouple.
    const double u = rel.dot(q.edge_u) / q.uu;
    const double v = rel.dot(q.edge_v) / q.vv;
    if (u < 0 || u > 1 || v < 0 || v > 1) continue;
    best = RayHit{t, qi, u, v};
  }
  return best;
}

std::optional<RayHit> raycast(const World& world, Vec3 origin, Vec3 dir,
                              double t_min) {
  return RayCaster(world, origin).cast(dir, t_min);
}

}  // namespace vp
