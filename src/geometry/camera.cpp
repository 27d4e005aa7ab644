#include "geometry/camera.hpp"

namespace vp {

double CameraIntrinsics::fov_v() const noexcept {
  // tan(fov_v/2) = (h/2) / f where f is shared with the horizontal axis.
  const double f = focal_px();
  return 2.0 * std::atan((height / 2.0) / f);
}

double CameraIntrinsics::focal_px() const noexcept {
  return (width / 2.0) / std::tan(fov_h / 2.0);
}

std::optional<Vec2> CameraIntrinsics::project(Vec3 p) const noexcept {
  constexpr double kMinDepth = 1e-6;
  if (p.z <= kMinDepth) return std::nullopt;
  const double f = focal_px();
  const Vec2 c = principal_point();
  const Vec2 px{c.x + f * p.x / p.z, c.y + f * p.y / p.z};
  if (px.x < 0 || px.x >= width || px.y < 0 || px.y >= height) {
    return std::nullopt;
  }
  return px;
}

Vec3 CameraIntrinsics::pixel_ray(Vec2 pixel) const noexcept {
  return pixel_ray(pixel, focal_px());
}

}  // namespace vp
