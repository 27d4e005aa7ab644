// Pinhole camera model.
//
// Conventions: camera body frame has +Z forward (optical axis), +X right,
// +Y down — so pixel coordinates grow right/down as usual. The model is
// parameterized by field of view, matching the paper's localization
// geometry (Fig. 11), which works in FoV/pixel terms rather than focal
// lengths.
#pragma once

#include <optional>

#include "geometry/pose.hpp"
#include "geometry/vec.hpp"

namespace vp {

struct CameraIntrinsics {
  int width = 1920;        ///< image width, pixels
  int height = 1080;       ///< image height, pixels
  double fov_h = 1.15192;  ///< horizontal field of view, radians (~66 deg)

  /// Vertical FoV derived from the aspect ratio (square pixels).
  double fov_v() const noexcept;

  /// Focal length in pixels (same for x and y under square pixels).
  double focal_px() const noexcept;

  Vec2 principal_point() const noexcept {
    return {width / 2.0, height / 2.0};
  }

  /// Project a point in camera body frame to pixel coordinates.
  /// Returns nullopt if the point is behind the camera (z <= epsilon) or
  /// projects outside the image bounds.
  std::optional<Vec2> project(Vec3 body_point) const noexcept;

  /// Unit ray in camera body frame through pixel (px, py).
  Vec3 pixel_ray(Vec2 pixel) const noexcept;

  /// pixel_ray() with `focal` = focal_px() supplied by the caller, so a
  /// loop over a frame's pixels evaluates the tan once. Defined inline so
  /// that pixel_ray(pixel), which the pose solve calls for every pair of
  /// every evaluation, still compiles to a single body with no extra call.
  Vec3 pixel_ray(Vec2 pixel, double focal) const noexcept {
    const Vec2 c = principal_point();
    return Vec3{(pixel.x - c.x) / focal, (pixel.y - c.y) / focal, 1.0}
        .normalized();
  }
};

/// A camera = intrinsics + world pose.
struct Camera {
  CameraIntrinsics intrinsics;
  Pose pose;  ///< world_from_camera

  /// Project a world point; nullopt when behind camera or out of frame.
  std::optional<Vec2> project_world(Vec3 world_point) const noexcept {
    return intrinsics.project(pose.to_body(world_point));
  }

  /// World-frame unit ray through a pixel.
  Vec3 world_ray(Vec2 pixel) const noexcept {
    return world_ray(pixel, intrinsics.focal_px());
  }

  /// world_ray() with `focal` = intrinsics.focal_px() supplied.
  Vec3 world_ray(Vec2 pixel, double focal) const noexcept {
    return (pose.rotation * intrinsics.pixel_ray(pixel, focal)).normalized();
  }
};

}  // namespace vp
