#include "slam/map_merge.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace vp {

MapMergeResult merge_snapshots(std::span<const Snapshot> snapshots,
                               const MapMergeConfig& cfg) {
  VP_OBS_SPAN("map_merge.icp");
  MapMergeResult result;
  result.corrected_poses.reserve(snapshots.size());

  if (!cfg.enabled) {
    for (const auto& s : snapshots) {
      result.corrected_poses.push_back(s.reported_pose);
    }
    return result;
  }

  // One neighbour grid grows with the reference map instead of a fresh
  // grid being built for each ICP call; its cells keep ascending index
  // order, so matches equal those of a freshly built grid.
  PointGrid map(icp_grid_cell(cfg.icp));
  double err_sum = 0;
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    const auto& snap = snapshots[i];
    Pose pose = snap.reported_pose;
    if (i == 0) {
      // First snapshot anchors the global frame at its reported pose.
      result.corrected_poses.push_back(pose);
    } else {
      const auto cloud = snapshot_point_cloud(snap, pose, cfg.cloud_stride);
      const IcpResult icp = icp_align(cloud, map, cfg.icp);
      const Pose corrected = icp.transform * pose;
      const double moved =
          (corrected.translation - pose.translation).norm();
      const double rotated =
          rotation_angle_between(corrected.rotation, pose.rotation);
      const double overlap =
          cloud.empty() ? 0.0
                        : static_cast<double>(icp.correspondences) /
                              static_cast<double>(cloud.size());
      if (icp.converged && moved <= cfg.max_position_correction &&
          rotated <= cfg.max_rotation_correction &&
          overlap >= cfg.min_overlap_fraction) {
        pose = corrected;
        err_sum += icp.mean_error;
        ++result.snapshots_corrected;
      }
      result.corrected_poses.push_back(pose);
    }
    // Grow the reference map with the (corrected) snapshot cloud.
    if (map.size() < cfg.max_map_points) {
      auto cloud = snapshot_point_cloud(snapshots[i],
                                        result.corrected_poses.back(),
                                        cfg.cloud_stride);
      const std::size_t room = cfg.max_map_points - map.size();
      if (cloud.size() > room) cloud.resize(room);
      map.add(cloud);
    }
  }
  result.map_points = map.points();
  if (result.snapshots_corrected > 0) {
    result.mean_icp_error =
        err_sum / static_cast<double>(result.snapshots_corrected);
  }
  return result;
}

double mean_pose_error(std::span<const Snapshot> snapshots,
                       std::span<const Pose> poses) {
  VP_REQUIRE(snapshots.size() == poses.size(),
             "mean_pose_error: size mismatch");
  if (snapshots.empty()) return 0.0;
  double sum = 0;
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    sum += (snapshots[i].true_pose.translation - poses[i].translation).norm();
  }
  return sum / static_cast<double>(snapshots.size());
}

}  // namespace vp
