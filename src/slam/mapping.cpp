#include "slam/mapping.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace vp {
namespace {

/// Extract one snapshot's keypoint→3D mappings (pure per-snapshot work).
std::vector<KeypointMapping> extract_one(const Snapshot& snap,
                                         const Pose& pose, std::size_t index,
                                         const MappingConfig& cfg,
                                         const SiftConfig& sift) {
  std::vector<KeypointMapping> out;
  const auto features = sift_detect(snap.image, sift);
  out.reserve(features.size());
  for (const auto& f : features) {
    // Depth pixel covering this keypoint.
    const int dx = std::clamp(
        static_cast<int>(f.keypoint.x) / snap.depth_downscale, 0,
        snap.depth.width() - 1);
    const int dy = std::clamp(
        static_cast<int>(f.keypoint.y) / snap.depth_downscale, 0,
        snap.depth.height() - 1);
    const float t = snap.depth(dx, dy);
    if (t <= 0.0f || t > cfg.max_depth) continue;
    // Back-project the keypoint's own pixel (full resolution) with the
    // depth sampled from the coarser IR map.
    const Vec3 ray = snap.intrinsics.pixel_ray({f.keypoint.x, f.keypoint.y});
    KeypointMapping m;
    m.feature = f;
    m.world_position = pose.to_world(ray * static_cast<double>(t));
    m.snapshot = static_cast<std::uint32_t>(index);
    out.push_back(std::move(m));
  }
  return out;
}

}  // namespace

std::vector<KeypointMapping> extract_mappings(
    std::span<const Snapshot> snapshots, std::span<const Pose> poses,
    const MappingConfig& cfg) {
  VP_REQUIRE(snapshots.size() == poses.size(),
             "extract_mappings: pose count mismatch");
  VP_OBS_SPAN("mapping.extract");

  // With a pool, fan out over snapshots (the coarse grain: one SIFT run
  // each) and disable intra-SIFT threading — the outer fan-out already
  // fills the pool. Per-snapshot results merge in snapshot order, so the
  // output is identical to the sequential path.
  std::vector<std::vector<KeypointMapping>> per_snap(snapshots.size());
  if (cfg.pool != nullptr && snapshots.size() > 1) {
    SiftConfig inner = cfg.sift;
    inner.pool = nullptr;
    cfg.pool->parallel_for(snapshots.size(), [&](std::size_t i) {
      per_snap[i] = extract_one(snapshots[i], poses[i], i, cfg, inner);
    });
  } else {
    for (std::size_t i = 0; i < snapshots.size(); ++i) {
      per_snap[i] = extract_one(snapshots[i], poses[i], i, cfg, cfg.sift);
    }
  }

  std::vector<KeypointMapping> mappings;
  for (auto& snap_mappings : per_snap) {
    mappings.insert(mappings.end(),
                    std::make_move_iterator(snap_mappings.begin()),
                    std::make_move_iterator(snap_mappings.end()));
  }
  return mappings;
}

PlaceMappings extract_place_mappings(std::string place,
                                     std::span<const Snapshot> snapshots,
                                     std::span<const Pose> poses,
                                     const MappingConfig& config) {
  return {std::move(place), extract_mappings(snapshots, poses, config)};
}

}  // namespace vp
