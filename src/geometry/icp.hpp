// Point-to-point Iterative Closest Point.
//
// Wardriving post-processing (§3, "Challenge, Positioning Error and
// Uniqueness") merges per-snapshot Tango depth maps into one coherent point
// cloud; ICP estimates the rigid correction between a drifted snapshot
// cloud and the reference map.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "geometry/pose.hpp"

namespace vp {

struct IcpConfig {
  std::size_t max_iterations = 50;
  double max_correspondence_dist = 2.0;  ///< meters; beyond this, unmatched
  double convergence_delta = 1e-6;       ///< stop when mean error improves less
  std::size_t min_correspondences = 8;
  /// Trimmed ICP: keep only this fraction of correspondences (closest
  /// first) when estimating each step's transform. Suppresses the boundary
  /// bias of partially-overlapping clouds; 1.0 disables trimming.
  double trim_fraction = 0.8;
  /// Planar mode: estimate yaw + 3-D translation only (4 DoF). Indoor
  /// dead reckoning drifts in yaw and position, while roll/pitch are
  /// gravity-observable from the IMU (true of Tango, and of our drift
  /// model); freeing them only lets near-planar corridor clouds wander.
  bool planar = true;
};

struct IcpResult {
  Pose transform;          ///< target_from_source correction
  double mean_error = 0;   ///< mean correspondence distance after alignment
  std::size_t iterations = 0;
  std::size_t correspondences = 0;
  bool converged = false;
};

/// Nearest-neighbour lookup over a growing 3-D point set: a uniform grid
/// whose cells are found through an open-addressing hash from cell key to
/// cell. Each cell's points sit in one contiguous run in ascending index
/// order, so equal distances resolve to the lowest index of the first cell
/// in dx/dy/dz scan order. Query cost is O(1) for densities near the cell
/// size; add() costs O(size()) to lay the runs out again.
class PointGrid {
 public:
  explicit PointGrid(double cell_size);
  PointGrid(std::span<const Vec3> points, double cell_size);

  /// Appends points; their indices continue from size().
  void add(std::span<const Vec3> points);

  /// Nearest point index within `max_dist`, or nullopt.
  std::optional<std::size_t> nearest(Vec3 query, double max_dist) const;

  std::size_t size() const noexcept { return points_.size(); }
  const std::vector<Vec3>& points() const noexcept { return points_; }

 private:
  struct Cell {
    std::uint64_t key = 0;
    std::uint32_t begin = 0;  ///< first slot of the run in run_points_
    std::uint32_t count = 0;
  };

  std::vector<Vec3> points_;
  double cell_;
  std::vector<std::uint32_t> cell_of_;  ///< cell per point, into cells_
  std::vector<Cell> cells_;
  /// Every cell's points (and their indices into points_), run after run.
  std::vector<Vec3> run_points_;
  std::vector<std::uint32_t> run_indices_;
  /// Open-addressing table of (cell key, index into cells_); an empty slot
  /// holds an all-ones key, which no cell packs to. Capacity is a power of
  /// two, kept at most half full.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> slots_;

  std::uint64_t key_of(Vec3 p) const noexcept;
  /// Slot holding `key`, or the empty slot where it would go.
  std::size_t slot_of(std::uint64_t key) const noexcept;
  const Cell* find(std::uint64_t key) const noexcept;
  void rehash(std::size_t capacity);
};

/// Align `source` onto `target`; returns the rigid transform T such that
/// T(source) ≈ target. Fails (converged=false, identity transform) when too
/// few correspondences are found.
IcpResult icp_align(std::span<const Vec3> source, std::span<const Vec3> target,
                    const IcpConfig& config = {});

/// icp_align against a prebuilt grid over the target points. The result
/// equals icp_align(source, grid.points(), config) when the grid's cell size
/// is icp_grid_cell(config).
IcpResult icp_align(std::span<const Vec3> source, const PointGrid& grid,
                    const IcpConfig& config = {});

/// Cell size icp_align uses for its target grid.
double icp_grid_cell(const IcpConfig& config) noexcept;

}  // namespace vp
