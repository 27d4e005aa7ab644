#include "geometry/icp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "geometry/eigen.hpp"
#include "util/error.hpp"

namespace vp {
namespace {

constexpr std::int64_t kCoordBias = 1 << 20;
/// pack_cell() fills 63 bits, so an all-ones key marks an empty slot.
constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

std::uint64_t pack_cell(std::int64_t x, std::int64_t y, std::int64_t z) noexcept {
  // 21 bits per axis, biased to keep coordinates positive.
  const std::uint64_t ux = static_cast<std::uint64_t>(x + kCoordBias) & 0x1FFFFF;
  const std::uint64_t uy = static_cast<std::uint64_t>(y + kCoordBias) & 0x1FFFFF;
  const std::uint64_t uz = static_cast<std::uint64_t>(z + kCoordBias) & 0x1FFFFF;
  return (ux << 42) | (uy << 21) | uz;
}

}  // namespace

PointGrid::PointGrid(double cell_size) : cell_(cell_size) {
  VP_REQUIRE(cell_size > 0, "PointGrid cell size must be positive");
}

PointGrid::PointGrid(std::span<const Vec3> points, double cell_size)
    : PointGrid(cell_size) {
  add(points);
}

std::uint64_t PointGrid::key_of(Vec3 p) const noexcept {
  return pack_cell(static_cast<std::int64_t>(std::floor(p.x / cell_)),
                   static_cast<std::int64_t>(std::floor(p.y / cell_)),
                   static_cast<std::int64_t>(std::floor(p.z / cell_)));
}

std::size_t PointGrid::slot_of(std::uint64_t key) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot =
      static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32) & mask;
  while (slots_[slot].first != kEmptyKey && slots_[slot].first != key) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void PointGrid::rehash(std::size_t capacity) {
  slots_.assign(capacity, {kEmptyKey, 0});
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    slots_[slot_of(cells_[c].key)] = {cells_[c].key,
                                      static_cast<std::uint32_t>(c)};
  }
}

void PointGrid::add(std::span<const Vec3> points) {
  VP_REQUIRE(points_.size() + points.size() <= UINT32_MAX,
             "PointGrid holds at most 2^32 - 1 points");
  points_.insert(points_.end(), points.begin(), points.end());
  for (const Vec3& p : points) {
    const std::uint64_t key = key_of(p);
    if (2 * (cells_.size() + 1) > slots_.size()) {
      rehash(std::max<std::size_t>(16, 2 * slots_.size()));
    }
    auto& slot = slots_[slot_of(key)];
    if (slot.first == kEmptyKey) {
      slot = {key, static_cast<std::uint32_t>(cells_.size())};
      cells_.push_back(Cell{key, 0, 0});
    }
    cell_of_.push_back(slot.second);
    ++cells_[slot.second].count;
  }
  // Lay the runs out again with a stable counting sort by cell, which
  // keeps each run in ascending index order. `begin` serves as the fill
  // cursor and is rewound afterwards.
  std::uint32_t offset = 0;
  for (Cell& cell : cells_) {
    cell.begin = offset;
    offset += cell.count;
  }
  run_points_.resize(points_.size());
  run_indices_.resize(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    Cell& cell = cells_[cell_of_[i]];
    run_points_[cell.begin] = points_[i];
    run_indices_[cell.begin] = static_cast<std::uint32_t>(i);
    ++cell.begin;
  }
  for (Cell& cell : cells_) cell.begin -= cell.count;
}

const PointGrid::Cell* PointGrid::find(std::uint64_t key) const noexcept {
  if (slots_.empty()) return nullptr;
  const auto& slot = slots_[slot_of(key)];
  return slot.first == kEmptyKey ? nullptr : &cells_[slot.second];
}

std::optional<std::size_t> PointGrid::nearest(Vec3 query,
                                              double max_dist) const {
  if (points_.empty()) return std::nullopt;
  const auto cx = static_cast<std::int64_t>(std::floor(query.x / cell_));
  const auto cy = static_cast<std::int64_t>(std::floor(query.y / cell_));
  const auto cz = static_cast<std::int64_t>(std::floor(query.z / cell_));
  const auto reach =
      static_cast<std::int64_t>(std::ceil(max_dist / cell_));

  double best_d2 = max_dist * max_dist;
  std::optional<std::size_t> best;
  for (std::int64_t dx = -reach; dx <= reach; ++dx) {
    for (std::int64_t dy = -reach; dy <= reach; ++dy) {
      for (std::int64_t dz = -reach; dz <= reach; ++dz) {
        const Cell* cell = find(pack_cell(cx + dx, cy + dy, cz + dz));
        if (cell == nullptr) continue;
        const std::uint32_t end = cell->begin + cell->count;
        for (std::uint32_t j = cell->begin; j < end; ++j) {
          const double d2 = (run_points_[j] - query).norm2();
          if (d2 < best_d2) {
            best_d2 = d2;
            best = run_indices_[j];
          }
        }
      }
    }
  }
  return best;
}

double icp_grid_cell(const IcpConfig& config) noexcept {
  return std::max(0.25, config.max_correspondence_dist);
}

IcpResult icp_align(std::span<const Vec3> source, std::span<const Vec3> target,
                    const IcpConfig& config) {
  if (source.empty() || target.empty()) return {};
  return icp_align(source, PointGrid(target, icp_grid_cell(config)), config);
}

IcpResult icp_align(std::span<const Vec3> source, const PointGrid& grid,
                    const IcpConfig& config) {
  IcpResult result;
  if (source.empty() || grid.size() == 0) return result;

  const std::vector<Vec3>& target = grid.points();
  std::vector<Vec3> current(source.begin(), source.end());
  // Nearest target per current point. The error pass that ends an
  // iteration queries exactly the points the next gather pass would, so
  // its matches carry over instead of being searched again.
  std::vector<std::optional<std::size_t>> matches(current.size());
  const auto match_all = [&] {
    for (std::size_t i = 0; i < current.size(); ++i) {
      matches[i] = grid.nearest(current[i], config.max_correspondence_dist);
    }
  };
  match_all();

  double prev_error = std::numeric_limits<double>::max();
  Pose total{};  // identity
  std::vector<std::pair<Vec3, Vec3>> pairs;  // (source, matched target)
  pairs.reserve(current.size());

  for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
    // Correspondences for the current alignment.
    pairs.clear();
    for (std::size_t i = 0; i < current.size(); ++i) {
      if (matches[i]) pairs.emplace_back(current[i], target[*matches[i]]);
    }
    result.correspondences = pairs.size();
    if (pairs.size() < config.min_correspondences) return result;

    // Trimmed ICP: estimate from the closest correspondences only, so
    // one-sided boundary matches can't drag the transform.
    if (config.trim_fraction < 1.0 && pairs.size() > 16) {
      const auto keep = std::max<std::size_t>(
          config.min_correspondences,
          static_cast<std::size_t>(static_cast<double>(pairs.size()) *
                                   config.trim_fraction));
      std::nth_element(pairs.begin(),
                       pairs.begin() + static_cast<std::ptrdiff_t>(keep - 1),
                       pairs.end(), [](const auto& a, const auto& b) {
                         return (a.first - a.second).norm2() <
                                (b.first - b.second).norm2();
                       });
      pairs.resize(keep);
    }

    // Centroids and centered correlation for Horn's method.
    Vec3 cs, ct;
    for (const auto& [s, t] : pairs) {
      cs += s;
      ct += t;
    }
    cs = cs / static_cast<double>(pairs.size());
    ct = ct / static_cast<double>(pairs.size());

    Mat3 r;
    if (config.planar) {
      // Yaw-only rotation: 2-D Procrustes on the horizontal plane.
      double num = 0, den = 0;
      for (const auto& [s, t] : pairs) {
        const double sx = s.x - cs.x, sy = s.y - cs.y;
        const double tx = t.x - ct.x, ty = t.y - ct.y;
        num += sx * ty - sy * tx;
        den += sx * tx + sy * ty;
      }
      const double yaw = std::atan2(num, den);
      r = rotation_zyx(yaw, 0, 0);
    } else {
      Mat3 corr{{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}}};
      for (const auto& [s, t] : pairs) {
        const Vec3 a = t - ct;  // world/target side
        const Vec3 b = s - cs;  // body/source side
        corr.m[0][0] += a.x * b.x; corr.m[0][1] += a.x * b.y; corr.m[0][2] += a.x * b.z;
        corr.m[1][0] += a.y * b.x; corr.m[1][1] += a.y * b.y; corr.m[1][2] += a.y * b.z;
        corr.m[2][0] += a.z * b.x; corr.m[2][1] += a.z * b.y; corr.m[2][2] += a.z * b.z;
      }
      r = horn_rotation(corr);
    }
    const Vec3 t_vec = ct - r * cs;
    const Pose step{r, t_vec};

    for (auto& p : current) p = step.to_world(p);
    total = step * total;

    match_all();
    double err = 0;
    std::size_t matched = 0;
    for (std::size_t i = 0; i < current.size(); ++i) {
      if (matches[i]) {
        err += (target[*matches[i]] - current[i]).norm();
        ++matched;
      }
    }
    err = matched ? err / static_cast<double>(matched) : prev_error;
    result.iterations = iter + 1;
    result.mean_error = err;

    if (std::abs(prev_error - err) < config.convergence_delta) {
      result.converged = true;
      break;
    }
    prev_error = err;
  }
  result.transform = total;
  if (result.iterations == config.max_iterations) result.converged = true;
  return result;
}

}  // namespace vp
