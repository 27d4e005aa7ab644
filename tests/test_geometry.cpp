#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>

#include "geometry/angles.hpp"
#include "geometry/camera.hpp"
#include "geometry/clustering.hpp"
#include "geometry/eigen.hpp"
#include "geometry/icp.hpp"
#include "geometry/localize.hpp"
#include "geometry/optimize.hpp"
#include "geometry/pose.hpp"
#include "geometry/vec.hpp"
#include "util/thread_pool.hpp"

namespace vp {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(Vec3, BasicOps) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_DOUBLE_EQ((a + b).x, 5);
  EXPECT_DOUBLE_EQ((b - a).z, 3);
  EXPECT_DOUBLE_EQ(a.dot(b), 32);
  const Vec3 c = a.cross(b);
  EXPECT_DOUBLE_EQ(c.x, -3);
  EXPECT_DOUBLE_EQ(c.y, 6);
  EXPECT_DOUBLE_EQ(c.z, -3);
  EXPECT_DOUBLE_EQ((Vec3{3, 4, 0}).norm(), 5.0);
  EXPECT_NEAR((Vec3{10, 0, 0}).normalized().norm(), 1.0, 1e-12);
}

TEST(Mat3, IdentityAndMultiply) {
  const Mat3 i = Mat3::identity();
  const Vec3 v{1, 2, 3};
  const Vec3 r = i * v;
  EXPECT_DOUBLE_EQ(r.x, 1);
  EXPECT_DOUBLE_EQ(r.z, 3);
  const Mat3 ii = i * i;
  EXPECT_DOUBLE_EQ(ii.trace(), 3.0);
}

TEST(Rotation, EulerRoundtrip) {
  for (double yaw : {-2.0, -0.5, 0.0, 1.0, 2.5}) {
    for (double pitch : {-1.2, 0.0, 0.7}) {
      for (double roll : {-0.9, 0.0, 1.4}) {
        const Mat3 r = rotation_zyx(yaw, pitch, roll);
        double y2, p2, r2;
        euler_zyx(r, y2, p2, r2);
        EXPECT_NEAR(y2, yaw, 1e-9);
        EXPECT_NEAR(p2, pitch, 1e-9);
        EXPECT_NEAR(r2, roll, 1e-9);
      }
    }
  }
}

TEST(Rotation, OrthonormalColumns) {
  const Mat3 r = rotation_zyx(0.3, -0.6, 1.1);
  const Mat3 rrt = r * r.transposed();
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_NEAR(rrt.m[i][j], i == j ? 1.0 : 0.0, 1e-12);
    }
  }
}

TEST(Pose, WorldBodyRoundtrip) {
  const Pose p = Pose::from_euler({1, 2, 3}, 0.5, -0.2, 0.1);
  const Vec3 w{4, -1, 2};
  EXPECT_NEAR(p.to_world(p.to_body(w)).distance(w), 0.0, 1e-12);
}

TEST(Pose, ComposeAndInverse) {
  const Pose a = Pose::from_euler({1, 0, 0}, 0.3, 0, 0);
  const Pose b = Pose::from_euler({0, 2, 0}, -0.8, 0.1, 0);
  const Pose ab = a * b;
  const Vec3 v{0.5, 0.5, 0.5};
  EXPECT_NEAR(ab.to_world(v).distance(a.to_world(b.to_world(v))), 0, 1e-12);
  const Pose id = a * a.inverse();
  EXPECT_NEAR(id.translation.norm(), 0, 1e-12);
  EXPECT_NEAR(rotation_angle_between(id.rotation, Mat3::identity()), 0, 1e-9);
}

TEST(Camera, CenterPixelLooksForward) {
  CameraIntrinsics cam{640, 480, 1.2};
  const Vec3 ray = cam.pixel_ray({320, 240});
  EXPECT_NEAR(ray.x, 0, 1e-9);
  EXPECT_NEAR(ray.y, 0, 1e-9);
  EXPECT_NEAR(ray.z, 1, 1e-9);
}

TEST(Camera, ProjectUnprojectRoundtrip) {
  CameraIntrinsics cam{640, 480, 1.1};
  const Vec3 p{0.4, -0.2, 3.0};
  const auto px = cam.project(p);
  ASSERT_TRUE(px.has_value());
  const Vec3 ray = cam.pixel_ray(*px);
  // Ray through the pixel should pass through p (same direction).
  EXPECT_NEAR(ray.cross(p.normalized()).norm(), 0.0, 1e-9);
}

TEST(Camera, BehindCameraRejected) {
  CameraIntrinsics cam{640, 480, 1.1};
  EXPECT_FALSE(cam.project({0, 0, -1}).has_value());
}

TEST(Camera, OutOfFrameRejected) {
  CameraIntrinsics cam{640, 480, 1.1};
  EXPECT_FALSE(cam.project({100, 0, 1}).has_value());
}

TEST(Camera, FovEdgeMapsToImageEdge) {
  CameraIntrinsics cam{640, 480, 1.0};
  // A point at exactly half the horizontal FoV projects to x = width.
  const double half = cam.fov_h / 2;
  const auto px = cam.project({std::tan(half) * 0.999, 0, 1});
  ASSERT_TRUE(px.has_value());
  EXPECT_GT(px->x, 638.0);
}

TEST(Angles, GammaMatchesRayAngle) {
  CameraIntrinsics cam{640, 480, 1.15};
  // Fig. 11 gamma should equal the angle between the pixel ray and the
  // optical axis, projected on the x axis.
  for (double px : {0.0, 160.0, 320.0, 480.0, 639.0}) {
    const double gamma = gamma_angle(px, 320.0, cam.fov_h, 640.0);
    const Vec3 ray = cam.pixel_ray({px, 240.0});
    const double expected = std::atan2(ray.x, ray.z);
    EXPECT_NEAR(gamma, expected, 1e-9) << "px=" << px;
  }
}

TEST(Angles, AxisSeparationCases) {
  // Same side: |g1 - g2|; opposite sides: g1 + |g2|.
  EXPECT_NEAR(axis_separation(0.3, 0.1), 0.2, 1e-12);
  EXPECT_NEAR(axis_separation(0.3, -0.1), 0.4, 1e-12);
}

TEST(Angles, SubtendedAngleRightTriangle) {
  // Observer at origin, points at 45 deg on either side of the z axis.
  const Vec3 a{0, 0, 0};
  const double angle =
      subtended_angle_on_plane(a, {1, 0, 1}, {-1, 0, 1}, 0);
  EXPECT_NEAR(angle, kPi / 2, 1e-9);
}

TEST(Clustering, SeparatesTwoBlobs) {
  Rng rng(1);
  std::vector<Vec3> pts;
  for (int i = 0; i < 30; ++i) {
    pts.push_back({rng.gaussian(0, 0.3), rng.gaussian(0, 0.3), 0});
  }
  for (int i = 0; i < 10; ++i) {
    pts.push_back({20 + rng.gaussian(0, 0.3), rng.gaussian(0, 0.3), 0});
  }
  const auto result = cluster_points(pts, {.radius = 2.0, .min_points = 3});
  ASSERT_EQ(result.clusters.size(), 2u);
  EXPECT_EQ(result.clusters[0].size(), 30u);
  EXPECT_EQ(result.clusters[1].size(), 10u);
}

TEST(Clustering, NoiseFiltered) {
  std::vector<Vec3> pts{{0, 0, 0}, {100, 0, 0}, {0, 100, 0}};
  const auto result = cluster_points(pts, {.radius = 1.0, .min_points = 2});
  EXPECT_TRUE(result.clusters.empty());
  for (auto l : result.labels) EXPECT_EQ(l, SIZE_MAX);
}

TEST(Clustering, LargestClusterAndCentroid) {
  std::vector<Vec3> pts{{0, 0, 0}, {0.5, 0, 0}, {1, 0, 0}, {50, 50, 50}};
  const auto big = largest_cluster(pts, {.radius = 1.0, .min_points = 2});
  EXPECT_EQ(big.size(), 3u);
  const Vec3 c = centroid(pts, big);
  EXPECT_NEAR(c.x, 0.5, 1e-12);
}

TEST(Eigen, DiagonalMatrix) {
  const double m[9] = {3, 0, 0, 0, 7, 0, 0, 0, 1};
  const auto es = jacobi_eigen_sym(std::span<const double>(m, 9), 3);
  EXPECT_NEAR(es.values[0], 7, 1e-10);
  EXPECT_NEAR(es.values[1], 3, 1e-10);
  EXPECT_NEAR(es.values[2], 1, 1e-10);
  // Leading eigenvector should be +-e_y.
  EXPECT_NEAR(std::abs(es.vectors[1]), 1.0, 1e-9);
}

TEST(Eigen, SymmetricKnownEigenvalues) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  const double m[4] = {2, 1, 1, 2};
  const auto es = jacobi_eigen_sym(std::span<const double>(m, 4), 2);
  EXPECT_NEAR(es.values[0], 3, 1e-10);
  EXPECT_NEAR(es.values[1], 1, 1e-10);
}

TEST(Eigen, HornRecoversRotation) {
  Rng rng(2);
  const Mat3 truth = rotation_zyx(0.7, -0.3, 0.4);
  Mat3 corr{{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}}};
  for (int i = 0; i < 50; ++i) {
    const Vec3 b = Vec3{rng.gaussian(), rng.gaussian(), rng.gaussian()}.normalized();
    const Vec3 w = truth * b;
    corr.m[0][0] += w.x * b.x; corr.m[0][1] += w.x * b.y; corr.m[0][2] += w.x * b.z;
    corr.m[1][0] += w.y * b.x; corr.m[1][1] += w.y * b.y; corr.m[1][2] += w.y * b.z;
    corr.m[2][0] += w.z * b.x; corr.m[2][1] += w.z * b.y; corr.m[2][2] += w.z * b.z;
  }
  const Mat3 rec = horn_rotation(corr);
  EXPECT_LT(rotation_angle_between(rec, truth), 1e-6);
}

TEST(DifferentialEvolution, MinimizesSphere) {
  Rng rng(3);
  const auto sphere = [](std::span<const double> v) {
    double s = 0;
    for (double x : v) s += (x - 1.5) * (x - 1.5);
    return s;
  };
  const double lo[3] = {-10, -10, -10};
  const double hi[3] = {10, 10, 10};
  DeConfig cfg;
  cfg.max_generations = 200;
  cfg.time_budget_sec = 5.0;
  const auto result = differential_evolution(sphere, lo, hi, cfg, rng);
  for (double x : result.best) EXPECT_NEAR(x, 1.5, 0.01);
  EXPECT_LT(result.cost, 1e-3);
}

TEST(DifferentialEvolution, RespectsBounds) {
  Rng rng(4);
  const auto f = [](std::span<const double> v) { return -v[0]; };  // push up
  const double lo[1] = {0};
  const double hi[1] = {2};
  const auto result = differential_evolution(f, lo, hi, {}, rng);
  EXPECT_LE(result.best[0], 2.0 + 1e-12);
  EXPECT_NEAR(result.best[0], 2.0, 1e-6);
}

TEST(DifferentialEvolution, TimeBounded) {
  Rng rng(5);
  const auto slow = [](std::span<const double> v) { return v[0] * v[0]; };
  const double lo[1] = {-1};
  const double hi[1] = {1};
  DeConfig cfg;
  cfg.time_budget_sec = 0.0;  // expire immediately
  cfg.max_generations = 1'000'000;
  const auto result = differential_evolution(slow, lo, hi, cfg, rng);
  EXPECT_TRUE(result.hit_time_bound);
  EXPECT_LT(result.generations, 2u);
}

TEST(DifferentialEvolution, BitIdenticalForAnyPoolSize) {
  // Rastrigin-style multimodal objective: pool-size-dependent evaluation
  // order would show up as a different trajectory almost immediately.
  const auto rastrigin = [](std::span<const double> v) {
    double s = 10.0 * static_cast<double>(v.size());
    for (double x : v) s += x * x - 10.0 * std::cos(2.0 * kPi * x);
    return s;
  };
  const double lo[4] = {-5.12, -5.12, -5.12, -5.12};
  const double hi[4] = {5.12, 5.12, 5.12, 5.12};
  DeConfig cfg;
  cfg.max_generations = 60;
  cfg.time_budget_sec = 100.0;  // never hit: the wall clock must not steer

  const auto run = [&](ThreadPool* pool) {
    DeConfig c = cfg;
    c.pool = pool;
    Rng rng(77);  // fresh identically-seeded rng per run
    return differential_evolution(rastrigin, lo, hi, c, rng);
  };
  const DeResult reference = run(nullptr);
  ASSERT_FALSE(reference.hit_time_bound);
  for (const std::size_t threads : {1u, 4u, 16u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    const DeResult got = run(&pool);
    EXPECT_EQ(got.cost, reference.cost);  // exact, not near
    EXPECT_EQ(got.generations, reference.generations);
    EXPECT_EQ(got.hit_time_bound, reference.hit_time_bound);
    ASSERT_EQ(got.best.size(), reference.best.size());
    for (std::size_t d = 0; d < got.best.size(); ++d) {
      EXPECT_EQ(got.best[d], reference.best[d]);
    }
  }
}

TEST(Localize, RecoversKnownCameraPosition) {
  // Build synthetic observations from a known camera.
  CameraIntrinsics intr{640, 480, 1.15};
  const Vec3 cam_pos{3.0, 4.0, 1.5};
  const Mat3 cam_rot = rotation_zyx(0.4, 0.05, 0.0);
  const Pose pose{cam_rot, cam_pos};

  Rng rng(6);
  std::vector<Observation> obs;
  for (int i = 0; i < 25; ++i) {
    const Vec3 body{rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0),
                    rng.uniform(2.5, 7.0)};
    const auto px = intr.project(body);
    if (!px) continue;
    obs.push_back({*px, pose.to_world(body)});
  }
  ASSERT_GE(obs.size(), 10u);

  LocalizeConfig cfg;
  cfg.search_lo = {-10, -10, 0};
  cfg.search_hi = {15, 15, 4};
  cfg.de.time_budget_sec = 2.0;
  cfg.de.max_generations = 500;
  Rng solver_rng(7);
  const auto result = localize(obs, intr, cfg, solver_rng);
  ASSERT_TRUE(result.has_value());
  EXPECT_LT(result->pose.translation.distance(cam_pos), 0.15)
      << "got (" << result->pose.translation.x << ","
      << result->pose.translation.y << "," << result->pose.translation.z << ")";
  // Orientation recovery should be close too.
  EXPECT_LT(rotation_angle_between(result->pose.rotation, cam_rot), 0.05);
}

TEST(Localize, RejectsDegenerateInput) {
  CameraIntrinsics intr{640, 480, 1.15};
  Rng rng(8);
  std::vector<Observation> two{{{10, 10}, {0, 0, 0}}, {{20, 20}, {1, 0, 0}}};
  EXPECT_FALSE(localize(two, intr, {}, rng).has_value());
  // All world points identical -> degenerate spread.
  std::vector<Observation> same{{{10, 10}, {1, 1, 1}},
                                {{40, 40}, {1, 1, 1}},
                                {{80, 20}, {1, 1, 1}}};
  EXPECT_FALSE(localize(same, intr, {}, rng).has_value());
}

TEST(PointGrid, FindsNearest) {
  std::vector<Vec3> pts{{0, 0, 0}, {1, 1, 1}, {5, 5, 5}};
  PointGrid grid(pts, 1.0);
  const auto hit = grid.nearest({0.9, 1.1, 1.0}, 1.0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 1u);
  EXPECT_FALSE(grid.nearest({100, 100, 100}, 2.0).has_value());
}

// --- Reference grid and ICP ----------------------------------------------
// PointGrid and icp_align as they were before the grid hashed its cells and
// ICP reused its error-pass searches: 27 lower_bounds over every
// (cell, index) pair per query, and two searches per point per iteration.
// The current code must reproduce them bit for bit, ties included.

class ReferenceGrid {
 public:
  ReferenceGrid(std::span<const Vec3> points, double cell)
      : points_(points.begin(), points.end()), cell_(cell) {
    for (std::size_t i = 0; i < points_.size(); ++i) {
      sorted_.emplace_back(key_of(points_[i]), static_cast<std::uint32_t>(i));
    }
    std::sort(sorted_.begin(), sorted_.end());
  }

  std::optional<std::size_t> nearest(Vec3 query, double max_dist) const {
    if (points_.empty()) return std::nullopt;
    const auto cx = static_cast<std::int64_t>(std::floor(query.x / cell_));
    const auto cy = static_cast<std::int64_t>(std::floor(query.y / cell_));
    const auto cz = static_cast<std::int64_t>(std::floor(query.z / cell_));
    const auto reach = static_cast<std::int64_t>(std::ceil(max_dist / cell_));
    double best_d2 = max_dist * max_dist;
    std::optional<std::size_t> best;
    for (std::int64_t dx = -reach; dx <= reach; ++dx) {
      for (std::int64_t dy = -reach; dy <= reach; ++dy) {
        for (std::int64_t dz = -reach; dz <= reach; ++dz) {
          const std::uint64_t key = pack(cx + dx, cy + dy, cz + dz);
          auto it = std::lower_bound(sorted_.begin(), sorted_.end(),
                                     std::make_pair(key, std::uint32_t{0}));
          for (; it != sorted_.end() && it->first == key; ++it) {
            const double d2 = (points_[it->second] - query).norm2();
            if (d2 < best_d2) {
              best_d2 = d2;
              best = it->second;
            }
          }
        }
      }
    }
    return best;
  }

 private:
  static std::uint64_t pack(std::int64_t x, std::int64_t y, std::int64_t z) {
    constexpr std::int64_t kBias = 1 << 20;
    const auto ux = static_cast<std::uint64_t>(x + kBias) & 0x1FFFFF;
    const auto uy = static_cast<std::uint64_t>(y + kBias) & 0x1FFFFF;
    const auto uz = static_cast<std::uint64_t>(z + kBias) & 0x1FFFFF;
    return (ux << 42) | (uy << 21) | uz;
  }
  std::uint64_t key_of(Vec3 p) const {
    return pack(static_cast<std::int64_t>(std::floor(p.x / cell_)),
                static_cast<std::int64_t>(std::floor(p.y / cell_)),
                static_cast<std::int64_t>(std::floor(p.z / cell_)));
  }

  std::vector<Vec3> points_;
  double cell_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> sorted_;
};

IcpResult reference_icp(std::span<const Vec3> source,
                        std::span<const Vec3> target,
                        const IcpConfig& config) {
  IcpResult result;
  if (source.empty() || target.empty()) return result;
  const ReferenceGrid grid(target,
                           std::max(0.25, config.max_correspondence_dist));
  std::vector<Vec3> current(source.begin(), source.end());
  double prev_error = std::numeric_limits<double>::max();
  Pose total{};
  for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
    std::vector<std::pair<Vec3, Vec3>> pairs;
    for (const Vec3& p : current) {
      if (auto idx = grid.nearest(p, config.max_correspondence_dist)) {
        pairs.emplace_back(p, target[*idx]);
      }
    }
    result.correspondences = pairs.size();
    if (pairs.size() < config.min_correspondences) return result;
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
    Vec3 cs, ct;
    for (const auto& [s, t] : pairs) {
      cs += s;
      ct += t;
    }
    cs = cs / static_cast<double>(pairs.size());
    ct = ct / static_cast<double>(pairs.size());
    Mat3 r;
    if (config.planar) {
      double num = 0, den = 0;
      for (const auto& [s, t] : pairs) {
        const double sx = s.x - cs.x, sy = s.y - cs.y;
        const double tx = t.x - ct.x, ty = t.y - ct.y;
        num += sx * ty - sy * tx;
        den += sx * tx + sy * ty;
      }
      r = rotation_zyx(std::atan2(num, den), 0, 0);
    } else {
      Mat3 corr{{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}}};
      for (const auto& [s, t] : pairs) {
        const Vec3 a = t - ct;
        const Vec3 b = s - cs;
        corr.m[0][0] += a.x * b.x; corr.m[0][1] += a.x * b.y; corr.m[0][2] += a.x * b.z;
        corr.m[1][0] += a.y * b.x; corr.m[1][1] += a.y * b.y; corr.m[1][2] += a.y * b.z;
        corr.m[2][0] += a.z * b.x; corr.m[2][1] += a.z * b.y; corr.m[2][2] += a.z * b.z;
      }
      r = horn_rotation(corr);
    }
    const Pose step{r, ct - r * cs};
    for (auto& p : current) p = step.to_world(p);
    total = step * total;
    double err = 0;
    std::size_t matched = 0;
    for (const Vec3& p : current) {
      if (auto idx = grid.nearest(p, config.max_correspondence_dist)) {
        err += (target[*idx] - p).norm();
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

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

void expect_same_icp(const IcpResult& got, const IcpResult& want) {
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(bits(got.transform.rotation.m[i][j]),
                bits(want.transform.rotation.m[i][j]));
    }
  }
  EXPECT_EQ(bits(got.transform.translation.x),
            bits(want.transform.translation.x));
  EXPECT_EQ(bits(got.transform.translation.y),
            bits(want.transform.translation.y));
  EXPECT_EQ(bits(got.transform.translation.z),
            bits(want.transform.translation.z));
  EXPECT_EQ(bits(got.mean_error), bits(want.mean_error));
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.correspondences, want.correspondences);
  EXPECT_EQ(got.converged, want.converged);
}

TEST(PointGrid, MatchesReferenceIncludingTies) {
  Rng rng(41);
  for (const double cell : {0.25, 0.5, 1.0}) {
    // A lattice on exact multiples of the cell (points on cell
    // boundaries), its duplicates, and random points between.
    std::vector<Vec3> pts;
    for (int x = -3; x <= 3; ++x) {
      for (int y = -3; y <= 3; ++y) {
        for (int z = 0; z <= 2; ++z) {
          pts.push_back({x * cell, y * cell, z * cell});
        }
      }
    }
    const std::size_t lattice = pts.size();
    for (std::size_t i = 0; i < lattice; i += 3) pts.push_back(pts[i]);
    for (int i = 0; i < 600; ++i) {
      pts.push_back({rng.uniform(-1, 1), rng.uniform(-1, 1),
                     rng.uniform(-0.2, 0.7)});
    }
    const ReferenceGrid ref(pts, cell);
    const PointGrid grid(pts, cell);
    // The same points grown in uneven chunks must answer identically.
    PointGrid grown(cell);
    for (std::size_t at = 0; at < pts.size();) {
      const std::size_t n = std::min<std::size_t>(pts.size() - at,
                                                  1 + at % 97);
      grown.add(std::span<const Vec3>(pts).subspan(at, n));
      at += n;
    }
    ASSERT_EQ(grown.size(), pts.size());

    std::vector<Vec3> queries;
    for (int i = 0; i < 800; ++i) {
      queries.push_back({rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2),
                         rng.uniform(-0.4, 0.9)});
    }
    // Midpoints between lattice neighbours sit exactly on cell boundaries
    // and are equidistant from points in different cells.
    for (int x = -3; x < 3; ++x) {
      for (int y = -3; y < 3; ++y) {
        queries.push_back({(x + 0.5) * cell, y * cell, 0});
        queries.push_back({x * cell, (y + 0.5) * cell, cell});
        queries.push_back({(x + 0.5) * cell, (y + 0.5) * cell, 0.5 * cell});
      }
    }
    for (const Vec3& q : pts) queries.push_back(q);  // exact duplicates
    for (const double max_dist : {0.1, cell, 2.5 * cell}) {
      for (const Vec3& q : queries) {
        const auto want = ref.nearest(q, max_dist);
        EXPECT_EQ(grid.nearest(q, max_dist), want);
        EXPECT_EQ(grown.nearest(q, max_dist), want);
      }
    }
  }
}

TEST(Icp, MatchesReferenceBitForBit) {
  Rng rng(43);
  // An L-shaped room corner: floor plus two walls.
  std::vector<Vec3> target;
  for (int i = 0; i < 900; ++i) {
    switch (i % 3) {
      case 0: target.push_back({rng.uniform(0, 6), rng.uniform(0, 4), 0}); break;
      case 1: target.push_back({rng.uniform(0, 6), 0, rng.uniform(0, 3)}); break;
      default: target.push_back({0, rng.uniform(0, 4), rng.uniform(0, 3)});
    }
  }
  const Pose drift = Pose::from_euler({0.15, -0.1, 0.02}, 0.04, 0.0, 0.0);
  const Pose inv = drift.inverse();
  std::vector<Vec3> full, partial;
  for (const auto& p : target) {
    const Vec3 noisy = p + Vec3{rng.gaussian(0, 0.01), rng.gaussian(0, 0.01),
                                rng.gaussian(0, 0.01)};
    full.push_back(inv.to_world(noisy));
    if (p.x < 3.5) partial.push_back(inv.to_world(noisy));
  }
  for (int i = 0; i < 80; ++i) {  // outliers beyond the map
    partial.push_back({rng.uniform(7, 9), rng.uniform(-1, 5), 1});
  }

  struct Case {
    const char* name;
    const std::vector<Vec3>* source;
    IcpConfig cfg;
  };
  const Case cases[] = {
      {"full", &full, IcpConfig{}},
      {"full-untrimmed", &full, IcpConfig{.trim_fraction = 1.0}},
      {"partial", &partial, IcpConfig{.max_correspondence_dist = 0.75}},
      {"partial-trimmed", &partial,
       IcpConfig{.max_correspondence_dist = 0.75, .trim_fraction = 0.5}},
      {"full-6dof", &full, IcpConfig{.planar = false}},
      {"few-matches", &partial,
       IcpConfig{.max_correspondence_dist = 0.1, .min_correspondences = 500}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const IcpResult want = reference_icp(*c.source, target, c.cfg);
    expect_same_icp(icp_align(*c.source, target, c.cfg), want);
    PointGrid grid(icp_grid_cell(c.cfg));
    grid.add(std::span<const Vec3>(target).first(300));
    grid.add(std::span<const Vec3>(target).subspan(300));
    expect_same_icp(icp_align(*c.source, grid, c.cfg), want);
  }
}

TEST(Icp, RecoversSmallRigidTransform) {
  Rng rng(9);
  std::vector<Vec3> target;
  for (int i = 0; i < 400; ++i) {
    // Points on two perpendicular planes (gives ICP full constraints).
    if (i % 2 == 0) {
      target.push_back({rng.uniform(0, 10), rng.uniform(0, 10), 0});
    } else {
      target.push_back({rng.uniform(0, 10), 0, rng.uniform(0, 3)});
    }
  }
  const Pose truth = Pose::from_euler({0.3, -0.2, 0.1}, 0.05, 0.0, 0.0);
  std::vector<Vec3> source;
  const Pose inv = truth.inverse();
  for (const auto& p : target) source.push_back(inv.to_world(p));

  const IcpResult result = icp_align(source, target, {});
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.mean_error, 0.05);
  // Applying the recovered transform to source should land on target.
  double err = 0;
  for (std::size_t i = 0; i < source.size(); ++i) {
    err += result.transform.to_world(source[i]).distance(target[i]);
  }
  EXPECT_LT(err / static_cast<double>(source.size()), 0.05);
}

TEST(Icp, FailsGracefullyWithNoOverlap) {
  std::vector<Vec3> a{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}};
  std::vector<Vec3> b{{100, 100, 100}, {101, 100, 100}, {100, 101, 100}};
  const IcpResult result = icp_align(a, b, {});
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.correspondences, 0u);
}

}  // namespace
}  // namespace vp
