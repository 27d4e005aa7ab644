// Parameterized sweeps over configuration spaces: SIFT detector settings,
// camera geometries, link rates, and ICP modes —
// invariants that must hold at every point of each grid.
#include <gtest/gtest.h>

#include "features/sift.hpp"
#include "geometry/camera.hpp"
#include "geometry/icp.hpp"
#include "net/link.hpp"
#include "scene/texture.hpp"
#include "slam/wardrive.hpp"
#include "scene/environments.hpp"
#include "util/rng.hpp"

namespace vp {
namespace {

// ---------------------------------------------------------------------------
class SiftIntervalTest : public ::testing::TestWithParam<int> {};

TEST_P(SiftIntervalTest, DetectionWorksAndDescriptorsNormalized) {
  Rng rng(17);
  const ImageF img = painting_texture(180, 140, rng);
  SiftConfig cfg;
  cfg.intervals = GetParam();
  const auto features = sift_detect(img, cfg);
  EXPECT_GT(features.size(), 5u) << "intervals=" << cfg.intervals;
  for (const auto& f : features) {
    std::uint32_t norm2 = 0;
    for (auto v : f.descriptor) norm2 += v * v;
    // Lowe normalization: quantized norm lands in a known band.
    EXPECT_GT(norm2, 80'000u);
    EXPECT_LT(norm2, 450'000u);
    EXPECT_GE(f.keypoint.orientation, -3.1416f);
    EXPECT_LE(f.keypoint.orientation, 3.1416f);
  }
}

INSTANTIATE_TEST_SUITE_P(Intervals, SiftIntervalTest,
                         ::testing::Values(2, 3, 4, 5));

// ---------------------------------------------------------------------------
struct CamParams {
  int width, height;
  double fov;
};

/// Names each case (ctest appends it to the test id), e.g. "640x480 fov=1.15".
void PrintTo(const CamParams& p, std::ostream* os) {
  *os << p.width << "x" << p.height << " fov=" << p.fov;
}

class CameraGridTest : public ::testing::TestWithParam<CamParams> {};

TEST_P(CameraGridTest, ProjectRayConsistency) {
  const auto p = GetParam();
  CameraIntrinsics cam{p.width, p.height, p.fov};
  Rng rng(23);
  for (int i = 0; i < 50; ++i) {
    const Vec2 pixel{rng.uniform(0, p.width - 1), rng.uniform(0, p.height - 1)};
    const Vec3 ray = cam.pixel_ray(pixel);
    EXPECT_NEAR(ray.norm(), 1.0, 1e-12);
    // Walking along the ray and reprojecting returns the same pixel.
    const auto back = cam.project(ray * rng.uniform(0.5, 20.0));
    ASSERT_TRUE(back.has_value());
    EXPECT_NEAR(back->x, pixel.x, 1e-6);
    EXPECT_NEAR(back->y, pixel.y, 1e-6);
  }
  // Vertical FoV consistent with aspect ratio.
  EXPECT_LT(cam.fov_v(), cam.fov_h);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CameraGridTest,
    ::testing::Values(CamParams{640, 480, 1.15}, CamParams{1920, 1080, 1.2},
                      CamParams{320, 240, 0.8}, CamParams{920, 540, 1.5}));

// ---------------------------------------------------------------------------
class LinkRateTest : public ::testing::TestWithParam<double> {};

TEST_P(LinkRateTest, FifoInvariants) {
  const double mbps = GetParam();
  SimulatedLink link({.bandwidth_mbps = mbps, .rtt_ms = 20, .jitter_ms = 0});
  Rng rng(29);
  double prev_start = 0;
  for (int i = 0; i < 40; ++i) {
    const double submit = i * 0.05;
    const auto rec = link.submit(submit, 1000 + rng.uniform_u64(50'000));
    // FIFO: starts never regress; transfers never start before submission.
    EXPECT_GE(rec.start_time, prev_start);
    EXPECT_GE(rec.start_time, rec.submit_time);
    EXPECT_GT(rec.complete_time, rec.start_time);
    prev_start = rec.start_time;
  }
  // Conservation: everything delivered eventually.
  std::size_t total = 0;
  for (const auto& r : link.history()) total += r.bytes;
  EXPECT_EQ(link.bytes_delivered_by(1e9), total);
}

INSTANTIATE_TEST_SUITE_P(Rates, LinkRateTest,
                         ::testing::Values(0.5, 2.0, 8.0, 32.0, 1000.0));

// ---------------------------------------------------------------------------
class IcpModeTest : public ::testing::TestWithParam<bool> {};

TEST_P(IcpModeTest, RecoversYawPlusTranslation) {
  IcpConfig cfg;
  cfg.planar = GetParam();
  Rng rng(31);
  std::vector<Vec3> target;
  for (int i = 0; i < 600; ++i) {
    if (i % 3 == 0) {
      target.push_back({rng.uniform(0, 8), rng.uniform(0, 8), 0});  // floor
    } else if (i % 3 == 1) {
      target.push_back({rng.uniform(0, 8), 0, rng.uniform(0, 3)});  // wall A
    } else {
      target.push_back({0, rng.uniform(0, 8), rng.uniform(0, 3)});  // wall B
    }
  }
  // Yaw + translation misalignment: representable by BOTH modes.
  const Pose truth = Pose::from_euler({0.25, -0.15, 0.1}, 0.04, 0, 0);
  std::vector<Vec3> source;
  const Pose inv = truth.inverse();
  for (const auto& p : target) source.push_back(inv.to_world(p));

  const IcpResult result = icp_align(source, target, cfg);
  EXPECT_TRUE(result.converged) << "planar=" << cfg.planar;
  double err = 0;
  for (std::size_t i = 0; i < source.size(); ++i) {
    err += result.transform.to_world(source[i]).distance(target[i]);
  }
  EXPECT_LT(err / static_cast<double>(source.size()), 0.08)
      << "planar=" << cfg.planar;
}

INSTANTIATE_TEST_SUITE_P(Modes, IcpModeTest, ::testing::Values(true, false));

TEST(IcpPlanar, NeverTiltsThePose) {
  // Planar mode's correction must leave roll/pitch untouched even on
  // tilt-ambiguous (single-plane) clouds.
  Rng rng(37);
  std::vector<Vec3> target;
  for (int i = 0; i < 300; ++i) {
    target.push_back({rng.uniform(0, 10), rng.uniform(0, 10), 0});
  }
  std::vector<Vec3> source;
  for (const auto& p : target) source.push_back(p + Vec3{0.3, -0.2, 0});
  IcpConfig cfg;
  cfg.planar = true;
  const IcpResult result = icp_align(source, target, cfg);
  double yaw, pitch, roll;
  euler_zyx(result.transform.rotation, yaw, pitch, roll);
  EXPECT_NEAR(pitch, 0.0, 1e-9);
  EXPECT_NEAR(roll, 0.0, 1e-9);
}

// ---------------------------------------------------------------------------
TEST(WardriveSweep, ForwardViewsPresent) {
  // With views_per_stop >= 3, every third view must look along the
  // corridor (the ICP anchor views).
  Rng rng(43);
  GalleryConfig gc;
  gc.num_scenes = 4;
  gc.hall_length = 16;
  gc.hall_width = 6;
  const World world = build_gallery(gc, rng);
  WardriveConfig cfg;
  cfg.intrinsics = {100, 75, 1.15192};
  cfg.stop_spacing = 5.0;
  cfg.lane_spacing = 5.0;
  cfg.views_per_stop = 3;
  cfg.render.noise_stddev = 0;
  const auto snaps = wardrive(world, cfg, rng);
  int along = 0;
  for (const auto& s : snaps) {
    // Camera forward axis in world coordinates = third rotation column.
    const Vec3 fwd{s.true_pose.rotation.m[0][2], s.true_pose.rotation.m[1][2],
                   s.true_pose.rotation.m[2][2]};
    if (std::abs(fwd.x) > 0.8) ++along;  // looking along the hall's x axis
  }
  EXPECT_GE(along, static_cast<int>(snaps.size()) / 4);
}

}  // namespace
}  // namespace vp
