// Edge-case and failure-injection tests across modules: empty inputs,
// boundary sizes, pathological configurations, and protocol corner cases
// not covered by the per-module suites.
#include <gtest/gtest.h>

#include "core/client.hpp"
#include "core/session.hpp"
#include "features/sift.hpp"
#include "geometry/clustering.hpp"
#include "geometry/optimize.hpp"
#include "hashing/oracle.hpp"
#include "imaging/codec.hpp"
#include "imaging/filters.hpp"
#include "net/wire.hpp"
#include "scene/texture.hpp"
#include "util/stats.hpp"

namespace vp {
namespace {

TEST(EdgeSift, TinyImage) {
  // Smaller than one octave's working area: no crash, no keypoints.
  const ImageF img(24, 24, 1, 100.0f);
  EXPECT_TRUE(sift_detect(img).empty());
}

TEST(EdgeSift, SingleIntervalConfig) {
  Rng rng(1);
  const ImageF img = painting_texture(120, 90, rng);
  SiftConfig cfg;
  cfg.intervals = 1;
  EXPECT_NO_THROW(sift_detect(img, cfg));
}

TEST(EdgeSift, RejectsBadConfig) {
  const ImageF img(64, 64, 1, 100.0f);
  SiftConfig cfg;
  cfg.intervals = 0;
  EXPECT_THROW(sift_detect(img, cfg), InvalidArgument);
  EXPECT_THROW(sift_detect(ImageF{}, SiftConfig{}), InvalidArgument);
}

TEST(EdgeSift, ExtremeContrastThresholdFindsNothing) {
  Rng rng(2);
  const ImageF img = painting_texture(120, 90, rng);
  SiftConfig cfg;
  cfg.contrast_threshold = 10.0;  // impossible bar
  EXPECT_TRUE(sift_detect(img, cfg).empty());
}

TEST(EdgeClustering, SinglePoint) {
  const std::vector<Vec3> one{{1, 2, 3}};
  const auto result = cluster_points(one, {.radius = 1.0, .min_points = 1});
  ASSERT_EQ(result.clusters.size(), 1u);
  EXPECT_EQ(result.clusters[0].size(), 1u);
}

TEST(EdgeClustering, EmptyInput) {
  const std::vector<Vec3> none;
  const auto result = cluster_points(none, {});
  EXPECT_TRUE(result.clusters.empty());
  EXPECT_TRUE(result.labels.empty());
  EXPECT_TRUE(largest_cluster(none, {}).empty());
}

TEST(EdgeClustering, AllCoincidentPoints) {
  const std::vector<Vec3> same(50, Vec3{1, 1, 1});
  const auto big = largest_cluster(same, {.radius = 0.5, .min_points = 2});
  EXPECT_EQ(big.size(), 50u);
}

TEST(EdgeClustering, RejectsNonPositiveRadius) {
  const std::vector<Vec3> pts{{0, 0, 0}};
  EXPECT_THROW(cluster_points(pts, {.radius = 0.0, .min_points = 1}),
               InvalidArgument);
}

TEST(EdgeDe, OneDimensionalDegenerateBox) {
  // lo == hi: the only feasible point is returned.
  Rng rng(3);
  const double lo[2] = {2.0, -1.0};
  const double hi[2] = {2.0, -1.0};
  const auto result = differential_evolution(
      [](std::span<const double> v) { return v[0] * v[0] + v[1]; }, lo, hi,
      {}, rng);
  EXPECT_DOUBLE_EQ(result.best[0], 2.0);
  EXPECT_DOUBLE_EQ(result.best[1], -1.0);
}

TEST(EdgeDe, RejectsBadBounds) {
  Rng rng(4);
  const double lo[1] = {1.0};
  const double hi[1] = {0.0};
  EXPECT_THROW(differential_evolution(
                   [](std::span<const double>) { return 0.0; }, lo, hi, {},
                   rng),
               InvalidArgument);
  EXPECT_THROW(
      differential_evolution([](std::span<const double>) { return 0.0; }, {},
                             {}, {}, rng),
      InvalidArgument);
}

TEST(EdgeOracle, ZeroCapacityRejected) {
  OracleConfig cfg;
  cfg.capacity = 0;
  EXPECT_THROW(UniquenessOracle{cfg}, InvalidArgument);
}

TEST(EdgeOracle, SingleTableSingleHash) {
  OracleConfig cfg;
  cfg.capacity = 1'000;
  cfg.lsh.tables = 1;
  cfg.lsh.projections = 1;
  cfg.hashes = 1;
  UniquenessOracle oracle(cfg);
  Descriptor d{};
  d[0] = 50;
  oracle.insert(d);
  EXPECT_GE(oracle.count(d), 1u);
}

TEST(EdgeOracle, EmptyOracleSerializeRoundtrip) {
  OracleConfig cfg;
  cfg.capacity = 1'000;
  UniquenessOracle oracle(cfg);
  const auto back = UniquenessOracle::deserialize(oracle.serialize());
  EXPECT_EQ(back.insertions(), 0u);
}

TEST(EdgeWire, EmptyQueryRoundtrip) {
  FingerprintQuery q;  // no features at all
  const auto back = FingerprintQuery::decode(q.encode());
  EXPECT_TRUE(back.features.empty());
}

TEST(EdgeWire, EmptyFramePayload) {
  FrameUpload f;
  const auto back = FrameUpload::decode(f.encode());
  EXPECT_TRUE(back.payload.empty());
}

TEST(EdgeCodec, OneByteImage) {
  ImageU8 img(1, 1, 1, 137);
  EXPECT_EQ(png_decode(png_encode(img)), img);
  EXPECT_NO_THROW(jpeg_decode(jpeg_encode(img, 90)));
}

TEST(EdgeCodec, EncodeRejectsEmptyImage) {
  EXPECT_THROW(png_encode(ImageU8{}), InvalidArgument);
  EXPECT_THROW(jpeg_encode(ImageU8{}, 80), InvalidArgument);
}

TEST(EdgeFilters, BlurMetricOnConstantImage) {
  EXPECT_DOUBLE_EQ(variance_of_laplacian(ImageF(32, 32, 1, 77.0f)), 0.0);
  EXPECT_DOUBLE_EQ(variance_of_laplacian(ImageF(2, 2, 1, 1.0f)), 0.0);
}

TEST(EdgeClient, TopKLargerThanFeatureSet) {
  ClientConfig cfg;
  cfg.policy = SelectionPolicy::kRandom;
  VisualPrintClient client(cfg);
  std::vector<Feature> three(3);
  EXPECT_EQ(client.select_features(three, 100).size(), 3u);
}

TEST(EdgeClient, RejectsZeroTopK) {
  ClientConfig cfg;
  cfg.top_k = 0;
  EXPECT_THROW(VisualPrintClient{cfg}, InvalidArgument);
}

TEST(EdgeStats, HistogramRejectsBadRange) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), InvalidArgument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), InvalidArgument);
}

TEST(EdgeStats, CdfOfSingleValue) {
  const std::vector<double> one{5.0};
  EmpiricalCdf cdf(one);
  EXPECT_DOUBLE_EQ(cdf.at(4.9), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(5.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 5.0);
}

TEST(EdgeSession, CumulativeUploadEmpty) {
  SessionStats stats;
  EXPECT_TRUE(stats.cumulative_upload().empty());
}

}  // namespace
}  // namespace vp
