#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <filesystem>
#include <fstream>
#include <latch>
#include <thread>
#include <tuple>

#include "core/client.hpp"
#include "core/remote.hpp"
#include "core/retrieval.hpp"
#include "core/server.hpp"
#include "core/session.hpp"
#include "imaging/codec.hpp"
#include "obs/metrics.hpp"
#include "scene/texture.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace vp {
namespace {

Descriptor random_descriptor(Rng& rng) {
  Descriptor d;
  for (auto& v : d) v = static_cast<std::uint8_t>(rng.uniform_u64(80));
  return d;
}

Feature make_feature(Rng& rng, float x = 10, float y = 10) {
  Feature f;
  f.keypoint = {x, y, 2.0f, 0.0f, 1.0f, 0};
  f.descriptor = random_descriptor(rng);
  return f;
}

OracleConfig small_oracle() {
  OracleConfig cfg;
  cfg.capacity = 20'000;
  return cfg;
}

ServerConfig small_server() {
  ServerConfig cfg;
  cfg.oracle = small_oracle();
  return cfg;
}

TEST(Client, RequiresOracleForUniqueSelection) {
  ClientConfig cfg;
  cfg.top_k = 5;
  VisualPrintClient client(cfg);
  Rng rng(1);
  std::vector<Feature> fs;
  for (int i = 0; i < 10; ++i) fs.push_back(make_feature(rng));
  EXPECT_THROW(client.select_features(fs, 5), InvalidArgument);
}

TEST(Client, SelectsMostUniqueFirst) {
  UniquenessOracle oracle(small_oracle());
  Rng rng(2);
  // Common descriptor: inserted many times; unique: once.
  const Feature common = make_feature(rng);
  const Feature unique = make_feature(rng);
  for (int i = 0; i < 40; ++i) oracle.insert(common.descriptor);
  oracle.insert(unique.descriptor);

  ClientConfig cfg;
  cfg.top_k = 1;
  VisualPrintClient client(cfg);
  client.install_oracle(std::move(oracle));
  const auto picked = client.select_features({common, unique}, 1);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0].descriptor, unique.descriptor);
}

TEST(Client, RandomPolicyDeterministicPerSeed) {
  ClientConfig cfg;
  cfg.policy = SelectionPolicy::kRandom;
  VisualPrintClient a(cfg, 7), b(cfg, 7);
  Rng rng(3);
  std::vector<Feature> fs;
  for (int i = 0; i < 30; ++i) fs.push_back(make_feature(rng));
  const auto sa = a.select_features(fs, 10);
  const auto sb = b.select_features(fs, 10);
  ASSERT_EQ(sa.size(), 10u);
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].descriptor, sb[i].descriptor);
  }
}

TEST(Client, AllPolicyKeepsEverything) {
  ClientConfig cfg;
  cfg.policy = SelectionPolicy::kAll;
  VisualPrintClient client(cfg);
  Rng rng(4);
  std::vector<Feature> fs;
  for (int i = 0; i < 30; ++i) fs.push_back(make_feature(rng));
  EXPECT_EQ(client.select_features(fs, 10).size(), 30u);
}

TEST(Client, BlurGateRejects) {
  ClientConfig cfg;
  cfg.blur_threshold = 50.0;
  VisualPrintClient client(cfg);
  const ImageF flat(64, 64, 1, 128.0f);  // zero Laplacian variance
  const auto result = client.process_frame(flat, 0.0, 0.0);
  EXPECT_EQ(result.status, FrameResult::Status::kBlurRejected);
  EXPECT_FALSE(result.query.has_value());
}

TEST(Client, StaleFrameRejectedBeforeWork) {
  ClientConfig cfg;
  cfg.stale_frame_budget_s = 0.1;
  VisualPrintClient client(cfg);
  const ImageF frame(64, 64, 1, 128.0f);
  const auto result = client.process_frame(frame, 0.0, 5.0);
  EXPECT_EQ(result.status, FrameResult::Status::kStale);
  EXPECT_EQ(result.sift_ms, 0.0);
}

TEST(Client, ProcessFrameProducesQuery) {
  ClientConfig cfg;
  cfg.top_k = 50;
  cfg.blur_threshold = 1.0;
  VisualPrintClient client(cfg);
  client.install_oracle(UniquenessOracle(small_oracle()));
  Rng rng(5);
  const ImageF frame = painting_texture(200, 150, rng);
  const auto result = client.process_frame(frame, 1.0, 1.0);
  ASSERT_EQ(result.status, FrameResult::Status::kQueued);
  ASSERT_TRUE(result.query.has_value());
  EXPECT_GT(result.total_keypoints, 0u);
  EXPECT_LE(result.query->features.size(), 50u);
  EXPECT_EQ(result.query->image_width, 200);
  EXPECT_GT(result.sift_ms, 0.0);
}

#if VP_OBS_ENABLED
TEST(Client, CountsOnlyFramesWhoseSelectionIsSkipped) {
  const auto skipped = [] {
    return obs::Registry::global()
        .counter("client.frames_select_skipped")
        .value();
  };
  Rng rng(5);
  const ImageF textured = painting_texture(200, 150, rng);
  const ImageF flat(64, 64, 1, 128.0f);
  // Runs one frame through a fresh client; returns its status, keypoint
  // count and how much the counter moved.
  const auto run = [&](const ImageF& frame, std::size_t top_k,
                       double blur_threshold) {
    ClientConfig cfg;
    cfg.top_k = top_k;
    cfg.blur_threshold = blur_threshold;
    VisualPrintClient client(cfg);
    client.install_oracle(UniquenessOracle(small_oracle()));
    const std::uint64_t before = skipped();
    const FrameResult r = client.process_frame(frame, 1.0, 1.0);
    return std::tuple{r.status, r.total_keypoints, skipped() - before};
  };

  const auto [ran, keypoints, ran_count] = run(textured, 1, 1.0);
  ASSERT_EQ(ran, FrameResult::Status::kQueued);
  ASSERT_GT(keypoints, 1u);
  EXPECT_EQ(ran_count, 0u) << "selection ran: more keypoints than top_k";
  EXPECT_EQ(std::get<2>(run(textured, keypoints - 1, 1.0)), 0u);
  EXPECT_EQ(std::get<2>(run(textured, keypoints, 1.0)), 1u);
  EXPECT_EQ(std::get<2>(run(textured, keypoints + 10, 1.0)), 1u);

  // Frames that stop before selection are not counted.
  const auto blurred = run(textured, keypoints + 10, 1e12);
  EXPECT_EQ(std::get<0>(blurred), FrameResult::Status::kBlurRejected);
  EXPECT_EQ(std::get<2>(blurred), 0u);
  const auto featureless = run(flat, 50, 0.0);
  EXPECT_EQ(std::get<0>(featureless), FrameResult::Status::kNoFeatures);
  EXPECT_EQ(std::get<2>(featureless), 0u);
}
#endif

TEST(Server, IngestAndOracleGrow) {
  VisualPrintServer server(small_server());
  Rng rng(6);
  for (int i = 0; i < 10; ++i) {
    server.ingest(make_feature(rng), {1.0 * i, 0, 1}, i % 3, 0);
  }
  EXPECT_EQ(server.keypoint_count(), 10u);
  EXPECT_EQ(server.oracle().insertions(), 10u);
  EXPECT_EQ(server.scene_count(), 3);
}

TEST(Server, SceneVotesFavorMatchingScene) {
  VisualPrintServer server(small_server());
  Rng rng(7);
  std::vector<Feature> scene_a, scene_b;
  for (int i = 0; i < 20; ++i) {
    scene_a.push_back(make_feature(rng));
    scene_b.push_back(make_feature(rng));
    server.ingest(scene_a.back(), {0, 0, 0}, 0, 0);
    server.ingest(scene_b.back(), {5, 0, 0}, 1, 0);
  }
  const auto votes = server.scene_votes(scene_a);
  ASSERT_EQ(votes.size(), 2u);
  EXPECT_GT(votes[0], votes[1] + 10);
}

TEST(Server, LocalizeQueryRecoversPosition) {
  ServerConfig cfg = small_server();
  cfg.localize.search_lo = {-10, -10, 0};
  cfg.localize.search_hi = {10, 10, 3};
  cfg.localize.de.time_budget_sec = 1.0;
  cfg.clustering.radius = 5.0;
  VisualPrintServer server(cfg);

  // Ground truth: camera at known pose looking at landmarks; ingest the
  // landmarks, then query with their projections.
  CameraIntrinsics intr{640, 480, 1.15};
  const Pose cam_pose = Pose::from_euler({2, 3, 1.5}, 0.3, 0, 0);
  Rng rng(8);
  FingerprintQuery q;
  q.image_width = 640;
  q.image_height = 480;
  q.fov_h = 1.15f;
  for (int i = 0; i < 25; ++i) {
    const Vec3 body{rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0),
                    rng.uniform(2.0, 6.0)};
    const auto px = intr.project(body);
    if (!px) continue;
    Feature f = make_feature(rng, static_cast<float>(px->x),
                             static_cast<float>(px->y));
    server.ingest(f, cam_pose.to_world(body), 0, 0);
    q.features.push_back(f);
  }
  ASSERT_GE(q.features.size(), 10u);
  Rng solve_rng(9);
  const LocationResponse resp = server.localize_query(q, solve_rng);
  ASSERT_TRUE(resp.found);
  EXPECT_LT(resp.position.distance({2, 3, 1.5}), 0.5);
}

TEST(Server, LocalizeFailsWithNoMatches) {
  VisualPrintServer server(small_server());
  Rng rng(10);
  FingerprintQuery q;
  q.features.push_back(make_feature(rng));
  Rng solve_rng(11);
  EXPECT_FALSE(server.localize_query(q, solve_rng).found);
}

TEST(Server, OracleSnapshotInstallsOnClient) {
  VisualPrintServer server(small_server());
  Rng rng(12);
  const Feature f = make_feature(rng);
  for (int i = 0; i < 5; ++i) server.ingest(f, {0, 0, 0}, 0, 0);
  const auto snapshot = server.oracle_snapshot();

  VisualPrintClient client({});
  client.install_oracle(snapshot);
  ASSERT_TRUE(client.has_oracle());
  EXPECT_GE(client.oracle()->count(f.descriptor), 4u);
}

TEST(Server, SaveLoadRoundtrip) {
  namespace fs = std::filesystem;
  ServerConfig cfg = small_server();
  cfg.place_label = "persistence test";
  VisualPrintServer server(cfg);
  Rng rng(31);
  std::vector<Feature> feats;
  for (int i = 0; i < 30; ++i) {
    feats.push_back(make_feature(rng));
    server.ingest(feats.back(), {1.0 * i, 2.0, 0.5}, i % 4, 9);
  }
  const auto path = (fs::temp_directory_path() / "vp_server_test.db").string();
  server.save(path);
  VisualPrintServer loaded = VisualPrintServer::load(path);
  fs::remove(path);

  EXPECT_EQ(loaded.keypoint_count(), 30u);
  EXPECT_EQ(loaded.scene_count(), 4);
  EXPECT_EQ(loaded.oracle().insertions(), 30u);
  // Stored metadata survives.
  EXPECT_DOUBLE_EQ(loaded.stored(7).position.x, 7.0);
  EXPECT_EQ(loaded.stored(7).scene_id, 3);
  // The rebuilt index answers queries identically.
  const auto votes = loaded.scene_votes(feats);
  EXPECT_EQ(votes, server.scene_votes(feats));
  // The oracle scores identically.
  for (const auto& f : feats) {
    EXPECT_EQ(loaded.oracle().count(f.descriptor),
              server.oracle().count(f.descriptor));
  }
}

TEST(Server, LoadRejectsCorruptFile) {
  ServerConfig cfg = small_server();
  VisualPrintServer server(cfg);
  Rng rng(32);
  server.ingest(make_feature(rng), {0, 0, 0}, 0, 0);
  Bytes blob = server.serialize();
  blob[1] ^= 0xFF;
  EXPECT_THROW(VisualPrintServer::deserialize(blob), DecodeError);
  blob[1] ^= 0xFF;
  blob.resize(blob.size() / 2);
  EXPECT_THROW(VisualPrintServer::deserialize(blob), DecodeError);
}

// --- MapStore: the sharded, snapshot-isolated server core ------------------

std::vector<KeypointMapping> random_mappings(Rng& rng, int n, Vec3 base) {
  std::vector<KeypointMapping> ms;
  ms.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ms.push_back({make_feature(rng), base + Vec3{0.1 * i, 0, 0},
                  static_cast<std::uint32_t>(i)});
  }
  return ms;
}

/// A localizable place: mappings seen from a known camera pose, plus the
/// query whose features project those same landmarks.
struct PlaceFixture {
  std::vector<KeypointMapping> mappings;
  FingerprintQuery query;
  Vec3 true_position;
};

PlaceFixture make_place_fixture(Rng& rng, Vec3 cam_pos) {
  const CameraIntrinsics intr{640, 480, 1.15};
  const Pose cam_pose = Pose::from_euler(cam_pos, 0.3, 0, 0);
  PlaceFixture fx;
  fx.true_position = cam_pos;
  fx.query.image_width = 640;
  fx.query.image_height = 480;
  fx.query.fov_h = 1.15f;
  for (int i = 0; i < 25; ++i) {
    const Vec3 body{rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0),
                    rng.uniform(2.0, 6.0)};
    const auto px = intr.project(body);
    if (!px) continue;
    Feature f = make_feature(rng, static_cast<float>(px->x),
                             static_cast<float>(px->y));
    fx.mappings.push_back({f, cam_pose.to_world(body), 0});
    fx.query.features.push_back(f);
  }
  return fx;
}

ServerConfig localizing_server() {
  ServerConfig cfg = small_server();
  cfg.localize.search_lo = {-10, -10, 0};
  cfg.localize.search_hi = {10, 10, 3};
  // Generation/tolerance-bounded, never wall-clock-bounded: a time budget
  // truncates the solve at a load-dependent generation, which would make
  // these tests (one asserts bit-identical serial-vs-pooled answers)
  // flaky on a busy CI box.
  cfg.localize.de.time_budget_sec = 1e9;
  cfg.clustering.radius = 5.0;
  return cfg;
}

TEST(MapStore, SnapshotIsolationAndEpochBump) {
  VisualPrintServer server(small_server());
  MapStore& store = server.store();
  Rng rng(41);

  store.ingest_wardrive("hall", random_mappings(rng, 10, {0, 0, 0}));
  const auto first = store.snapshot("hall");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->stored.size(), 10u);
  EXPECT_EQ(first->epoch, 1u);

  store.ingest_wardrive("hall", random_mappings(rng, 5, {5, 0, 0}));
  // The earlier snapshot is immutable: in-flight queries keep reading the
  // exact state they started with.
  EXPECT_EQ(first->stored.size(), 10u);
  EXPECT_EQ(first->epoch, 1u);
  const auto second = store.snapshot("hall");
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->stored.size(), 15u);
  EXPECT_EQ(second->epoch, 2u);
  EXPECT_EQ(store.epoch("hall"), 2u);
  EXPECT_GE(store.swap_count(), 2u);
}

TEST(MapStore, SingleIngestsVisibleOnNextRead) {
  VisualPrintServer server(small_server());
  Rng rng(42);
  // The legacy unplaced ingest loop buffers into the default builder and
  // publishes lazily; reads must still see their own writes.
  for (int i = 0; i < 8; ++i) {
    server.ingest(make_feature(rng), {1.0 * i, 0, 1}, i % 2, 0);
  }
  EXPECT_EQ(server.keypoint_count(), 8u);
  const auto shard = server.store().snapshot(server.store().default_place());
  ASSERT_NE(shard, nullptr);
  EXPECT_EQ(shard->stored.size(), 8u);
}

TEST(MapStore, TargetedAndFanoutQueries) {
  Rng rng(43);
  ServerConfig cfg = localizing_server();
  VisualPrintServer server(cfg);

  PlaceFixture a = make_place_fixture(rng, {2, 3, 1.5});
  PlaceFixture b = make_place_fixture(rng, {-5, -4, 1.2});
  ASSERT_GE(a.query.features.size(), 10u);
  ASSERT_GE(b.query.features.size(), 10u);

  ServerConfig cfg_a = cfg, cfg_b = cfg;
  cfg_a.place_label = "Wing A";
  cfg_b.place_label = "Wing B";
  server.ingest_wardrive("wing-a", a.mappings, &cfg_a);
  server.ingest_wardrive("wing-b", b.mappings, &cfg_b);
  EXPECT_EQ(server.store().place_count(), 3u);  // default + 2 wings

  // Targeted: each query routes to its shard and recovers its pose.
  a.query.place = "wing-a";
  Rng rng_a(44);
  const LocationResponse ra = server.localize_query(a.query, rng_a);
  ASSERT_TRUE(ra.found);
  EXPECT_EQ(ra.place, "wing-a");
  EXPECT_EQ(ra.place_label, "Wing A");
  EXPECT_LT(ra.position.distance(a.true_position), 0.5);

  b.query.place = "wing-b";
  Rng rng_b(45);
  const LocationResponse rb = server.localize_query(b.query, rng_b);
  ASSERT_TRUE(rb.found);
  EXPECT_EQ(rb.place, "wing-b");
  EXPECT_LT(rb.position.distance(b.true_position), 0.5);

  // Fan-out: an unplaced query is answered by the best-scoring shard.
  FingerprintQuery fan = a.query;
  fan.place.clear();
  Rng rng_fan(46);
  const LocationResponse rf = server.localize_query(fan, rng_fan);
  ASSERT_TRUE(rf.found);
  EXPECT_EQ(rf.place, "wing-a");
  EXPECT_LT(rf.position.distance(a.true_position), 0.5);
}

TEST(MapStore, FanoutDeterministicAcrossPoolSizes) {
  Rng rng(47);
  const PlaceFixture a = make_place_fixture(rng, {2, 3, 1.5});
  const PlaceFixture b = make_place_fixture(rng, {-5, -4, 1.2});

  auto run = [&](ThreadPool* pool) {
    ServerConfig cfg = localizing_server();
    cfg.pool = pool;
    VisualPrintServer server(cfg);
    server.ingest_wardrive("wing-a", a.mappings);
    server.ingest_wardrive("wing-b", b.mappings);
    FingerprintQuery fan = a.query;  // place empty -> fan out
    Rng qrng(48);
    return server.localize_query(fan, qrng);
  };

  ThreadPool pool(4);
  const LocationResponse serial = run(nullptr);
  const LocationResponse parallel = run(&pool);
  EXPECT_EQ(serial.found, parallel.found);
  EXPECT_EQ(serial.place, parallel.place);
  EXPECT_DOUBLE_EQ(serial.position.x, parallel.position.x);
  EXPECT_DOUBLE_EQ(serial.position.y, parallel.position.y);
  EXPECT_DOUBLE_EQ(serial.position.z, parallel.position.z);
  EXPECT_DOUBLE_EQ(serial.residual, parallel.residual);
}

TEST(MapStore, EmptyAndUnknownPlacesAnswerStructuredMiss) {
  VisualPrintServer server(small_server());
  Rng rng(49);
  FingerprintQuery q;
  q.frame_id = 77;
  q.features.push_back(make_feature(rng));

  // Empty map, unplaced query: a clean no-fix, never a throw.
  Rng r1(50);
  const LocationResponse empty = server.localize_query(q, r1);
  EXPECT_FALSE(empty.found);
  EXPECT_EQ(empty.frame_id, 77u);

  // Unknown place: same contract.
  q.place = "never-wardriven";
  Rng r2(51);
  const LocationResponse unknown = server.localize_query(q, r2);
  EXPECT_FALSE(unknown.found);

  // And over the request protocol it must be a LocationResponse frame,
  // not a VPE! error.
  ByteWriter w;
  w.u8(kQueryRequest);
  w.raw(q.encode());
  const Bytes reply = server.handle_request(w.bytes(), 1);
  ASSERT_FALSE(is_error_frame(reply));
  EXPECT_FALSE(LocationResponse::decode(reply).found);
}

TEST(MapStore, StaleOracleRejectedOverProtocol) {
  VisualPrintServer server(small_server());
  Rng rng(52);
  server.ingest_wardrive("hall", random_mappings(rng, 10, {0, 0, 0}));

  const OracleDownload download = server.oracle_snapshot("hall");
  EXPECT_EQ(download.place, "hall");
  EXPECT_EQ(download.epoch, 1u);

  // Republish: the downloaded epoch is now stale.
  server.ingest_wardrive("hall", random_mappings(rng, 5, {1, 0, 0}));

  FingerprintQuery q;
  q.place = "hall";
  q.oracle_epoch = download.epoch;
  q.features.push_back(make_feature(rng));
  ByteWriter w;
  w.u8(kQueryRequest);
  w.raw(q.encode());
  const Bytes reply = server.handle_request(w.bytes(), 1);
  ASSERT_TRUE(is_error_frame(reply));
  EXPECT_EQ(ErrorResponse::decode(reply).code, ErrorResponse::kStaleOracle);

  // Epoch 0 (no oracle installed) always passes the check.
  q.oracle_epoch = 0;
  ByteWriter w2;
  w2.u8(kQueryRequest);
  w2.raw(q.encode());
  EXPECT_FALSE(is_error_frame(server.handle_request(w2.bytes(), 1)));
}

TEST(MapStore, RemoteLocalizerRecoversFromStaleOracle) {
  Rng rng(53);
  ServerConfig cfg = localizing_server();
  VisualPrintServer server(cfg);
  PlaceFixture fx = make_place_fixture(rng, {2, 3, 1.5});
  ASSERT_GE(fx.query.features.size(), 10u);
  server.ingest_wardrive("hall", fx.mappings);

  RemoteLocalizer localizer([&server](std::span<const std::uint8_t> req) {
    return server.handle_request(req, 7);
  });
  VisualPrintClient client({});
  localizer.on_oracle_refresh(
      [&client](const OracleDownload& d) { client.install_oracle(d); });

  const OracleDownload first = localizer.fetch_oracle("hall");
  EXPECT_EQ(first.epoch, 1u);
  EXPECT_EQ(client.oracle_place(), "hall");
  EXPECT_EQ(client.oracle_epoch(), 1u);

  // The map is republished behind the client's back.
  server.ingest_wardrive("hall", fx.mappings);
  EXPECT_EQ(server.store().epoch("hall"), 2u);

  fx.query.place = "hall";
  fx.query.oracle_epoch = first.epoch;  // stale
  const LocationResponse resp = localizer.localize(fx.query);
  ASSERT_TRUE(resp.found);
  EXPECT_LT(resp.position.distance(fx.true_position), 0.5);
  EXPECT_EQ(localizer.stale_refreshes(), 1u);
  EXPECT_EQ(localizer.known_epoch("hall"), 2u);
  // The refresh hook re-installed the fresh oracle into the client.
  EXPECT_EQ(client.oracle_epoch(), 2u);
}

TEST(CompactUplink, CompactQueryLocalizesEndToEnd) {
  Rng rng(60);
  ServerConfig cfg = localizing_server();
  cfg.index.pq.enabled = true;
  VisualPrintServer server(cfg);
  PlaceFixture fx = make_place_fixture(rng, {2, 3, 1.5});
  ASSERT_GE(fx.query.features.size(), 10u);
  server.ingest_wardrive("hall", fx.mappings);
  ASSERT_EQ(server.store().storage_mode("hall"), "pq");

  RemoteLocalizer localizer([&server](std::span<const std::uint8_t> req) {
    return server.handle_request(req, 7);
  });
  localizer.enable_compact_uplink();
  const OracleDownload download = localizer.fetch_oracle("hall");
  // A PQ place ships its codebook with the oracle.
  ASSERT_EQ(download.codebook.size(), kPqCodebookBytes);
  EXPECT_TRUE(localizer.has_codebook("hall"));

  fx.query.place = "hall";
  fx.query.oracle_epoch = download.epoch;
  const LocationResponse resp = localizer.localize(fx.query);
  ASSERT_TRUE(resp.found);
  // Few stored descriptors -> every one is (close to) its own centroid, so
  // the reconstructed query ranks like the raw one and the solve succeeds.
  EXPECT_LT(resp.position.distance(fx.true_position), 0.5);
  EXPECT_EQ(localizer.compact_queries(), 1u);

  // Symmetric-ADC serving is bit-identical: flipping the runtime knob and
  // re-asking the same frame must reproduce the very same fix.
  server.store().set_compact_symmetric(true);
  const LocationResponse resp2 = localizer.localize(fx.query);
  ASSERT_TRUE(resp2.found);
  EXPECT_DOUBLE_EQ(resp2.position.x, resp.position.x);
  EXPECT_DOUBLE_EQ(resp2.position.y, resp.position.y);
  EXPECT_DOUBLE_EQ(resp2.position.z, resp.position.z);
  EXPECT_DOUBLE_EQ(resp2.residual, resp.residual);
  EXPECT_EQ(localizer.compact_queries(), 2u);
}

TEST(CompactUplink, StaleCodebookRefreshesTransparently) {
  Rng rng(61);
  ServerConfig cfg = localizing_server();
  cfg.index.pq.enabled = true;
  VisualPrintServer server(cfg);
  PlaceFixture fx = make_place_fixture(rng, {2, 3, 1.5});
  ASSERT_GE(fx.query.features.size(), 10u);
  server.ingest_wardrive("hall", fx.mappings);

  RemoteLocalizer localizer([&server](std::span<const std::uint8_t> req) {
    return server.handle_request(req, 7);
  });
  localizer.enable_compact_uplink();
  VisualPrintClient client({});
  localizer.on_oracle_refresh(
      [&client](const OracleDownload& d) { client.install_oracle(d); });
  const OracleDownload first = localizer.fetch_oracle("hall");
  EXPECT_EQ(first.epoch, 1u);
  // The codebook rides the download into the client's per-place cache too.
  EXPECT_EQ(client.codebook_blob().size(), kPqCodebookBytes);

  // Republish behind the client's back: epoch 2. The client's cached
  // codebook epoch is now stale; the server must refuse to guess.
  server.ingest_wardrive("hall", fx.mappings);
  EXPECT_EQ(server.store().epoch("hall"), 2u);

  fx.query.place = "hall";
  fx.query.oracle_epoch = first.epoch;  // stale, like the codebook
  const LocationResponse resp = localizer.localize(fx.query);
  ASSERT_TRUE(resp.found);
  EXPECT_LT(resp.position.distance(fx.true_position), 0.5);
  // One transparent refresh; both the first attempt and the re-encoded
  // resend went out compact.
  EXPECT_EQ(localizer.stale_refreshes(), 1u);
  EXPECT_EQ(localizer.known_epoch("hall"), 2u);
  EXPECT_EQ(localizer.compact_queries(), 2u);
  EXPECT_EQ(client.oracle_epoch(), 2u);
}

TEST(CompactUplink, FallsBackToRawWithoutCodebook) {
  Rng rng(62);
  ServerConfig cfg = localizing_server();  // exact storage: no codebook
  VisualPrintServer server(cfg);
  PlaceFixture fx = make_place_fixture(rng, {2, 3, 1.5});
  ASSERT_GE(fx.query.features.size(), 10u);
  server.ingest_wardrive("hall", fx.mappings);

  RemoteLocalizer localizer([&server](std::span<const std::uint8_t> req) {
    return server.handle_request(req, 7);
  });
  localizer.enable_compact_uplink();
  const OracleDownload download = localizer.fetch_oracle("hall");
  EXPECT_TRUE(download.codebook.empty());
  EXPECT_FALSE(localizer.has_codebook("hall"));

  // Compact uplink is enabled but unusable for this place: the query must
  // fall back to the raw wire format and still localize.
  fx.query.place = "hall";
  fx.query.oracle_epoch = download.epoch;
  const LocationResponse resp = localizer.localize(fx.query);
  ASSERT_TRUE(resp.found);
  EXPECT_LT(resp.position.distance(fx.true_position), 0.5);
  EXPECT_EQ(localizer.compact_queries(), 0u);
  EXPECT_EQ(localizer.stale_refreshes(), 0u);
}

TEST(MapStore, ClientCachesOraclePerPlace) {
  VisualPrintServer server(small_server());
  Rng rng(54);
  server.ingest_wardrive("wing-a", random_mappings(rng, 8, {0, 0, 0}));
  server.ingest_wardrive("wing-b", random_mappings(rng, 8, {5, 0, 0}));

  VisualPrintClient client({});
  client.install_oracle(server.oracle_snapshot("wing-a"));
  client.install_oracle(server.oracle_snapshot("wing-b"));
  EXPECT_EQ(client.cached_oracle_count(), 2u);
  EXPECT_EQ(client.oracle_place(), "wing-b");

  ASSERT_TRUE(client.select_place("wing-a"));
  EXPECT_EQ(client.oracle_place(), "wing-a");
  EXPECT_EQ(client.oracle_epoch(), 1u);
  EXPECT_FALSE(client.select_place("wing-c"));
  EXPECT_EQ(client.oracle_place(), "wing-a");  // unchanged on failure
}

TEST(MapStore, SaveLoadRoundtripMultiPlace) {
  namespace fs = std::filesystem;
  VisualPrintServer server(small_server());
  Rng rng(55);
  server.ingest_wardrive("wing-a", random_mappings(rng, 12, {0, 0, 0}));
  server.ingest_wardrive("wing-b", random_mappings(rng, 7, {5, 0, 0}));
  server.ingest_wardrive("wing-b", random_mappings(rng, 3, {6, 0, 0}));

  const auto path =
      (fs::temp_directory_path() / "vp_map_store_test.db").string();
  server.save(path);
  VisualPrintServer loaded = VisualPrintServer::load(path);
  fs::remove(path);

  EXPECT_EQ(loaded.store().default_place(), server.store().default_place());
  EXPECT_EQ(loaded.places(), server.places());
  const auto a = loaded.store().snapshot("wing-a");
  const auto b = loaded.store().snapshot("wing-b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->stored.size(), 12u);
  EXPECT_EQ(b->stored.size(), 10u);
  // Exact-mode shards stay exact, with PQ disabled in their restored config.
  EXPECT_EQ(loaded.store().storage_mode("wing-a"), "exact");
  EXPECT_FALSE(a->config.index.pq.enabled);
  // Publish epochs survive the round-trip: clients holding pre-save
  // oracles are still told the truth about staleness.
  EXPECT_EQ(a->epoch, 1u);
  EXPECT_EQ(b->epoch, 2u);
  EXPECT_EQ(loaded.oracle_snapshot("wing-b").epoch, 2u);
}

TEST(MapStore, LoadShardsMergesDatabases) {
  namespace fs = std::filesystem;
  Rng rng(56);
  const auto path_a =
      (fs::temp_directory_path() / "vp_map_store_a.db").string();
  const auto path_b =
      (fs::temp_directory_path() / "vp_map_store_b.db").string();
  {
    VisualPrintServer s(small_server());
    s.ingest_wardrive("wing-a", random_mappings(rng, 6, {0, 0, 0}));
    s.save(path_a);
  }
  {
    VisualPrintServer s(small_server());
    s.ingest_wardrive("wing-b", random_mappings(rng, 9, {5, 0, 0}));
    s.save(path_b);
  }
  VisualPrintServer merged = VisualPrintServer::load(path_a);
  merged.load_shards(path_b);
  fs::remove(path_a);
  fs::remove(path_b);

  ASSERT_NE(merged.store().snapshot("wing-a"), nullptr);
  ASSERT_NE(merged.store().snapshot("wing-b"), nullptr);
  EXPECT_EQ(merged.store().snapshot("wing-a")->stored.size(), 6u);
  EXPECT_EQ(merged.store().snapshot("wing-b")->stored.size(), 9u);
}

TEST(MapStore, TruncatedShardBlobRejected) {
  VisualPrintServer server(small_server());
  Rng rng(58);
  server.ingest_wardrive("hall", random_mappings(rng, 5, {0, 0, 0}));
  const Bytes blob = server.serialize();

  // Any truncation inside the shard blobs must throw, never misparse.
  for (std::size_t cut = 8; cut < blob.size(); cut += 97) {
    Bytes t(blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(VisualPrintServer::deserialize(t), DecodeError) << cut;
  }

  // A lying shard-record length field (the first record starts after
  // magic + version + the total-file-size field + default place
  // string + shard count).
  Bytes lie = blob;
  ByteReader r(lie);
  r.u32();
  r.u16();
  r.u64();
  (void)r.str();
  r.u32();
  const std::size_t len_off = lie.size() - r.remaining();
  for (std::size_t i = 0; i < 4; ++i) lie[len_off + i] = 0xFF;
  EXPECT_THROW(VisualPrintServer::deserialize(lie), DecodeError);
}

ServerConfig pq_server() {
  ServerConfig cfg = small_server();
  cfg.index.multiprobe = true;
  cfg.index.pq.enabled = true;
  cfg.index.pq.rerank_depth = 8;
  return cfg;
}

TEST(MapStore, PqShardSaveLoadRoundtripStaysQueryReady) {
  ServerConfig cfg = pq_server();
  VisualPrintServer server(cfg);
  Rng rng(61);
  server.store().ingest_wardrive("gallery", random_mappings(rng, 40, {0, 0, 0}),
                                 &cfg);
  ASSERT_EQ(server.store().storage_mode("gallery"), "pq");
  const auto before = server.store().snapshot("gallery");
  ASSERT_NE(before, nullptr);
  ASSERT_TRUE(before->index.pq_ready());

  VisualPrintServer loaded = VisualPrintServer::deserialize(server.serialize());
  EXPECT_EQ(loaded.store().storage_mode("gallery"), "pq");
  const auto after = loaded.store().snapshot("gallery");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->epoch, before->epoch);
  EXPECT_EQ(after->config.index.pq.rerank_depth, 8u);
  // The codebook and codes come back byte-identical — restored, not
  // retrained — so ADC rankings survive the roundtrip exactly.
  ASSERT_TRUE(after->index.pq_ready());
  const auto raw_a = before->index.pq_codebook().raw();
  const auto raw_b = after->index.pq_codebook().raw();
  ASSERT_EQ(raw_a.size(), raw_b.size());
  EXPECT_TRUE(std::equal(raw_a.begin(), raw_a.end(), raw_b.begin()));
  const auto codes_a = before->index.pq_codes();
  const auto codes_b = after->index.pq_codes();
  ASSERT_EQ(codes_a.size(), codes_b.size());
  EXPECT_TRUE(std::equal(codes_a.begin(), codes_a.end(), codes_b.begin()));
  // And queries agree match-for-match.
  for (std::uint32_t id = 0; id < 40; id += 7) {
    const auto qa = before->index.query(before->index.descriptor(id), 3);
    const auto qb = after->index.query(after->index.descriptor(id), 3);
    ASSERT_EQ(qa.size(), qb.size());
    for (std::size_t j = 0; j < qa.size(); ++j) {
      EXPECT_EQ(qa[j].id, qb[j].id);
      EXPECT_EQ(qa[j].distance2, qb[j].distance2);
    }
  }
}

TEST(MapStore, PqDatabaseTruncationRejected) {
  ServerConfig cfg = pq_server();
  VisualPrintServer server(cfg);
  Rng rng(62);
  server.store().ingest_wardrive("gallery", random_mappings(rng, 12, {0, 0, 0}),
                                 &cfg);
  const Bytes blob = server.serialize();
  ASSERT_NO_THROW(VisualPrintServer::deserialize(blob));
  // Every prefix truncation of a PQ-carrying database must throw — the
  // codebook and codes blobs are inside the cut range for the late cuts.
  for (std::size_t cut = 8; cut < blob.size(); cut += 97) {
    Bytes t(blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(VisualPrintServer::deserialize(t), DecodeError) << cut;
  }
}

/// A complete single-shard database ("gallery", PQ mode) written field
/// by field: `codebook_raw` is zlib'd into the shard record and
/// `codes_raw` becomes the codes segment verbatim, so callers can write
/// deliberately wrong sizes. Segment checksums are correct.
Bytes db_with_pq_section(std::span<const Feature> feats,
                            const UniquenessOracle& oracle,
                            std::span<const std::uint8_t> codebook_raw,
                            std::span<const std::uint8_t> codes_raw) {
  const auto n = static_cast<std::uint32_t>(feats.size());
  ByteWriter meta;
  meta.str("gallery");  // place label
  LshIndexConfig index_cfg;
  meta.u16(static_cast<std::uint16_t>(index_cfg.lsh.tables));
  meta.u16(static_cast<std::uint16_t>(index_cfg.lsh.projections));
  meta.f64(index_cfg.lsh.width);
  meta.u64(index_cfg.lsh.seed);
  meta.u8(0);  // multiprobe
  meta.u32(static_cast<std::uint32_t>(index_cfg.max_candidates));
  meta.u32(2);       // neighbors_per_keypoint
  meta.u32(65'000);  // max_match_distance2
  meta.u8(1);        // pq.enabled
  meta.u32(8);       // pq.rerank_depth
  meta.u32(8);       // pq.train.iterations
  meta.u32(2048);    // pq.train.max_samples
  meta.u64(1);       // pq.train.seed
  meta.u32(1);       // epoch
  meta.u32(n);       // oracle_version
  meta.u32(n);       // keypoint count
  meta.u8(1);        // has_pq

  ByteWriter descriptors, keypoints;
  for (const Feature& f : feats) {
    descriptors.raw(std::span<const std::uint8_t>(f.descriptor.data(),
                                                  f.descriptor.size()));
    keypoints.f64(0.0);
    keypoints.f64(0.0);
    keypoints.f64(0.0);
    keypoints.i32(-1);  // scene_id
    keypoints.u32(0);   // source_id
  }
  const std::span<const std::uint8_t> segments[3] = {
      descriptors.bytes(), keypoints.bytes(), codes_raw};

  // The header's fields are fixed-width, so it can be sized with
  // placeholder offsets first; segments then follow at 4096-byte
  // boundaries.
  std::uint64_t offsets[3] = {0, 0, 0};
  const auto header = [&](std::uint64_t file_size) {
    ByteWriter rec;
    rec.str("gallery");
    rec.blob(zlib_compress(meta.bytes(), 6));
    rec.blob(zlib_compress(oracle.serialize(), 6));
    rec.blob(zlib_compress(codebook_raw, 6));
    rec.u8(3);
    for (std::uint8_t kind = 0; kind < 3; ++kind) {
      rec.u8(kind);
      rec.u64(offsets[kind]);
      rec.u64(segments[kind].size());
      rec.u32(crc32_of(segments[kind]));
    }
    ByteWriter w;
    w.u32(0x56504442u);  // "VPDB"
    w.u16(5);
    w.u64(file_size);
    w.str("gallery");  // default place
    w.u32(1);          // shard count
    w.blob(rec.bytes());
    return w.take();
  };
  std::size_t cursor = header(0).size();
  for (int k = 0; k < 3; ++k) {
    cursor = (cursor + 4095) & ~std::size_t{4095};
    offsets[k] = cursor;
    cursor += segments[k].size();
  }
  Bytes out = header(cursor);
  out.resize(cursor, 0);
  for (int k = 0; k < 3; ++k) {
    std::copy(segments[k].begin(), segments[k].end(),
              out.begin() + static_cast<std::ptrdiff_t>(offsets[k]));
  }
  return out;
}

TEST(MapStore, CorruptPqSectionRejectedNotHalfLoaded) {
  namespace fs = std::filesystem;
  Rng rng(63);
  UniquenessOracle oracle(small_oracle());
  std::vector<Feature> feats;
  for (int i = 0; i < 6; ++i) {
    feats.push_back(make_feature(rng));
    oracle.insert(feats.back().descriptor);
  }
  // A well-formed section parses (sanity for the helper itself).
  std::vector<std::uint8_t> flat;
  for (const Feature& f : feats) {
    flat.insert(flat.end(), f.descriptor.begin(), f.descriptor.end());
  }
  const PqCodebook book = PqCodebook::train(flat.data(), feats.size());
  std::vector<std::uint8_t> codes(feats.size() * kPqCodeBytes);
  for (std::size_t i = 0; i < feats.size(); ++i) {
    book.encode(flat.data() + i * kDescriptorDims,
                codes.data() + i * kPqCodeBytes);
  }
  const Bytes good =
      db_with_pq_section(feats, oracle, book.raw(), codes);
  VisualPrintServer loaded = VisualPrintServer::deserialize(good);
  EXPECT_EQ(loaded.store().storage_mode("gallery"), "pq");
  EXPECT_EQ(loaded.store().snapshot("gallery")->stored.size(), feats.size());

  // A codebook blob that inflates fine but has the wrong size (zlib
  // checksums cannot catch a substituted payload; the size check must),
  // and a codes segment with a correct crc32 that covers n-1 descriptors.
  const std::vector<std::uint8_t> short_book(100, 7);
  const std::vector<std::uint8_t> short_codes((feats.size() - 1) *
                                              kPqCodeBytes);
  const Bytes bad[2] = {
      db_with_pq_section(feats, oracle, short_book, codes),
      db_with_pq_section(feats, oracle, book.raw(), short_codes)};
  const auto path =
      (fs::temp_directory_path() /
       ("vp_corrupt_pq_" + std::to_string(::getpid()) + ".db"))
          .string();
  for (const Bytes& blob : bad) {
    EXPECT_THROW(VisualPrintServer::deserialize(blob), DecodeError);
    // Merging the bad file into a live server throws and installs nothing.
    VisualPrintServer server(small_server());
    server.ingest_wardrive("hall", random_mappings(rng, 4, {0, 0, 0}));
    {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
    }
    EXPECT_THROW(server.load_shards(path), DecodeError);
    EXPECT_EQ(server.store().snapshot("gallery"), nullptr);
    const auto places = server.places();
    EXPECT_EQ(std::find(places.begin(), places.end(), "gallery"),
              places.end());
  }
  fs::remove(path);
}

TEST(MapStore, StorageModeReportsPerPlace) {
  ServerConfig exact_cfg = small_server();
  ServerConfig pq_cfg = pq_server();
  VisualPrintServer server(exact_cfg);
  Rng rng(64);
  server.store().ingest_wardrive("plain", random_mappings(rng, 6, {0, 0, 0}),
                                 &exact_cfg);
  server.store().ingest_wardrive("compact",
                                 random_mappings(rng, 6, {4, 0, 0}), &pq_cfg);
  EXPECT_EQ(server.store().storage_mode("plain"), "exact");
  EXPECT_EQ(server.store().storage_mode("compact"), "pq");
  EXPECT_EQ(server.store().storage_mode("nowhere"), "");
}

TEST(MapStoreSoak, IngestWhileServingIsRaceFree) {
  // The TSan contract behind the whole design: localization queries and
  // oracle downloads proceed concurrently with wardrive publishes, with
  // readers on immutable snapshots and writers behind the store mutex.
  VisualPrintServer server(small_server());
  Rng seed_rng(59);
  server.ingest_wardrive("hall", random_mappings(seed_rng, 10, {0, 0, 0}));
  server.ingest_wardrive("annex", random_mappings(seed_rng, 10, {8, 0, 0}));

  constexpr int kQueryThreads = 4;
  constexpr int kQueriesPerThread = 120;
  constexpr int kPublishes = 24;
  std::atomic<bool> failed{false};

  std::vector<std::thread> readers;
  readers.reserve(kQueryThreads);
  for (int t = 0; t < kQueryThreads; ++t) {
    readers.emplace_back([&server, &failed, t] {
      Rng rng(100 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kQueriesPerThread && !failed.load(); ++i) {
        try {
          FingerprintQuery q;
          q.frame_id = static_cast<std::uint32_t>(i);
          q.place = (i % 3 == 0) ? "" : ((i % 3 == 1) ? "hall" : "annex");
          // Occasionally claim an epoch to drive the staleness check
          // concurrently with publishes.
          q.oracle_epoch = (i % 5 == 0) ? 1 + static_cast<std::uint32_t>(i % 7)
                                        : 0;
          for (int k = 0; k < 4; ++k) q.features.push_back(make_feature(rng));
          ByteWriter w;
          w.u8(kQueryRequest);
          w.raw(q.encode());
          const Bytes reply = server.handle_request(w.bytes(), 7);
          if (is_error_frame(reply)) {
            if (ErrorResponse::decode(reply).code !=
                ErrorResponse::kStaleOracle) {
              failed.store(true);
            }
          } else {
            (void)LocationResponse::decode(reply);
          }
          if (i % 10 == 0) {
            ByteWriter ow;
            ow.u8(kOracleRequest);
            ow.raw(OracleRequest{"hall"}.encode());
            (void)OracleDownload::decode(server.handle_request(ow.bytes(), 7));
          }
        } catch (...) {
          failed.store(true);
        }
      }
    });
  }

  Rng ingest_rng(60);
  for (int p = 0; p < kPublishes; ++p) {
    const std::string place = (p % 2 == 0) ? "hall" : "annex";
    server.ingest_wardrive(place, random_mappings(ingest_rng, 6, {1.0 * p, 0, 0}));
  }
  for (auto& t : readers) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(server.store().epoch("hall"), 1u + kPublishes / 2);
  EXPECT_EQ(server.store().epoch("annex"), 1u + kPublishes / 2);
}

// ---------------------------------------------------------------------------
// Wire-level trace propagation through the server handler and the
// slow-query log it feeds.

Bytes framed_query(const FingerprintQuery& q) {
  ByteWriter w;
  w.u8(kQueryRequest);
  w.raw(q.encode());
  return w.take();
}

TEST(MapStore, TracedQueryEchoesServerSpans) {
  Rng rng(61);
  VisualPrintServer server(localizing_server());
  PlaceFixture fx = make_place_fixture(rng, {2, 3, 1.5});
  server.ingest_wardrive("hall", fx.mappings);
  fx.query.place = "hall";
  fx.query.trace_id = 0xFACEull;
  fx.query.trace_flags = obs::kTraceSampled;

  const Bytes reply = server.handle_request(framed_query(fx.query), 7);
  ASSERT_FALSE(is_error_frame(reply));
  const LocationResponse resp = LocationResponse::decode(reply);
  EXPECT_EQ(resp.trace_id, 0xFACEull);
#if VP_OBS_ENABLED
  // The echoed block is the handler's span tree: wire decode plus the
  // localization stages, parents always preceding children.
  ASSERT_FALSE(resp.server_spans.empty());
  std::vector<std::string> names;
  for (const auto& s : resp.server_spans) names.push_back(s.name);
  for (const char* stage : {"decode", "lsh.retrieve", "localize.solve"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), stage), names.end())
        << "missing stage " << stage;
  }
  for (std::size_t i = 0; i < resp.server_spans.size(); ++i) {
    EXPECT_GE(resp.server_spans[i].parent, -1);
    EXPECT_LT(resp.server_spans[i].parent, static_cast<std::int16_t>(i));
    EXPECT_GE(resp.server_spans[i].duration_ms, 0.0f);
  }
#else
  EXPECT_TRUE(resp.server_spans.empty());
#endif
}

TEST(MapStore, UntracedQueryAnswersByteCompatibleV2) {
  Rng rng(62);
  VisualPrintServer server(small_server());
  server.ingest_wardrive("hall", random_mappings(rng, 10, {0, 0, 0}));
  FingerprintQuery q;
  q.place = "hall";
  q.features.push_back(make_feature(rng));

  const Bytes reply = server.handle_request(framed_query(q), 7);
  ASSERT_FALSE(is_error_frame(reply));
  // An untraced query gets a reply with the traced flag clear (the flags
  // byte follows magic + version) and no trailing trace fields.
  EXPECT_EQ(reply[6], 0);
  const LocationResponse resp = LocationResponse::decode(reply);
  EXPECT_EQ(resp.trace_id, 0u);
  EXPECT_TRUE(resp.server_spans.empty());
}

TEST(MapStore, TracedUnsampledQueryOmitsSpanBlock) {
  Rng rng(63);
  VisualPrintServer server(small_server());
  server.ingest_wardrive("hall", random_mappings(rng, 10, {0, 0, 0}));
  FingerprintQuery q;
  q.place = "hall";
  q.trace_id = 5;  // correlate, but sampled bit clear: no echo requested
  q.features.push_back(make_feature(rng));

  const LocationResponse resp =
      LocationResponse::decode(server.handle_request(framed_query(q), 7));
  EXPECT_EQ(resp.trace_id, 5u);
  EXPECT_TRUE(resp.server_spans.empty());
}

TEST(MapStore, SlowQueryLogServedAsStatsFormat2) {
  Rng rng(64);
  VisualPrintServer server(localizing_server());
  PlaceFixture fx = make_place_fixture(rng, {2, 3, 1.5});
  server.ingest_wardrive("hall", fx.mappings);
  fx.query.place = "hall";
  fx.query.trace_id = 0xBEEFull;
  fx.query.trace_flags = obs::kTraceSampled;
  (void)server.handle_request(framed_query(fx.query), 7);

  EXPECT_EQ(server.slow_log().seen(), 1u);
  const auto worst = server.slow_log().worst();
  ASSERT_EQ(worst.size(), 1u);
  EXPECT_EQ(worst[0].trace_id, 0xBEEFull);
  EXPECT_EQ(worst[0].place, "hall");
  EXPECT_GT(worst[0].total_ms, 0.0);
#if VP_OBS_ENABLED
  EXPECT_FALSE(worst[0].stages.empty());
#endif

  StatsRequest req;
  req.format = StatsRequest::kFormatSlowLog;
  ByteWriter w;
  w.u8(kStatsRequest);
  w.raw(req.encode());
  const StatsResponse stats =
      StatsResponse::decode(server.handle_request(w.bytes(), 7));
  EXPECT_EQ(stats.format, StatsRequest::kFormatSlowLog);
  EXPECT_NE(stats.text.find("\"type\":\"slow_query\""), std::string::npos);
  EXPECT_NE(stats.text.find("\"trace_id\":\"000000000000beef\""),
            std::string::npos);
  EXPECT_NE(stats.text.find("\"type\":\"slow_query_summary\""),
            std::string::npos);
  EXPECT_NE(stats.text.find("\"seen\":1"), std::string::npos);
}

TEST(MapStore, RemoteLocalizerStitchesClientLinkServerLanes) {
  Rng rng(65);
  VisualPrintServer server(localizing_server());
  PlaceFixture fx = make_place_fixture(rng, {2, 3, 1.5});
  server.ingest_wardrive("hall", fx.mappings);
  fx.query.place = "hall";

  RemoteLocalizer localizer([&server](std::span<const std::uint8_t> req) {
    return server.handle_request(req, 7);
  });
  localizer.enable_tracing(1.0);
  const LocationResponse resp = localizer.localize(fx.query);
  EXPECT_NE(resp.trace_id, 0u);

  ASSERT_EQ(localizer.traces().size(), 1u);
  const obs::StitchedTrace& st = localizer.traces().front();
  EXPECT_EQ(st.trace_id, resp.trace_id);
  EXPECT_EQ(st.frame_id, fx.query.frame_id);
  ASSERT_EQ(st.link.size(), 3u);
  EXPECT_EQ(st.link[0].name, "link.rtt");
  const double rtt = st.link[0].duration_ms;
  EXPECT_GE(rtt, 0.0);
  // Inferred uplink + downlink never exceed the measured round trip.
  EXPECT_LE(st.link[1].duration_ms + st.link[2].duration_ms, rtt + 1e-9);
#if VP_OBS_ENABLED
  // Client lane saw the query encode; server lane is the echoed block,
  // placed inside the round trip on the stitched timeline.
  std::vector<std::string> client_names;
  for (const auto& s : st.client) client_names.push_back(s.name);
  EXPECT_NE(std::find(client_names.begin(), client_names.end(), "encode"),
            client_names.end());
  ASSERT_FALSE(st.server.empty());
  for (const auto& s : st.server) {
    EXPECT_GE(s.start_ms, st.link[0].start_ms - 1e-9);
  }
#endif
}

TEST(MapStore, TraceSamplingRateControlsServerEcho) {
  Rng rng(66);
  VisualPrintServer server(localizing_server());
  PlaceFixture fx = make_place_fixture(rng, {2, 3, 1.5});
  server.ingest_wardrive("hall", fx.mappings);
  fx.query.place = "hall";

  RemoteLocalizer localizer([&server](std::span<const std::uint8_t> req) {
    return server.handle_request(req, 7);
  });
  // Deterministic accumulator: at 0.5 exactly every 2nd query crosses 1.0
  // and carries the sampled bit (queries 2 and 4 of 4).
  localizer.enable_tracing(0.5);
  for (int i = 0; i < 4; ++i) (void)localizer.localize(fx.query);
  ASSERT_EQ(localizer.traces().size(), 4u);
  std::size_t echoed = 0;
  for (const auto& st : localizer.traces()) {
    EXPECT_NE(st.trace_id, 0u);  // ids flow even for unsampled queries
    if (!st.server.empty()) ++echoed;
  }
#if VP_OBS_ENABLED
  EXPECT_EQ(echoed, 2u);
#else
  EXPECT_EQ(echoed, 0u);
#endif
}

TEST(MapStore, ConcurrentTracedServingKeepsSlowLogConsistent) {
  // Mixed traced/untraced queries from many threads: every reply must
  // decode, every echo must match its query, and the slow-query log must
  // come out complete (seen == queries) and sorted without duplicates.
  VisualPrintServer server(small_server());
  {
    Rng rng(67);
    server.ingest_wardrive("hall", random_mappings(rng, 12, {0, 0, 0}));
  }
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50;
  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  for (int tid = 0; tid < kThreads; ++tid) {
    workers.emplace_back([&server, &failed, tid] {
      Rng rng(100 + static_cast<std::uint64_t>(tid));
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        FingerprintQuery q;
        q.place = "hall";
        q.frame_id = static_cast<std::uint32_t>(i);
        // Every other query traced + sampled; the rest stay v2.
        if (i % 2 == 0) {
          q.trace_id = static_cast<std::uint64_t>(tid) * kPerThread + i + 1;
          q.trace_flags = obs::kTraceSampled;
        }
        q.features.push_back(make_feature(rng));
        try {
          const Bytes reply = server.handle_request(framed_query(q), 7);
          const LocationResponse resp = LocationResponse::decode(reply);
          if (resp.trace_id != q.trace_id) failed = true;
        } catch (...) {
          failed = true;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(server.slow_log().seen(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const auto worst = server.slow_log().worst();
  EXPECT_LE(worst.size(), server.slow_log().capacity());
  EXPECT_TRUE(std::is_sorted(
      worst.begin(), worst.end(),
      [](const auto& a, const auto& b) { return a.total_ms > b.total_ms; }));
  for (const auto& q : worst) EXPECT_GT(q.total_ms, 0.0);
}

// ---------------------------------------------------------------------------
// Encoded oracle downloads: one pack per published snapshot, served as-is.

/// What the 'O' reply must be, byte for byte: a fresh pack of the shard.
Bytes fresh_oracle_pack(const PlaceShard& shard) {
  return OracleDownload::pack(shard.oracle, shard.epoch, shard.place,
                              shard.index.pq_ready()
                                  ? shard.index.pq_codebook().raw()
                                  : std::span<const std::uint8_t>{})
      .encode();
}

Bytes request_oracle(const VisualPrintServer& server,
                     const std::string& place) {
  OracleRequest req;
  req.place = place;
  ByteWriter w;
  w.u8(kOracleRequest);
  w.raw(req.encode());
  return server.handle_request(w.bytes(), 1);
}

std::uint64_t oracle_packs() {
  return obs::Registry::global().counter("store.oracle_packs").value();
}

/// Pack counts come from the store.oracle_packs counter, which a VP_OBS=OFF
/// build compiles out; byte-equality checks run either way.
void expect_packs_since(std::uint64_t before, std::uint64_t expected) {
#if VP_OBS_ENABLED
  EXPECT_EQ(oracle_packs() - before, expected);
#else
  static_cast<void>(before);
  static_cast<void>(expected);
#endif
}

std::string oracle_reply_db_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("vp_oracle_reply_") + tag + "_" +
           std::to_string(::getpid()) + ".db"))
      .string();
}

TEST(MapStoreOracleReply, ServedBytesEqualFreshPackAcrossPublishes) {
  const ServerConfig raw_cfg = small_server();
  const ServerConfig pq_cfg = pq_server();
  VisualPrintServer server(raw_cfg);
  Rng rng(81);
  for (int round = 0; round < 3; ++round) {
    for (const auto& [place, cfg] :
         {std::pair{std::string("raw-hall"), &raw_cfg},
          std::pair{std::string("pq-hall"), &pq_cfg}}) {
      const std::uint64_t before = oracle_packs();
      server.ingest_wardrive(place, random_mappings(rng, 40, {0, 0, 0}), cfg);
      // The publish packed the new snapshot; downloads only copy it out.
      expect_packs_since(before, 1);
      const auto shard = server.store().snapshot(place);
      ASSERT_NE(shard, nullptr);
      EXPECT_EQ(shard->epoch, static_cast<std::uint32_t>(round + 1));
      EXPECT_EQ(shard->index.pq_ready(), place == "pq-hall");
      const Bytes expected = fresh_oracle_pack(*shard);
      EXPECT_EQ(request_oracle(server, place), expected);
      EXPECT_EQ(request_oracle(server, place), expected);
      EXPECT_EQ(server.oracle_snapshot(place).encode(), expected);
      expect_packs_since(before, 1);
    }
  }
  // A builder copied from a filled snapshot starts with an empty slot.
  server.store().publish("raw-hall");
  const auto republished = server.store().snapshot("raw-hall");
  ASSERT_NE(republished, nullptr);
  EXPECT_EQ(republished->epoch, 4u);
  EXPECT_EQ(request_oracle(server, "raw-hall"),
            fresh_oracle_pack(*republished));
}

TEST(MapStoreOracleReply, RestoredAndRefaultedShardsServeFreshBytes) {
  const std::string path = oracle_reply_db_path("restore");
  const ServerConfig pq_cfg = pq_server();
  {
    VisualPrintServer build(small_server());
    Rng rng(82);
    build.ingest_wardrive("raw-hall", random_mappings(rng, 40, {0, 0, 0}));
    build.ingest_wardrive("pq-hall", random_mappings(rng, 40, {1, 0, 0}),
                          &pq_cfg);
    build.save(path);
  }

  // Eager load restores each shard (restore_shard): nothing is packed
  // until the first download, which packs exactly once.
  std::uint64_t before = oracle_packs();
  VisualPrintServer eager = VisualPrintServer::load(path);
  expect_packs_since(before, 0);
  for (const std::string place : {"raw-hall", "pq-hall"}) {
    const auto shard = eager.store().snapshot(place);
    ASSERT_NE(shard, nullptr);
    before = oracle_packs();
    EXPECT_EQ(request_oracle(eager, place), fresh_oracle_pack(*shard));
    EXPECT_EQ(request_oracle(eager, place), fresh_oracle_pack(*shard));
    expect_packs_since(before, 1);
  }

  // Lazy load: the first download faults the shard in and packs it; an
  // evicted and re-faulted shard is a new snapshot and packs again.
  DbLoadOptions lazy;
  lazy.lazy = true;
  VisualPrintServer server = VisualPrintServer::load(path, lazy);
  for (const std::string place : {"raw-hall", "pq-hall"}) {
    before = oracle_packs();
    const Bytes first = request_oracle(server, place);
    const auto shard = server.store().snapshot(place);
    ASSERT_NE(shard, nullptr);
    EXPECT_EQ(first, fresh_oracle_pack(*shard));
    expect_packs_since(before, 1);

    server.store().set_resident_budget(1);
    EXPECT_EQ(server.store().snapshot(place), nullptr);
    server.store().set_resident_budget(0);
    before = oracle_packs();
    const Bytes refaulted = request_oracle(server, place);
    const auto reloaded = server.store().snapshot(place);
    ASSERT_NE(reloaded, nullptr);
    EXPECT_NE(reloaded, shard);
    EXPECT_EQ(refaulted, fresh_oracle_pack(*reloaded));
    EXPECT_EQ(refaulted, first);  // same file, same epoch, same bytes
    expect_packs_since(before, 1);
  }

  // Writing to a faulted-in place seeds its builder from the snapshot whose
  // slot is filled; the next publish must still serve its own epoch.
  const Bytes epoch1 = request_oracle(server, "raw-hall");
  Rng rng(87);
  server.ingest_wardrive("raw-hall", random_mappings(rng, 10, {2, 0, 0}));
  const auto written = server.store().snapshot("raw-hall");
  ASSERT_NE(written, nullptr);
  EXPECT_EQ(written->epoch, 2u);
  EXPECT_EQ(request_oracle(server, "raw-hall"), fresh_oracle_pack(*written));
  EXPECT_NE(request_oracle(server, "raw-hall"), epoch1);
  std::filesystem::remove(path);
}

TEST(MapStoreOracleReply, ConcurrentDownloadsOfLazyShardPackOnce) {
  const std::string path = oracle_reply_db_path("singleflight");
  {
    VisualPrintServer build(small_server());
    Rng rng(83);
    build.ingest_wardrive("hall", random_mappings(rng, 200, {0, 0, 0}));
    build.save(path);
  }
  DbLoadOptions lazy;
  lazy.lazy = true;
  const VisualPrintServer server = VisualPrintServer::load(path, lazy);

  constexpr int kThreads = 8;
  const std::uint64_t before = oracle_packs();
  std::barrier gate(kThreads);
  std::vector<Bytes> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      gate.arrive_and_wait();
      got[static_cast<std::size_t>(t)] = request_oracle(server, "hall");
    });
  }
  for (auto& th : threads) th.join();

  expect_packs_since(before, 1);
  const auto shard = server.store().snapshot("hall");
  ASSERT_NE(shard, nullptr);
  const Bytes expected = fresh_oracle_pack(*shard);
  for (const Bytes& reply : got) EXPECT_EQ(reply, expected);
  std::filesystem::remove(path);
}

TEST(MapStoreOracleReply, QueriesNeverPack) {
  const std::string path = oracle_reply_db_path("queries");
  {
    VisualPrintServer build(small_server());
    Rng rng(84);
    build.ingest_wardrive("hall", random_mappings(rng, 40, {0, 0, 0}));
    build.save(path);
  }
  DbLoadOptions lazy;
  lazy.lazy = true;
  VisualPrintServer server = VisualPrintServer::load(path, lazy);
  const std::uint64_t before = oracle_packs();
  Rng rng(85);
  for (std::uint32_t i = 0; i < 20; ++i) {
    FingerprintQuery q;
    q.place = "hall";
    q.frame_id = i;
    q.features.push_back(make_feature(rng));
    if (i == 10) {
      // A single ingest is published by the next read's flush — also
      // without packing.
      server.store().ingest("hall", make_feature(rng), {0, 0, 0});
    }
    ASSERT_FALSE(is_error_frame(server.handle_request(framed_query(q), 1)));
  }
  EXPECT_EQ(server.store().epoch("hall"), 2u);
  expect_packs_since(before, 0);
  std::filesystem::remove(path);
}

TEST(MapStoreOracleReply, PublishesRacingFlushesKeepNewestSnapshot) {
  // Explicit publishes pack with the writer mutex released. Round 0 races
  // two publishers; round 1 adds single ingests that concurrent reads
  // flush as newer epochs mid-pack. A returned publish must be visible,
  // no older snapshot may replace a newer one, and no write may be lost.
  constexpr int kWriters = 2;
  constexpr int kPublishes = 4;
  constexpr int kMappings = 20;
  constexpr int kSingles = 12;
  VisualPrintServer server(small_server());
  Rng rng(88);
  server.ingest_wardrive("hall", random_mappings(rng, kMappings, {0, 0, 0}));
  const auto holds_batch = [&](std::uint32_t tag) {
    const auto shard = server.store().snapshot("hall");
    return std::any_of(
        shard->stored.begin(), shard->stored.end(),
        [&](const StoredKeypoint& k) { return k.source_id == tag; });
  };

  std::size_t expected = kMappings;
  std::uint32_t tag = 1000;
  for (int round = 0; round < 2; ++round) {
    std::vector<std::vector<KeypointMapping>> batches;
    for (int i = 0; i < kWriters * kPublishes; ++i) {
      batches.push_back(random_mappings(rng, kMappings, {1, 0, 0}));
      for (auto& m : batches.back()) m.snapshot = tag;
      ++tag;
    }
    std::vector<Feature> singles;
    if (round == 1) {
      for (int i = 0; i < kSingles; ++i) singles.push_back(make_feature(rng));
    }
    expected += batches.size() * kMappings + singles.size();

    std::atomic<int> running{kWriters + 1};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        for (int p = 0; p < kPublishes; ++p) {
          const auto& batch =
              batches[static_cast<std::size_t>(w * kPublishes + p)];
          server.ingest_wardrive("hall", batch);
          EXPECT_TRUE(holds_batch(batch.front().snapshot));
        }
        --running;
      });
    }
    threads.emplace_back([&] {
      for (const Feature& f : singles) {
        server.store().ingest("hall", f, {2, 0, 0});
        EXPECT_FALSE(is_error_frame(request_oracle(server, "hall")));
      }
      --running;
    });
    std::uint32_t seen = 0;
    bool monotonic = true;
    while (running.load() > 0) {
      const std::uint32_t epoch = server.store().epoch("hall");
      monotonic &= epoch >= seen;
      seen = std::max(seen, epoch);
    }
    for (auto& th : threads) th.join();
    EXPECT_TRUE(monotonic) << "round " << round;

    const auto shard = server.store().snapshot("hall");
    ASSERT_NE(shard, nullptr);
    EXPECT_EQ(shard->stored.size(), expected) << "round " << round;
    EXPECT_EQ(shard->epoch, server.store().builder_shard("hall").epoch);
    EXPECT_EQ(request_oracle(server, "hall"), fresh_oracle_pack(*shard));
  }
}

TEST(MapStoreOracleReply, PublishReturnsWhileEveryPoolWorkerIsHeld) {
  // The publish's pack hands zlib chunks to the store pool but must not
  // wait for a worker: TcpListener::serve holds one per open connection.
  ThreadPool pool(2);
  // The oracle blob is sparse, so its size follows the nonzero counters:
  // 1900 mappings at 2048 counters each (64 tables x 32 hashes; width 50
  // puts random descriptors in distinct buckets) fill ~97% of 1.15M
  // one-bit counters, a 2.3 MB blob of mostly zero gaps and values that
  // zlib deflates in a fraction of a second.
  ServerConfig cfg = pq_server();
  cfg.oracle.lsh.tables = 64;
  cfg.oracle.lsh.width = 50;
  cfg.oracle.hashes = 32;
  cfg.oracle.counter_bits = 1;
  cfg.oracle.counters_override = 1'150'000;
  cfg.index.pq.train.max_samples = 256;  // PQ training is not under test
  MapStore store(cfg);
  std::latch parked(2);
  std::latch release(1);
  std::vector<std::future<void>> held;
  for (int i = 0; i < 2; ++i) {
    held.push_back(pool.submit([&] {
      parked.count_down();
      release.wait();
    }));
  }
  parked.wait();
  store.set_pool(&pool);
  Rng rng(89);
  store.ingest_wardrive("hall", random_mappings(rng, 1900, {0, 0, 0}));
  const auto shard = store.snapshot("hall");
  ASSERT_NE(shard, nullptr);
  // More than one 1 MiB zlib chunk, so the pool had work to offer.
  EXPECT_GT(shard->oracle.serialize().size(), std::size_t{2} << 20);
  EXPECT_EQ(*store.oracle_reply("hall"), fresh_oracle_pack(*shard));
  release.count_down();
  for (auto& f : held) f.get();
}

#if VP_OBS_ENABLED
TEST(MapStoreOracleReply, EachPackRecordsItsTime) {
  const auto pack_samples = [] {
    const auto snap = obs::Registry::global().snapshot();
    for (const auto& h : snap.histograms) {
      if (h.name == "store.oracle_pack") return h.count;
    }
    return std::uint64_t{0};
  };
  VisualPrintServer server(small_server());
  Rng rng(90);
  const std::uint64_t packs = oracle_packs();
  const std::uint64_t samples = pack_samples();
  server.ingest_wardrive("hall", random_mappings(rng, 10, {0, 0, 0}));
  request_oracle(server, "hall");
  request_oracle(server, "hall");
  EXPECT_EQ(oracle_packs() - packs, 1u);
  EXPECT_EQ(pack_samples() - samples, 1u);
}

TEST(MapStore, QueryBytesHistogramCountsBytes) {
  VisualPrintServer server(small_server());
  Rng rng(86);
  server.ingest_wardrive("hall", random_mappings(rng, 10, {0, 0, 0}));
  // A raw top-200 frame: ~28.8 KB, past the 26214.4 cap of the ms layout.
  FingerprintQuery q;
  q.place = "hall";
  for (int i = 0; i < 200; ++i) q.features.push_back(make_feature(rng));
  const Bytes framed = framed_query(q);
  ASSERT_GT(framed.size(), 26'215u);
  server.handle_request(framed, 1);
  const auto snap = obs::Registry::global().snapshot();
  const auto it =
      std::find_if(snap.histograms.begin(), snap.histograms.end(),
                   [](const auto& h) { return h.name == "net.query_bytes"; });
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_EQ(it->unit, "bytes");
  ASSERT_GE(it->count, 1u);
  EXPECT_EQ(it->counts.back(), 0u);  // nothing in +Inf
}
#endif

TEST(Retrieval, PredictsCorrectScene) {
  RetrievalConfig cfg;
  cfg.min_votes = 3;
  SceneDatabase db(cfg);
  Rng rng(13);
  std::vector<std::vector<Feature>> scenes;
  for (int s = 0; s < 4; ++s) {
    std::vector<Feature> fs;
    for (int i = 0; i < 25; ++i) fs.push_back(make_feature(rng));
    db.add_image(fs, s);
    scenes.push_back(std::move(fs));
  }
  for (int s = 0; s < 4; ++s) {
    for (auto kind : {MatcherKind::kLsh, MatcherKind::kBruteForce}) {
      const auto pred = db.predict(scenes[static_cast<std::size_t>(s)], kind);
      ASSERT_TRUE(pred.has_value());
      EXPECT_EQ(*pred, s);
    }
  }
}

TEST(Retrieval, AbstainsOnForeignQuery) {
  RetrievalConfig cfg;
  cfg.min_votes = 3;
  SceneDatabase db(cfg);
  Rng rng(14);
  std::vector<Feature> fs;
  for (int i = 0; i < 25; ++i) fs.push_back(make_feature(rng));
  db.add_image(fs, 0);
  std::vector<Feature> foreign;
  for (int i = 0; i < 25; ++i) foreign.push_back(make_feature(rng));
  EXPECT_FALSE(db.predict(foreign, MatcherKind::kBruteForce).has_value());
}

TEST(Retrieval, DistractorsGetNoVotes) {
  SceneDatabase db{RetrievalConfig{}};
  Rng rng(15);
  std::vector<Feature> distractor;
  for (int i = 0; i < 25; ++i) distractor.push_back(make_feature(rng));
  db.add_image(distractor, -1);  // distractor label
  EXPECT_EQ(db.scene_count(), 0);
  const auto votes = db.votes(distractor, MatcherKind::kLsh);
  EXPECT_TRUE(votes.empty());
}

TEST(Retrieval, PrecisionRecallDefinitions) {
  // 3 scenes; craft known confusion.
  using O = std::optional<std::int32_t>;
  const std::vector<O> truth{0, 0, 1, 1, 2, std::nullopt};
  const std::vector<O> pred{0, 1, 1, std::nullopt, 2, 2};
  const auto pr = precision_recall(truth, pred, 3);
  ASSERT_EQ(pr.precision.size(), 3u);
  // Scene 0: P = {0}, V = {0,1}: precision 1, recall 0.5.
  EXPECT_DOUBLE_EQ(pr.precision[0], 1.0);
  EXPECT_DOUBLE_EQ(pr.recall[0], 0.5);
  // Scene 1: P = {1,2}, V = {2,3}: tp=1 -> precision 0.5, recall 0.5.
  EXPECT_DOUBLE_EQ(pr.precision[1], 0.5);
  EXPECT_DOUBLE_EQ(pr.recall[1], 0.5);
  // Scene 2: P = {4,5}, V = {4}: precision 0.5, recall 1.
  EXPECT_DOUBLE_EQ(pr.precision[2], 0.5);
  EXPECT_DOUBLE_EQ(pr.recall[2], 1.0);
}

TEST(Retrieval, PrecisionRecallSizeMismatchThrows) {
  using O = std::optional<std::int32_t>;
  const std::vector<O> a{0};
  const std::vector<O> b{0, 1};
  EXPECT_THROW(precision_recall(a, b, 1), InvalidArgument);
}

TEST(SessionStats, CumulativeUploadMonotone) {
  SessionStats stats;
  stats.uploads = {{0, 0, 1.0, 100}, {0, 0, 0.5, 50}, {0, 0, 2.0, 200}};
  const auto curve = stats.cumulative_upload();
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_DOUBLE_EQ(curve[0].second, 50);
  EXPECT_DOUBLE_EQ(curve[1].second, 150);
  EXPECT_DOUBLE_EQ(curve[2].second, 350);
  EXPECT_LT(curve[0].first, curve[1].first);
}

}  // namespace
}  // namespace vp
