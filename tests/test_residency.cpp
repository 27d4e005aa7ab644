// Tiered shard residency (core/residency.hpp + server_io): mmap-backed
// cold shards, lazy first-query fault-in, single-flight loads, and the
// LRU resident-byte budget — plus the on-disk format's fuzz contract
// (truncations and bit flips only ever throw DecodeError; a corrupt file
// never installs a partial shard).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdio>
#include <filesystem>
#include <unistd.h>
#include <fstream>
#include <thread>

#include "core/server.hpp"
#include "imaging/codec.hpp"
#include "util/rng.hpp"

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
  // Generation-bounded, never wall-clock-bounded, so bit-identity
  // assertions cannot go flaky on a busy CI box.
  cfg.localize.de.time_budget_sec = 1e9;
  cfg.clustering.radius = 5.0;
  return cfg;
}

/// Unique temp path per test; removed by the caller when it cares.
std::string temp_db_path(const char* tag) {
  const auto dir = std::filesystem::temp_directory_path();
  return (dir / (std::string("vp_residency_") + tag + "_" +
                 std::to_string(::getpid()) + ".db"))
      .string();
}

void write_bytes(const std::string& path, std::span<const std::uint8_t> b) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(f.is_open());
  f.write(reinterpret_cast<const char*>(b.data()),
          static_cast<std::streamsize>(b.size()));
}

/// Two localizable wings saved to a database file. Returns the fixtures so
/// tests can replay the exact queries against lazily-loaded twins.
struct SavedDb {
  std::string path;
  PlaceFixture a, b;
};

SavedDb save_two_wing_db(const char* tag) {
  Rng rng(91);
  SavedDb db;
  db.path = temp_db_path(tag);
  db.a = make_place_fixture(rng, {0, 0, 1});
  db.b = make_place_fixture(rng, {4, 1, 1});
  db.a.query.place = "wing-a";
  db.b.query.place = "wing-b";
  VisualPrintServer server(localizing_server());
  const ServerConfig cfg = localizing_server();
  server.ingest_wardrive("wing-a", db.a.mappings, &cfg);
  server.ingest_wardrive("wing-b", db.b.mappings, &cfg);
  server.save(db.path);
  return db;
}

/// Shard-content bit-identity: descriptors, stored keypoints, oracle bytes,
/// and epoch all match. This is the "re-faulted shard is bit-identical to
/// its never-evicted twin" contract; solver *outputs* are compared only up
/// to the fix (DE convergence is not bit-reproducible across runs).
void expect_same_shard(const PlaceShard& x, const PlaceShard& y) {
  EXPECT_EQ(x.place, y.place);
  EXPECT_EQ(x.epoch, y.epoch);
  EXPECT_EQ(x.oracle_version, y.oracle_version);
  EXPECT_EQ(x.scene_count, y.scene_count);
  EXPECT_EQ(x.oracle.serialize(), y.oracle.serialize());
  ASSERT_EQ(x.stored.size(), y.stored.size());
  for (std::size_t i = 0; i < x.stored.size(); ++i) {
    EXPECT_EQ(x.stored[i].position.x, y.stored[i].position.x);
    EXPECT_EQ(x.stored[i].position.y, y.stored[i].position.y);
    EXPECT_EQ(x.stored[i].position.z, y.stored[i].position.z);
    EXPECT_EQ(x.stored[i].scene_id, y.stored[i].scene_id);
    EXPECT_EQ(x.stored[i].source_id, y.stored[i].source_id);
    EXPECT_EQ(x.index.descriptor(static_cast<std::uint32_t>(i)),
              y.index.descriptor(static_cast<std::uint32_t>(i)));
  }
}

void expect_good_fix(const LocationResponse& r, const PlaceFixture& fx,
                     const std::string& place) {
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.place, place);
  EXPECT_LT(r.position.distance(fx.true_position), 0.5);
}

// ---------------------------------------------------------------------------
// database format

TEST(ResidencyFormat, V4SaveLoadRoundtripIsQueryIdentical) {
  const SavedDb db = save_two_wing_db("roundtrip");
  VisualPrintServer loaded = VisualPrintServer::load(db.path);

  EXPECT_EQ(loaded.store().epoch("wing-a"), 1u);
  EXPECT_EQ(loaded.store().storage_mode("wing-a"), "exact");

  Rng rng(7);
  const LocationResponse r = loaded.localize_query(db.a.query, rng);
  ASSERT_TRUE(r.found);
  EXPECT_LT(r.position.distance(db.a.true_position), 0.5);

  // The loaded server re-serializes to the identical byte stream: the
  // format is deterministic and the mmap-borrowed load lost nothing.
  VisualPrintServer original = VisualPrintServer::load(db.path);
  EXPECT_EQ(loaded.serialize(), original.serialize());
  std::filesystem::remove(db.path);
}

TEST(ResidencyFormat, TruncationSweepThrowsDecodeErrorOnly) {
  VisualPrintServer server(small_server());
  Rng rng(58);
  server.ingest_wardrive("hall", random_mappings(rng, 40, {0, 0, 0}));
  const Bytes blob = server.serialize();

  for (std::size_t cut = 8; cut < blob.size(); cut += 211) {
    Bytes t(blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(VisualPrintServer::deserialize(t), DecodeError) << cut;
  }

  // Lazy registration reads the same header and must reject truncation
  // just as eagerly (the total-file-size field catches every cut that
  // spares the header fields themselves).
  const std::string path = temp_db_path("trunc");
  Bytes t(blob.begin(),
          blob.begin() + static_cast<std::ptrdiff_t>(blob.size() / 2));
  write_bytes(path, t);
  DbLoadOptions lazy;
  lazy.lazy = true;
  EXPECT_THROW(VisualPrintServer::load(path, lazy), DecodeError);
  std::filesystem::remove(path);
}

TEST(ResidencyFormat, SeededBitFlipsNeverCrashOrPartiallyInstall) {
  VisualPrintServer server(small_server());
  Rng rng(59);
  server.ingest_wardrive("hall", random_mappings(rng, 40, {0, 0, 0}));
  const Bytes blob = server.serialize();

  Rng fuzz(0xF1);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes corrupt = blob;
    const std::size_t byte = fuzz.uniform_u64(corrupt.size());
    corrupt[byte] ^= static_cast<std::uint8_t>(1u << fuzz.uniform_u64(8));
    try {
      // A flip in alignment padding changes nothing the parser reads;
      // anything else must surface as DecodeError. Both outcomes leave
      // no partial state behind; any other exception (or a crash) fails.
      VisualPrintServer loaded = VisualPrintServer::deserialize(corrupt);
      EXPECT_EQ(loaded.store().epoch("hall"), 1u);
    } catch (const DecodeError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "flip at byte " << byte << " threw non-DecodeError: "
                    << e.what();
    }
  }

  // The merge path parses the whole file before installing any shard: a
  // corrupt merge leaves the receiving server untouched.
  const std::string path = temp_db_path("flip");
  Bytes corrupt = blob;
  corrupt[corrupt.size() - 1] ^= 0x40;  // inside the last segment
  write_bytes(path, corrupt);
  VisualPrintServer receiver(small_server());
  const std::size_t before = receiver.store().place_count();
  EXPECT_THROW(receiver.load_shards(path), DecodeError);
  EXPECT_EQ(receiver.store().place_count(), before);
  std::filesystem::remove(path);
}

TEST(ResidencyFormat, FlippedSegmentChecksumRejected) {
  VisualPrintServer server(small_server());
  Rng rng(61);
  server.ingest_wardrive("hall", random_mappings(rng, 40, {0, 0, 0}));
  Bytes blob = server.serialize();

  // The last byte of a database file is the last byte of the final uncompressed
  // segment: only its crc32 can notice the flip.
  blob[blob.size() - 1] ^= 0x01;
  try {
    VisualPrintServer::deserialize(blob);
    FAIL() << "corrupt segment accepted";
  } catch (const DecodeError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
}

TEST(ResidencyFormat, LegacyV3DatabaseRejected) {
  // Hand-assembled v3 bytes (the retired v3 writer's exact layout: one
  // interleaved shard blob, no segment directory). Only v5 loads now;
  // eager and lazy loads alike must reject the file as a bad version
  // rather than misread it.
  Rng rng(60);
  UniquenessOracle oracle(small_oracle());
  ByteWriter shard;
  shard.str("old wing");
  shard.str("old wing");
  LshIndexConfig index_cfg;
  shard.u16(static_cast<std::uint16_t>(index_cfg.lsh.tables));
  shard.u16(static_cast<std::uint16_t>(index_cfg.lsh.projections));
  shard.f64(index_cfg.lsh.width);
  shard.u64(index_cfg.lsh.seed);
  shard.u8(index_cfg.multiprobe ? 1 : 0);
  shard.u32(static_cast<std::uint32_t>(index_cfg.max_candidates));
  shard.u32(2);       // neighbors_per_keypoint
  shard.u32(65'000);  // max_match_distance2
  shard.u8(0);        // pq.enabled
  shard.u32(8);       // pq.rerank_depth
  shard.u32(8);       // pq.train.iterations
  shard.u32(2048);    // pq.train.max_samples
  shard.u64(1);       // pq.train.seed
  shard.u32(3);       // epoch
  shard.u32(5);       // oracle_version
  std::vector<Feature> feats;
  for (int i = 0; i < 5; ++i) {
    feats.push_back(make_feature(rng));
    oracle.insert(feats.back().descriptor);
  }
  shard.blob(zlib_compress(oracle.serialize(), 6));
  shard.u32(static_cast<std::uint32_t>(feats.size()));
  for (std::size_t i = 0; i < feats.size(); ++i) {
    const Descriptor& d = feats[i].descriptor;
    shard.raw(std::span<const std::uint8_t>(d.data(), d.size()));
    shard.f64(1.0 * static_cast<double>(i));
    shard.f64(2.0);
    shard.f64(0.5);
    shard.i32(static_cast<std::int32_t>(i % 2));
    shard.u32(3);
  }
  shard.u8(0);  // has_pq

  ByteWriter w;
  w.u32(0x56504442u);  // "VPDB"
  w.u16(3);
  w.str("old wing");
  w.u32(1);
  w.blob(shard.bytes());

  const auto expect_bad_version = [](auto&& load) {
    try {
      load();
      ADD_FAILURE() << "v3 database accepted";
    } catch (const DecodeError& e) {
      EXPECT_NE(std::string(e.what()).find("bad version"), std::string::npos)
          << e.what();
    }
  };
  expect_bad_version([&] { (void)VisualPrintServer::deserialize(w.bytes()); });
  const std::string path = temp_db_path("v3");
  write_bytes(path, w.bytes());
  expect_bad_version([&] { (void)VisualPrintServer::load(path); });
  DbLoadOptions lazy;
  lazy.lazy = true;
  expect_bad_version([&] { (void)VisualPrintServer::load(path, lazy); });
  std::filesystem::remove(path);
}

/// A v4 database as the retired v4 writer laid it out: v5's layout with a
/// bit-packed (VPOR v1) oracle blob, numbered `version`. Its one shard has
/// no keypoints, so it has no segment bytes and the file is all header.
Bytes legacy_v4_database(std::uint16_t version) {
  OracleConfig oc = small_oracle();
  oc.counters_override = 640;  // 100 words of 10-bit counters
  ByteWriter oracle;
  oracle.u32(0x56504f52u);  // "VPOR"
  oracle.u16(1);
  oracle.u16(static_cast<std::uint16_t>(oc.lsh.tables));
  oracle.u16(static_cast<std::uint16_t>(oc.lsh.projections));
  oracle.u16(static_cast<std::uint16_t>(oc.hashes));
  oracle.f64(oc.lsh.width);
  oracle.u64(oc.lsh.seed);
  oracle.u8(static_cast<std::uint8_t>(oc.counter_bits));
  oracle.u8(1);  // multiprobe
  oracle.u8(1);  // verification
  oracle.u8(static_cast<std::uint8_t>(oc.aggregate));
  oracle.u64(oc.capacity);
  oracle.f64(oc.fp_rate);
  oracle.u64(oc.counters_override);
  oracle.u64(0);  // insertions
  ByteWriter primary;
  primary.u64(640);
  primary.u32(10);
  for (int i = 0; i < 100; ++i) primary.u64(0);
  ByteWriter verify;
  verify.u64(640);
  for (int i = 0; i < 10; ++i) verify.u64(0);
  oracle.blob(primary.bytes());
  oracle.blob(verify.bytes());

  LshIndexConfig index_cfg;
  ByteWriter meta;
  meta.str("old wing");
  meta.u16(static_cast<std::uint16_t>(index_cfg.lsh.tables));
  meta.u16(static_cast<std::uint16_t>(index_cfg.lsh.projections));
  meta.f64(index_cfg.lsh.width);
  meta.u64(index_cfg.lsh.seed);
  meta.u8(index_cfg.multiprobe ? 1 : 0);
  meta.u32(static_cast<std::uint32_t>(index_cfg.max_candidates));
  meta.u32(2);       // neighbors_per_keypoint
  meta.u32(65'000);  // max_match_distance2
  meta.u8(0);        // pq.enabled
  meta.u32(8);       // pq.rerank_depth
  meta.u32(8);       // pq.train.iterations
  meta.u32(2048);    // pq.train.max_samples
  meta.u64(1);       // pq.train.seed
  meta.u32(3);       // epoch
  meta.u32(5);       // oracle_version
  meta.u32(0);       // keypoint count
  meta.u8(0);        // has_pq

  ByteWriter record;
  record.str("old wing");
  record.blob(zlib_compress(meta.bytes(), 6));
  record.blob(zlib_compress(oracle.bytes(), 6));
  record.blob({});  // no codebook
  record.u8(2);     // segments: descriptors and keypoints, both empty
  for (const std::uint8_t kind : {0, 1}) {
    record.u8(kind);
    record.u64(0);  // offset
    record.u64(0);  // length
    record.u32(0);  // crc32 of nothing
  }

  const std::string place = "old wing";
  const std::uint64_t size =
      4 + 2 + 8 + 4 + place.size() + 4 + 4 + record.size();
  ByteWriter w;
  w.u32(0x56504442u);  // "VPDB"
  w.u16(version);
  w.u64(size);
  w.str(place);
  w.u32(1);
  w.blob(record.bytes());
  return w.take();
}

TEST(ResidencyFormat, LegacyV4DatabaseRejected) {
  // Eager and lazy loads alike must reject a v4 file as a bad version at
  // once. Its oracle blob is the retired v1 layout, which a lazy load
  // would only read at the shard's first fault-in.
  const auto expect_bad_version = [](auto&& load) {
    try {
      load();
      ADD_FAILURE() << "v4 database accepted";
    } catch (const DecodeError& e) {
      EXPECT_NE(std::string(e.what()).find("bad version"), std::string::npos)
          << e.what();
    }
  };
  const Bytes v4 = legacy_v4_database(4);
  expect_bad_version([&] { (void)VisualPrintServer::deserialize(v4); });
  const std::string path = temp_db_path("v4");
  write_bytes(path, v4);
  expect_bad_version([&] { (void)VisualPrintServer::load(path); });
  DbLoadOptions lazy;
  lazy.lazy = true;
  expect_bad_version([&] { (void)VisualPrintServer::load(path, lazy); });

  // Why the version had to change: numbered as the current format, the
  // same bytes register lazily without complaint and fail only when their
  // oracle is decoded.
  write_bytes(path, legacy_v4_database(5));
  EXPECT_NO_THROW((void)VisualPrintServer::load(path, lazy));
  try {
    (void)VisualPrintServer::load(path);
    ADD_FAILURE() << "v1 oracle blob accepted";
  } catch (const DecodeError& e) {
    EXPECT_NE(std::string(e.what()).find("oracle: unsupported version"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

TEST(ResidencyFormat, DefaultSizedOracleSavesAndLoads) {
  // A place with the default oracle configuration (~330 MB of filters) and
  // only 25 descriptors: its oracle section is a few KB, far less than the
  // filters it describes. Eager and lazy loads both decode it; each server
  // is dropped before the next loads, so at most one oracle is alive.
  Rng rng(92);
  PlaceFixture fx = make_place_fixture(rng, {0, 0, 1});
  fx.query.place = "hall";
  ServerConfig cfg = localizing_server();
  cfg.oracle = OracleConfig{};
  const std::string path = temp_db_path("default_oracle");
  Bytes oracle_blob;
  {
    VisualPrintServer server(localizing_server());
    server.ingest_wardrive("hall", fx.mappings, &cfg);
    oracle_blob = server.store().snapshot("hall")->oracle.serialize();
    server.save(path);
  }
  {
    VisualPrintServer eager = VisualPrintServer::load(path);
    EXPECT_EQ(eager.store().snapshot("hall")->oracle.serialize(), oracle_blob);
    Rng q(45);
    expect_good_fix(eager.localize_query(fx.query, q), fx, "hall");
  }
  DbLoadOptions lazy;
  lazy.lazy = true;
  VisualPrintServer server = VisualPrintServer::load(path, lazy);
  Rng q(45);
  expect_good_fix(server.localize_query(fx.query, q), fx, "hall");
  EXPECT_EQ(server.store().snapshot("hall")->oracle.serialize(), oracle_blob);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// lazy fault-in + LRU budget

TEST(Residency, LazyLoadFaultsOnFirstQuery) {
  const SavedDb db = save_two_wing_db("lazy");
  VisualPrintServer eager = VisualPrintServer::load(db.path);
  DbLoadOptions lazy;
  lazy.lazy = true;
  VisualPrintServer server = VisualPrintServer::load(db.path, lazy);

  // Catalog metadata is served from the manifest, nothing loaded yet.
  EXPECT_EQ(server.store().default_place(), eager.store().default_place());
  const auto places = server.places();
  EXPECT_NE(std::find(places.begin(), places.end(), "wing-a"), places.end());
  EXPECT_NE(std::find(places.begin(), places.end(), "wing-b"), places.end());
  EXPECT_EQ(server.store().epoch("wing-a"), 1u);
  EXPECT_EQ(server.store().storage_mode("wing-b"), "exact");
  EXPECT_EQ(server.store().snapshot("wing-a"), nullptr);
  EXPECT_EQ(server.store().residency().stats().loads, 0u);

  // First query faults exactly wing-a in and fixes the camera where the
  // eager twin does.
  Rng rng_lazy(44), rng_eager(44);
  const LocationResponse r = server.localize_query(db.a.query, rng_lazy);
  const LocationResponse e = eager.localize_query(db.a.query, rng_eager);
  expect_good_fix(r, db.a, "wing-a");
  expect_good_fix(e, db.a, "wing-a");

  const auto stats = server.store().residency().stats();
  EXPECT_EQ(stats.loads, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(server.store().snapshot("wing-b"), nullptr);

  // The faulted shard is bit-identical to the eagerly loaded one.
  const auto lazy_shard = server.store().snapshot("wing-a");
  const auto eager_shard = eager.store().snapshot("wing-a");
  ASSERT_NE(lazy_shard, nullptr);
  ASSERT_NE(eager_shard, nullptr);
  expect_same_shard(*lazy_shard, *eager_shard);

  // Second identical query is a warm hit: no further loads.
  Rng rng_again(44);
  expect_good_fix(server.localize_query(db.a.query, rng_again), db.a,
                  "wing-a");
  EXPECT_EQ(server.store().residency().stats().loads, 1u);
  EXPECT_GE(server.store().residency().stats().hits, 1u);
  std::filesystem::remove(db.path);
}

TEST(Residency, SerializeFaultsEverythingIn) {
  const SavedDb db = save_two_wing_db("serialize");
  VisualPrintServer eager = VisualPrintServer::load(db.path);
  DbLoadOptions lazy;
  lazy.lazy = true;
  lazy.resident_budget = 1;  // nothing stays resident
  VisualPrintServer server = VisualPrintServer::load(db.path, lazy);

  // A budget-capped lazy server still saves its complete database, byte
  // for byte what the eager twin saves.
  EXPECT_EQ(server.serialize(), eager.serialize());
  std::filesystem::remove(db.path);
}

TEST(Residency, SingleFlightColdFault) {
  const std::string path = temp_db_path("singleflight");
  {
    VisualPrintServer build(small_server());
    Rng rng(71);
    build.ingest_wardrive("hall", random_mappings(rng, 200, {0, 0, 0}));
    build.save(path);
  }
  DbLoadOptions lazy;
  lazy.lazy = true;
  VisualPrintServer server = VisualPrintServer::load(path, lazy);

  constexpr int kThreads = 8;
  std::barrier gate(kThreads);
  std::vector<std::shared_ptr<const PlaceShard>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      gate.arrive_and_wait();
      got[static_cast<std::size_t>(t)] = server.store().fault_in("hall");
    });
  }
  for (auto& th : threads) th.join();

  for (const auto& shard : got) {
    ASSERT_NE(shard, nullptr);
    EXPECT_EQ(shard->stored.size(), 200u);
  }
  // Exactly one loader ran; everyone else either waited on it (a miss)
  // or arrived after the install (a hit) — never a second load.
  const auto stats = server.store().residency().stats();
  EXPECT_EQ(stats.loads, 1u);
  EXPECT_GE(stats.misses, 1u);
  EXPECT_EQ(stats.hits + stats.misses, static_cast<std::uint64_t>(kThreads));
  std::filesystem::remove(path);
}

TEST(Residency, EvictionKeepsResidentBytesUnderBudget) {
  const std::string path = temp_db_path("budget");
  constexpr int kPlaces = 6;
  {
    VisualPrintServer build(small_server());
    Rng rng(72);
    for (int p = 0; p < kPlaces; ++p) {
      build.ingest_wardrive("place-" + std::to_string(p),
                            random_mappings(rng, 150, {double(p) * 3, 0, 0}));
    }
    build.save(path);
  }
  DbLoadOptions lazy;
  lazy.lazy = true;

  // Uncapped twin: measure full residency and capture reference state.
  VisualPrintServer full = VisualPrintServer::load(path, lazy);
  for (int p = 0; p < kPlaces; ++p) {
    ASSERT_NE(full.store().fault_in("place-" + std::to_string(p)), nullptr);
  }
  const std::size_t all_bytes = full.store().residency().stats().resident_bytes;
  ASSERT_GT(all_bytes, 0u);

  // Budget roughly a quarter of the total: every query still answers
  // correctly, and the ledger never exceeds the budget after an install.
  DbLoadOptions capped = lazy;
  capped.resident_budget = all_bytes / 4;
  VisualPrintServer server = VisualPrintServer::load(path, capped);
  for (int round = 0; round < 3; ++round) {
    for (int p = 0; p < kPlaces; ++p) {
      const std::string place = "place-" + std::to_string(p);
      const auto shard = server.store().fault_in(place);
      ASSERT_NE(shard, nullptr);
      const auto twin = full.store().fault_in(place);
      ASSERT_EQ(shard->stored.size(), twin->stored.size());
      // Re-faulted content is bit-identical to the never-evicted twin.
      for (std::size_t i = 0; i < shard->stored.size(); i += 37) {
        EXPECT_EQ(shard->stored[i].position.x, twin->stored[i].position.x);
        EXPECT_EQ(shard->stored[i].source_id, twin->stored[i].source_id);
        EXPECT_EQ(shard->index.descriptor(static_cast<std::uint32_t>(i)),
                  twin->index.descriptor(static_cast<std::uint32_t>(i)));
      }
      const auto stats = server.store().residency().stats();
      EXPECT_LE(stats.resident_bytes, capped.resident_budget)
          << "round " << round << " place " << p;
    }
  }
  const auto stats = server.store().residency().stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.loads, static_cast<std::uint64_t>(kPlaces));
  // +1: the builder server's (empty) default place rides along in the
  // saved file and registers cold like any other shard.
  EXPECT_EQ(stats.registered, static_cast<std::size_t>(kPlaces) + 1);
  // Evicted places never leave the catalog.
  EXPECT_EQ(server.store().place_count(),
            static_cast<std::size_t>(kPlaces) + 1);
  std::filesystem::remove(path);
}

TEST(Residency, QueryRacingEvictionKeepsSnapshotValidAndRefaultsIdentically) {
  const SavedDb db = save_two_wing_db("race");
  VisualPrintServer eager = VisualPrintServer::load(db.path);
  DbLoadOptions lazy;
  lazy.lazy = true;
  VisualPrintServer server = VisualPrintServer::load(db.path, lazy);

  // Pin wing-a the way an in-flight query would: hold its snapshot.
  const auto pinned = server.store().fault_in("wing-a");
  ASSERT_NE(pinned, nullptr);

  // Evict it (budget smaller than any shard). The snapshot map drops the
  // shard but our shared_ptr — and the mmap keepalive behind its borrowed
  // buffers — keeps it fully usable: the racing query still gets its fix.
  server.store().set_resident_budget(1);
  EXPECT_EQ(server.store().snapshot("wing-a"), nullptr);
  EXPECT_GE(server.store().residency().stats().evictions, 1u);

  Rng rng_pinned(44);
  const LocationResponse r = pinned->localize(db.a.query, rng_pinned);
  expect_good_fix(r, db.a, "wing-a");

  // A fresh query re-faults the shard; the reloaded shard is bit-identical
  // to the never-evicted eager twin and still produces the fix.
  server.store().set_resident_budget(0);
  Rng rng_refault(44);
  const LocationResponse r2 = server.localize_query(db.a.query, rng_refault);
  expect_good_fix(r2, db.a, "wing-a");
  EXPECT_EQ(server.store().residency().stats().loads, 2u);
  const auto refaulted = server.store().snapshot("wing-a");
  const auto twin = eager.store().snapshot("wing-a");
  ASSERT_NE(refaulted, nullptr);
  ASSERT_NE(twin, nullptr);
  expect_same_shard(*refaulted, *twin);
  std::filesystem::remove(db.path);
}

TEST(Residency, WritePinsShardAgainstEviction) {
  const std::string path = temp_db_path("pin");
  {
    VisualPrintServer build(small_server());
    Rng rng(73);
    build.ingest_wardrive("hall", random_mappings(rng, 100, {0, 0, 0}));
    build.ingest_wardrive("attic", random_mappings(rng, 100, {5, 0, 0}));
    build.save(path);
  }
  DbLoadOptions lazy;
  lazy.lazy = true;
  VisualPrintServer server = VisualPrintServer::load(path, lazy);

  // A write faults the shard in, seeds its builder from the loaded
  // snapshot (read-your-writes over the mmap'd state), and pins it: the
  // place has diverged from its backing file and must never be evicted.
  Rng rng(74);
  server.store().ingest("hall", make_feature(rng), {1, 2, 3});
  EXPECT_EQ(server.store().residency().state("hall"),
            ShardResidencyManager::State::kPinned);
  const auto snap = server.store().snapshot("hall");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->stored.size(), 101u);
  EXPECT_DOUBLE_EQ(snap->stored.back().position.z, 3.0);

  // Even a zero-byte budget cannot push the pinned shard out; the cold
  // sibling keeps cycling normally.
  server.store().set_resident_budget(1);
  EXPECT_NE(server.store().snapshot("hall"), nullptr);
  ASSERT_NE(server.store().fault_in("attic"), nullptr);
  EXPECT_NE(server.store().snapshot("hall"), nullptr);
  std::filesystem::remove(path);
}

TEST(Residency, ColdFaultOnCorruptSegmentThrowsAndStaysCold) {
  const std::string path = temp_db_path("corruptfault");
  {
    VisualPrintServer build(small_server());
    Rng rng(75);
    build.ingest_wardrive("hall", random_mappings(rng, 60, {0, 0, 0}));
    build.save(path);
  }
  // Corrupt the final segment byte: the header still parses, so lazy
  // registration succeeds — the damage is only discoverable at fault
  // time, and must not wedge the place in a loading state.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-1, std::ios::end);
    const char flip = 0x01;
    f.write(&flip, 1);
  }
  DbLoadOptions lazy;
  lazy.lazy = true;
  VisualPrintServer server = VisualPrintServer::load(path, lazy);
  EXPECT_EQ(server.store().epoch("hall"), 1u);  // manifest still answers

  for (int attempt = 0; attempt < 2; ++attempt) {
    EXPECT_THROW(server.store().fault_in("hall"), DecodeError) << attempt;
    EXPECT_EQ(server.store().snapshot("hall"), nullptr);
    EXPECT_EQ(server.store().residency().state("hall"),
              ShardResidencyManager::State::kCold);
  }
  std::filesystem::remove(path);
}

TEST(Residency, ConcurrentFaultEvictChurnSoak) {
  // TSan soak (scripts/tier1.sh): concurrent queries over more places
  // than the budget admits, so faults, single-flight waits, installs,
  // evictions, and borrowed-buffer reads all race. Queries are cheap
  // (random descriptors rarely cluster), keeping the soak about the
  // residency machinery, not the solver.
  const std::string path = temp_db_path("churn");
  constexpr int kPlaces = 6;
  {
    VisualPrintServer build(small_server());
    Rng rng(76);
    for (int p = 0; p < kPlaces; ++p) {
      build.ingest_wardrive("place-" + std::to_string(p),
                            random_mappings(rng, 120, {double(p) * 3, 0, 0}));
    }
    build.save(path);
  }
  DbLoadOptions lazy;
  lazy.lazy = true;
  VisualPrintServer server = VisualPrintServer::load(path, lazy);
  {
    // Budget ≈ two shards: measure one resident shard, then cap.
    ASSERT_NE(server.store().fault_in("place-0"), nullptr);
    const std::size_t one = server.store().residency().stats().resident_bytes;
    server.store().set_resident_budget(2 * one + one / 2);
  }

  constexpr int kThreads = 8;
  constexpr int kQueries = 40;
  std::atomic<int> failures{0};
  std::barrier gate(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + static_cast<std::uint64_t>(t));
      gate.arrive_and_wait();
      for (int i = 0; i < kQueries; ++i) {
        const int p = static_cast<int>(rng.uniform_u64(kPlaces));
        const auto shard =
            server.store().fault_in("place-" + std::to_string(p));
        if (shard == nullptr || shard->stored.size() != 120u) {
          ++failures;
          continue;
        }
        FingerprintQuery q;
        q.place = shard->place;
        q.image_width = 640;
        q.image_height = 480;
        q.fov_h = 1.15f;
        for (int k = 0; k < 5; ++k) q.features.push_back(make_feature(rng));
        Rng qrng(rng.next_u64());
        (void)server.localize_query(q, qrng);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  const auto stats = server.store().residency().stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.hits + stats.misses, 0u);
  EXPECT_LE(stats.resident_bytes, stats.budget_bytes);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace vp
