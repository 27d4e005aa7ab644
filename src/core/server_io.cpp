// Persistence for VisualPrintServer: one self-describing file carrying
// every shard's structural configuration, stored keypoints (descriptor +
// 3-D position + labels), and oracle. The LSH lookup tables are rebuilt
// from the stored descriptors on load — deterministic, since the
// projection family is seeded — so the file stays far smaller than
// resident memory.
//
// Format v5 (tiered residency): a compact header region followed by
// page-aligned bulk segments. v5 is v4's layout with the sparse oracle
// blob (VPOR v2, see hashing/oracle.hpp) in place of the bit-packed one;
// the version bump makes a v4 file fail when it is registered, not at its
// first lazy fault-in.
//
//   header: magic, version, total file size (u64, so any truncation is
//           caught before touching segment offsets), default place,
//           shard count, then one length-prefixed record per shard:
//             place id
//             meta blob   (zlib: label, index config, epoch,
//                          oracle version, keypoint count, pq flag)
//             oracle blob (zlib'd UniquenessOracle::serialize(); embeds
//                          its own configuration)
//             codebook blob (zlib'd 32 KiB PQ codebook, empty sans PQ)
//             segment directory: {kind u8, offset u64, length u64,
//                                 crc32 u32} per segment
//   segments: each 4096-aligned and *uncompressed* — the flat 128-byte
//             stride descriptor buffer (kind 0), the 32-byte stride
//             stored-keypoint array (kind 1), and in PQ mode the 16-byte
//             stride code buffer (kind 2). Uncompressed segments bypass
//             zlib's integrity check, so each carries its own crc32,
//             verified on load.
//
// The aligned, uncompressed layout is what makes cold shards cheap: a
// loader mmaps the file and hands the descriptor/code segments to
// LshIndex::bulk_load as *borrowed* spans (the mapping itself is the
// keepalive), so faulting a shard in costs one meta inflate, one oracle
// inflate, and a bucket rebuild — never a descriptor copy. See
// core/residency.hpp for the lazy-load/LRU machinery layered on top.
//
// v5 is the only format written or read: any other version throws
// DecodeError. A database saved in an earlier format must be rebuilt by
// wardriving the place again.
#include <algorithm>
#include <fstream>
#include <memory>
#include <utility>

#include "core/residency.hpp"
#include "core/server.hpp"
#include "imaging/codec.hpp"
#include "util/error.hpp"
#include "util/mmap_file.hpp"
#include "util/timer.hpp"

namespace vp {
namespace {

constexpr std::uint32_t kDbMagic = 0x56504442u;  // "VPDB"
constexpr std::uint16_t kDbVersion = 5;

/// Stored-keypoint segment stride: position + labels only (descriptors
/// live in their own flat segment so they can be mmap-borrowed).
constexpr std::size_t kStoredKeypointWireBytes = 3 * 8 + 4 + 4;

/// Segments start on page boundaries so mmap'd spans are aligned.
constexpr std::size_t kSegmentAlign = 4096;

constexpr std::uint8_t kSegDescriptors = 0;
constexpr std::uint8_t kSegKeypoints = 1;
constexpr std::uint8_t kSegPqCodes = 2;

constexpr std::size_t align_up(std::size_t v) noexcept {
  return (v + kSegmentAlign - 1) & ~(kSegmentAlign - 1);
}

void write_index_config(ByteWriter& w, const ServerConfig& cfg) {
  // Structural index configuration (the rebuild recipe).
  w.u16(static_cast<std::uint16_t>(cfg.index.lsh.tables));
  w.u16(static_cast<std::uint16_t>(cfg.index.lsh.projections));
  w.f64(cfg.index.lsh.width);
  w.u64(cfg.index.lsh.seed);
  w.u8(cfg.index.multiprobe ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(cfg.index.max_candidates));
  w.u32(static_cast<std::uint32_t>(cfg.neighbors_per_keypoint));
  w.u32(cfg.max_match_distance2);
  // PQ mode (the coarse-scan-then-rerank recipe).
  w.u8(cfg.index.pq.enabled ? 1 : 0);
  w.u32(cfg.index.pq.rerank_depth);
  w.u32(static_cast<std::uint32_t>(cfg.index.pq.train.iterations));
  w.u32(static_cast<std::uint32_t>(cfg.index.pq.train.max_samples));
  w.u64(cfg.index.pq.train.seed);
}

void read_index_config(ByteReader& r, ServerConfig& cfg) {
  cfg.index.lsh.tables = r.u16();
  cfg.index.lsh.projections = r.u16();
  cfg.index.lsh.width = r.f64();
  cfg.index.lsh.seed = r.u64();
  cfg.index.multiprobe = r.u8() != 0;
  cfg.index.max_candidates = r.u32();
  cfg.neighbors_per_keypoint = r.u32();
  cfg.max_match_distance2 = r.u32();
  cfg.index.pq.enabled = r.u8() != 0;
  cfg.index.pq.rerank_depth = r.u32();
  cfg.index.pq.train.iterations = r.u32();
  cfg.index.pq.train.max_samples = r.u32();
  cfg.index.pq.train.seed = r.u64();
}

// ---------------------------------------------------------------------------
// writer

struct SegmentRef {
  std::uint8_t kind = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint32_t crc = 0;
};

Bytes write_db(std::span<const std::shared_ptr<const PlaceShard>> shards,
                   const std::string& default_place) {
  struct Plan {
    const PlaceShard* shard = nullptr;
    Bytes meta_z, oracle_z, codebook_z;
    Bytes keypoints;  ///< built 32-byte-stride segment payload
    std::vector<SegmentRef> segments;
    std::vector<std::span<const std::uint8_t>> payloads;  ///< per segment
  };

  std::vector<Plan> plans;
  plans.reserve(shards.size());
  for (const auto& sp : shards) {
    const PlaceShard& s = *sp;
    const auto count = static_cast<std::uint32_t>(s.index.size());
    const bool has_pq = s.index.pq_ready();

    Plan p;
    p.shard = &s;
    ByteWriter mw;
    mw.str(s.config.place_label);
    write_index_config(mw, s.config);
    mw.u32(s.epoch);
    mw.u32(s.oracle_version);
    mw.u32(count);
    mw.u8(has_pq ? 1 : 0);
    p.meta_z = zlib_compress(mw.bytes(), 6);
    p.oracle_z = zlib_compress(s.oracle.serialize(), 6);
    if (has_pq) p.codebook_z = zlib_compress(s.index.pq_codebook().raw(), 6);

    ByteWriter kw;
    for (const StoredKeypoint& k : s.stored) {
      kw.f64(k.position.x);
      kw.f64(k.position.y);
      kw.f64(k.position.z);
      kw.i32(k.scene_id);
      kw.u32(k.source_id);
    }
    p.keypoints = kw.take();

    const auto add_segment = [&p](std::uint8_t kind,
                                  std::span<const std::uint8_t> data) {
      p.segments.push_back(
          {kind, 0, static_cast<std::uint64_t>(data.size()), crc32_of(data)});
      p.payloads.push_back(data);
    };
    add_segment(kSegDescriptors,
                {s.index.descriptor_ptr(0),
                 static_cast<std::size_t>(count) * kDescriptorDims});
    add_segment(kSegKeypoints, p.keypoints);
    if (has_pq) add_segment(kSegPqCodes, s.index.pq_codes());
    // Moving the Plan moves its Bytes buffers, not their heap storage, so
    // the keypoints payload span stays valid.
    plans.push_back(std::move(p));
  }

  const auto record_bytes = [](const Plan& p) {
    ByteWriter w;
    w.str(p.shard->place);
    w.blob(p.meta_z);
    w.blob(p.oracle_z);
    w.blob(p.codebook_z);
    w.u8(static_cast<std::uint8_t>(p.segments.size()));
    for (const SegmentRef& seg : p.segments) {
      w.u8(seg.kind);
      w.u64(seg.offset);
      w.u64(seg.length);
      w.u32(seg.crc);
    }
    return w.take();
  };
  const auto build_header = [&](std::uint64_t file_size) {
    ByteWriter w;
    w.u32(kDbMagic);
    w.u16(kDbVersion);
    w.u64(file_size);
    w.str(default_place);
    w.u32(static_cast<std::uint32_t>(plans.size()));
    for (const Plan& p : plans) w.blob(record_bytes(p));
    return w.take();
  };

  // Pass 1 sizes the header (offsets and the size field are fixed-width,
  // so filling them in later cannot change it); pass 2 writes it for real.
  const std::size_t header_size = build_header(0).size();
  std::size_t cursor = header_size;
  for (Plan& p : plans) {
    for (SegmentRef& seg : p.segments) {
      if (seg.length == 0) continue;  // offset 0: no bytes to point at
      cursor = align_up(cursor);
      seg.offset = cursor;
      cursor += seg.length;
    }
  }
  const std::size_t total = cursor;

  Bytes out(total, 0);
  const Bytes header = build_header(total);
  VP_ASSERT(header.size() == header_size);
  std::copy(header.begin(), header.end(), out.begin());
  for (const Plan& p : plans) {
    for (std::size_t i = 0; i < p.segments.size(); ++i) {
      const SegmentRef& seg = p.segments[i];
      if (seg.length == 0) continue;
      std::copy(p.payloads[i].begin(), p.payloads[i].end(),
                out.begin() + static_cast<std::ptrdiff_t>(seg.offset));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// reader

/// One shard's parsed record: everything needed to rebuild the shard,
/// with the bulk payloads still sitting in the backing bytes as spans.
struct ShardRecord {
  std::string place;
  ServerConfig cfg;  ///< label + index config (oracle config set at load)
  std::uint32_t epoch = 0;
  std::uint32_t oracle_version = 0;
  std::uint32_t count = 0;
  bool has_pq = false;
  std::span<const std::uint8_t> oracle_z, codebook_z;
  SegmentRef descriptors, keypoints, codes;
};

struct DbHeader {
  std::string default_place;
  std::vector<ShardRecord> shards;
};

ShardRecord parse_record(std::span<const std::uint8_t> rec_bytes,
                              std::size_t file_size) {
  ByteReader r(rec_bytes);
  ShardRecord rec;
  rec.place = r.str();
  const auto meta_z = r.blob();
  rec.oracle_z = r.blob();
  rec.codebook_z = r.blob();

  const std::uint8_t nseg = r.u8();
  bool seen[3] = {false, false, false};
  for (std::uint8_t i = 0; i < nseg; ++i) {
    SegmentRef seg;
    seg.kind = r.u8();
    seg.offset = r.u64();
    seg.length = r.u64();
    seg.crc = r.u32();
    // Overflow-safe bounds check before anyone subspans the file.
    if (seg.length > file_size || seg.offset > file_size - seg.length) {
      throw DecodeError{"server db: segment out of bounds in shard '" +
                        rec.place + "'"};
    }
    if (seg.kind > kSegPqCodes || seen[seg.kind]) {
      throw DecodeError{"server db: bad segment directory in shard '" +
                        rec.place + "'"};
    }
    seen[seg.kind] = true;
    if (seg.kind == kSegDescriptors) rec.descriptors = seg;
    if (seg.kind == kSegKeypoints) rec.keypoints = seg;
    if (seg.kind == kSegPqCodes) rec.codes = seg;
  }
  if (!r.done()) {
    throw DecodeError{"server db: trailing bytes in shard record"};
  }

  const Bytes meta = zlib_decompress(meta_z);
  ByteReader mr(meta);
  rec.cfg.place_label = mr.str();
  read_index_config(mr, rec.cfg);
  rec.epoch = mr.u32();
  rec.oracle_version = mr.u32();
  rec.count = mr.u32();
  rec.has_pq = mr.u8() != 0;
  if (!mr.done()) throw DecodeError{"server db: trailing bytes in shard meta"};

  // The directory must carry exactly the expected segments, each sized
  // for the declared keypoint count.
  if (!seen[kSegDescriptors] || !seen[kSegKeypoints] ||
      seen[kSegPqCodes] != rec.has_pq) {
    throw DecodeError{"server db: shard '" + rec.place +
                      "' missing required segments"};
  }
  const auto n = static_cast<std::uint64_t>(rec.count);
  if (rec.descriptors.length != n * kDescriptorDims ||
      rec.keypoints.length != n * kStoredKeypointWireBytes ||
      (rec.has_pq && rec.codes.length != n * kPqCodeBytes)) {
    throw DecodeError{"server db: segment sizes disagree with keypoint "
                      "count in shard '" + rec.place + "'"};
  }
  return rec;
}

DbHeader parse_header(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  if (r.u32() != kDbMagic) throw DecodeError{"server db: bad magic"};
  if (r.u16() != kDbVersion) throw DecodeError{"server db: bad version"};
  const std::uint64_t file_size = r.u64();
  if (file_size != data.size()) {
    throw DecodeError{"server db: header claims " + std::to_string(file_size) +
                      " bytes, file has " + std::to_string(data.size())};
  }
  DbHeader db;
  db.default_place = r.str();
  const std::uint32_t shard_count = r.u32();
  db.shards.reserve(std::min<std::size_t>(shard_count, 1024));
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    db.shards.push_back(parse_record(r.blob(), data.size()));
  }
  // The reader now sits at the end of the header region; everything after
  // it is alignment padding plus the directory-addressed segments, already
  // bounds-checked against the file size above.
  return db;
}

/// Rebuild one shard from its parsed record. With a `keepalive` (the
/// mmap'd file, or any owner of `file`) the descriptor and code segments
/// are borrowed in place; without one they are copied. Verifies every
/// segment's crc32 — corruption throws DecodeError before any state can
/// be observed by callers.
std::unique_ptr<PlaceShard> load_shard(
    const ShardRecord& rec, std::span<const std::uint8_t> file,
    std::shared_ptr<const void> keepalive) {
  const auto segment = [&](const SegmentRef& seg) {
    const auto data = file.subspan(static_cast<std::size_t>(seg.offset),
                                   static_cast<std::size_t>(seg.length));
    if (crc32_of(data) != seg.crc) {
      throw DecodeError{"server db: segment checksum mismatch in shard '" +
                        rec.place + "'"};
    }
    return data;
  };
  const auto desc = segment(rec.descriptors);
  const auto kps = segment(rec.keypoints);

  UniquenessOracle oracle =
      UniquenessOracle::deserialize(zlib_decompress(rec.oracle_z));
  ServerConfig cfg = rec.cfg;
  cfg.oracle = oracle.config();
  auto shard = std::make_unique<PlaceShard>(rec.place, std::move(cfg));
  shard->oracle = std::move(oracle);
  shard->epoch = rec.epoch;
  shard->oracle_version = rec.oracle_version;

  shard->index.bulk_load(desc, rec.count, keepalive);
  ByteReader kr(kps);
  shard->stored.reserve(rec.count);
  for (std::uint32_t i = 0; i < rec.count; ++i) {
    StoredKeypoint s;
    s.position = {kr.f64(), kr.f64(), kr.f64()};
    s.scene_id = kr.i32();
    s.source_id = kr.u32();
    shard->scene_count = std::max(shard->scene_count, s.scene_id + 1);
    shard->stored.push_back(s);
  }
  if (rec.has_pq) {
    shard->index.restore_pq(
        PqCodebook::from_raw(zlib_decompress(rec.codebook_z)),
        segment(rec.codes), keepalive);
  }
  return shard;
}

// ---------------------------------------------------------------------------
// whole-database parse (eager and lazy)

struct ParsedDb {
  std::string default_place;
  std::vector<std::unique_ptr<PlaceShard>> shards;
};

/// Eager parse. `keepalive`, when non-null, must own the bytes behind
/// `data` (an open MappedFile); shards then borrow their descriptor/code
/// segments in place instead of copying.
ParsedDb parse_db(std::span<const std::uint8_t> data,
                  std::shared_ptr<const void> keepalive) {
  DbHeader header = parse_header(data);
  ParsedDb db;
  db.default_place = std::move(header.default_place);
  db.shards.reserve(header.shards.size());
  for (const ShardRecord& rec : header.shards) {
    db.shards.push_back(load_shard(rec, data, keepalive));
  }
  return db;
}

struct LazyDb {
  std::string default_place;
  ServerConfig default_cfg;  ///< label + index config of the default place
  std::vector<ShardResidencyManager::Manifest> manifests;
};

/// Parse only the manifest of a database file: per shard, its place,
/// epoch, storage mode, a resident-byte estimate, and a loader closure
/// over the shared mapping. No descriptor, oracle, or code payload is
/// touched: one header-region scan plus one small meta inflate per shard.
LazyDb parse_lazy_db(const std::shared_ptr<const MappedFile>& mapping) {
  DbHeader header = parse_header(mapping->bytes());
  LazyDb db;
  db.default_place = header.default_place;
  for (const ShardRecord& rec : header.shards) {
    if (rec.place == db.default_place) db.default_cfg = rec.cfg;
    ShardResidencyManager::Manifest m;
    m.place = rec.place;
    m.epoch = rec.epoch;
    m.bytes = static_cast<std::size_t>(rec.descriptors.length +
                                       rec.keypoints.length +
                                       rec.codes.length) +
              rec.oracle_z.size();
    m.storage = rec.has_pq ? "pq" : "exact";
    // The record copy holds spans into the mapping; the captured mapping
    // keeps them (and the loaded shard's borrowed buffers) alive.
    ShardRecord rc = rec;
    m.loader = [mapping, rc = std::move(rc)]() {
      return load_shard(rc, mapping->bytes(), mapping);
    };
    db.manifests.push_back(std::move(m));
  }
  return db;
}

}  // namespace

Bytes VisualPrintServer::serialize() const {
  // snapshots() publishes pending writes and faults every registered cold
  // shard in (pinning each via its returned shared_ptr), so a budget-
  // capped server still saves its complete database.
  const auto shards = store_->snapshots();
  return write_db(shards, store_->default_place());
}

VisualPrintServer VisualPrintServer::deserialize(
    std::span<const std::uint8_t> data) {
  // No keepalive: the caller's span may die after this call, so bulk
  // segments are copied into owned storage.
  ParsedDb db = parse_db(data, nullptr);
  // The server's default config mirrors the default shard's, so the
  // default place id (config.place_label) matches what was saved.
  ServerConfig cfg;
  cfg.place_label = db.default_place;
  for (const auto& shard : db.shards) {
    if (shard->place == db.default_place) cfg = shard->config;
  }
  VisualPrintServer server(std::move(cfg));
  for (auto& shard : db.shards) {
    server.store_->restore_shard(std::move(shard));
  }
  return server;
}

void VisualPrintServer::save(const std::string& path) const {
  const Bytes blob = serialize();
  std::ofstream f(path, std::ios::binary);
  if (!f) throw IoError{"cannot open for write: " + path};
  f.write(reinterpret_cast<const char*>(blob.data()),
          static_cast<std::streamsize>(blob.size()));
  if (!f) throw IoError{"short write: " + path};
}

VisualPrintServer VisualPrintServer::load(const std::string& path,
                                          const DbLoadOptions& opts) {
  auto mapping = MappedFile::open(path);
  if (opts.lazy) {
    LazyDb db = parse_lazy_db(mapping);
    ServerConfig cfg = db.default_cfg;
    cfg.place_label = db.default_place;
    // Deferred default builder: the registration below arms the default
    // place for fault-in, so eagerly building its (possibly huge) oracle
    // here would be pure waste — it is exactly what lazy loading defers.
    VisualPrintServer server(std::move(cfg),
                             /*eager_default_builder=*/false);
    server.store_->set_resident_budget(opts.resident_budget);
    for (auto& m : db.manifests) {
      server.store_->register_cold_shard(std::move(m));
    }
    return server;
  }
  // Eager: shards borrow their bulk segments straight out of the mapping
  // (which the shards keep alive).
  ParsedDb db = parse_db(mapping->bytes(), mapping);
  ServerConfig cfg;
  cfg.place_label = db.default_place;
  for (const auto& shard : db.shards) {
    if (shard->place == db.default_place) cfg = shard->config;
  }
  VisualPrintServer server(std::move(cfg));
  server.store_->set_resident_budget(opts.resident_budget);
  for (auto& shard : db.shards) {
    server.store_->restore_shard(std::move(shard));
  }
  return server;
}

void VisualPrintServer::load_shards(const std::string& path,
                                    const DbLoadOptions& opts) {
  auto mapping = MappedFile::open(path);
  if (opts.resident_budget != 0) {
    store_->set_resident_budget(opts.resident_budget);
  }
  if (opts.lazy) {
    LazyDb db = parse_lazy_db(mapping);
    for (auto& m : db.manifests) {
      store_->register_cold_shard(std::move(m));
    }
    return;
  }
  ParsedDb db = parse_db(mapping->bytes(), mapping);
  for (auto& shard : db.shards) {
    store_->restore_shard(std::move(shard));
  }
}

}  // namespace vp
