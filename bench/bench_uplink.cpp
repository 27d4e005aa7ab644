// Compact uplink: what does PQ-coding the query fingerprint buy on the
// wire, and what does it cost at the server?
//
// Three serving modes over the same synthetic place and query stream:
//
//   raw        raw frames: 144 bytes per feature (keypoint + descriptor)
//   compact    compact frames: 20 bytes per feature (quarter-pixel coords +
//              16-byte PQ code); the server reconstructs from centroids
//              and runs the ordinary exact pipeline
//   compact+symmetric  same wire bytes; the coarse ADC stage gathers the
//              query table from the precomputed centroid-distance matrix
//              (bit-identical answers, one table build cheaper per
//              descriptor)
//
// Per mode: bytes per query frame (measured wire size), end-to-end
// latency through VisualPrintServer::handle_request (client encode
// included — queries go through a RemoteLocalizer on an in-process
// transport), and index-level recall@1 of the compact pipeline against
// the raw one. One JSON line per mode for the CI artifact.
//
// The bench FAILS (nonzero exit) when the acceptance floor is missed:
// compact fingerprint payload must be >= 6x smaller than raw, at
// recall@1 >= 0.95 vs raw. The paper ships ~30-50 KB per frame
// (Fig. 2/5: "a short description (~30KB) of the scene"); the compact
// frame carries the same 200 keypoints in ~4 KB.
//
// Usage: bench_uplink [--scale=<f>] [--smoke]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/remote.hpp"
#include "core/server.hpp"
#include "features/pq.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace vp;

/// Per-subspace prototype alphabets, the structure PQ exploits in real
/// descriptors. SIFT gradient histograms concentrate on a low-dimensional
/// manifold — k-means codebooks cover it tightly, which is why 16x256
/// centroids suffice for 128 dims at all. Uniform random bytes have no
/// such structure and put quantization error on the same order as
/// inter-point margins; that regime measures the corpus, not the codec
/// (see the matching note in tests/test_index.cpp). Here each stored
/// descriptor picks one of 64 prototypes per subspace plus small jitter:
/// distinct keypoints stay far apart, codes stay tight.
struct DescriptorModel {
  std::vector<std::array<std::uint8_t, kPqSubDims>> prototypes;

  explicit DescriptorModel(Rng& rng) {
    prototypes.resize(64 * kPqSubspaces);
    for (auto& p : prototypes) {
      for (auto& v : p) v = static_cast<std::uint8_t>(rng.uniform_u64(80));
    }
  }

  Descriptor sample(Rng& rng) const {
    Descriptor d;
    for (std::size_t s = 0; s < kPqSubspaces; ++s) {
      const auto& p = prototypes[s * 64 + rng.uniform_u64(64)];
      for (std::size_t j = 0; j < kPqSubDims; ++j) {
        const int v = static_cast<int>(p[j]) +
                      static_cast<int>(rng.uniform_int(-4, 4));
        d[s * kPqSubDims + j] = static_cast<std::uint8_t>(std::clamp(v, 0, 255));
      }
    }
    return d;
  }
};

Descriptor perturb(const Descriptor& d, Rng& rng, int magnitude) {
  Descriptor out = d;
  for (auto& v : out) {
    const int nv = static_cast<int>(v) +
                   static_cast<int>(rng.uniform_int(-magnitude, magnitude));
    v = static_cast<std::uint8_t>(std::clamp(nv, 0, 255));
  }
  return out;
}

/// Wardrive mappings with spatially clustered positions (candidates
/// survive the largest-cluster filter) and distinct descriptors (the
/// regime real SIFT keypoints of distinct structure live in).
std::vector<KeypointMapping> make_mappings(Rng& rng, const DescriptorModel& model,
                                           std::size_t n) {
  std::vector<KeypointMapping> ms;
  ms.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Feature f;
    f.keypoint = {static_cast<float>(rng.uniform(40, 680)),
                  static_cast<float>(rng.uniform(40, 500)),
                  2.0f,
                  0.0f,
                  1.0f,
                  0};
    f.descriptor = model.sample(rng);
    ms.push_back({f,
                  {rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(0, 2)},
                  static_cast<std::uint32_t>(i)});
  }
  return ms;
}

struct ModeResult {
  std::string name;
  std::size_t bytes_per_query = 0;
  double e2e_ms = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace vp::bench;
  const double scale = parse_scale(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  print_figure_header("uplink",
                      "compact (PQ-coded) query fingerprints vs raw upload");

  const auto db_n = static_cast<std::size_t>(
      std::lround((smoke ? 4'000 : 20'000) * std::max(scale, 0.05)));
  const int n_queries = smoke ? 12 : 60;
  const std::size_t feats_per_query = 200;  // paper: 200 keypoints/frame

  Rng rng(0x0b11);
  ServerConfig cfg;
  cfg.index.pq.enabled = true;
  cfg.localize.search_lo = {-10, -10, 0};
  cfg.localize.search_hi = {10, 10, 3};
  // Generation-bounded DE (stable timing run to run), but kept short: the
  // solve stage is identical across modes — the bench contrasts wire bytes
  // and the decode/retrieve stages, not solver throughput.
  cfg.localize.de.time_budget_sec = 1e9;
  cfg.localize.de.max_generations = 40;
  VisualPrintServer server(cfg);
  const DescriptorModel model(rng);
  const auto mappings = make_mappings(rng, model, db_n);
  server.ingest_wardrive("hall", mappings);
  const auto shard = server.store().snapshot("hall");
  if (shard == nullptr || !shard->index.pq_ready()) {
    std::fprintf(stderr, "FAIL: PQ shard did not come up\n");
    return 1;
  }
  const PqCodebook& book = shard->index.pq_codebook();

  // Query stream: re-observations of stored keypoints (tightly perturbed
  // descriptors at the stored pixel), the way a localization frame re-sees
  // wardriven structure.
  std::vector<FingerprintQuery> queries;
  for (int qi = 0; qi < n_queries; ++qi) {
    FingerprintQuery q;
    q.frame_id = static_cast<std::uint32_t>(qi + 1);
    q.image_width = 720;
    q.image_height = 540;
    q.fov_h = 1.15f;
    q.place = "hall";
    for (std::size_t f = 0; f < feats_per_query; ++f) {
      const auto& m =
          mappings[(static_cast<std::size_t>(qi) * 131 + f * 37) % db_n];
      Feature feat = m.feature;
      feat.descriptor = perturb(m.feature.descriptor, rng, 2);
      q.features.push_back(feat);
    }
    queries.push_back(std::move(q));
  }

  // --- recall@1: compact (encode -> reconstruct -> rank) vs raw ---------
  const int recall_samples =
      std::min<int>(n_queries * 8, 400);  // features, spread across queries
  int total = 0, hit = 0;
  for (int s = 0; s < recall_samples; ++s) {
    const auto& q = queries[static_cast<std::size_t>(s) % queries.size()];
    const Descriptor& d =
        q.features[(static_cast<std::size_t>(s) * 13) % q.features.size()]
            .descriptor;
    const auto raw = shard->index.query(d, 1);
    if (raw.empty()) continue;
    std::array<std::uint8_t, kPqCodeBytes> code{};
    book.encode(d.data(), code.data());
    Descriptor rebuilt{};
    book.reconstruct(code.data(), rebuilt.data());
    const auto compact = shard->index.query(rebuilt, 1);
    ++total;
    hit += (!compact.empty() && compact[0].id == raw[0].id);
  }
  const double recall =
      total > 0 ? static_cast<double>(hit) / static_cast<double>(total) : 0.0;

  // --- the three serving modes ------------------------------------------
  const std::size_t raw_feature_payload = feats_per_query * kFeatureWireBytes;
  const std::size_t compact_feature_payload =
      feats_per_query * kCompactFeatureWireBytes;
  std::vector<ModeResult> results;
  Timer t;
  for (const std::string mode : {"raw", "compact", "compact+symmetric"}) {
    server.store().set_compact_symmetric(mode == "compact+symmetric");
    RemoteLocalizer localizer([&server](std::span<const std::uint8_t> req) {
      return server.handle_request(req, /*solver_seed=*/7);
    });
    if (mode != "raw") localizer.enable_compact_uplink();
    const OracleDownload download = localizer.fetch_oracle("hall");

    // Measured wire size of the first frame (all frames are same-shaped).
    FingerprintQuery probe = queries.front();
    probe.oracle_epoch = download.epoch;
    if (mode != "raw") {
      probe.codebook_epoch = download.epoch;
      probe.codes.resize(probe.features.size() * kPqCodeBytes);
      for (std::size_t f = 0; f < probe.features.size(); ++f) {
        book.encode(probe.features[f].descriptor.data(),
                    probe.codes.data() + f * kPqCodeBytes);
      }
    }
    const std::size_t frame_bytes = probe.wire_size();

    // Warm once (page the shard / build the symmetric matrix), then time
    // the full round trip: client encode, server decode + localize.
    {
      FingerprintQuery warm = queries.front();
      warm.oracle_epoch = download.epoch;
      (void)localizer.localize(warm);
    }
    t.lap();
    for (const auto& q : queries) {
      FingerprintQuery send = q;
      send.oracle_epoch = download.epoch;
      (void)localizer.localize(send);
    }
    const double ms = t.lap() * 1e3 / n_queries;
    const bool went_compact = localizer.compact_queries() > 0;
    if ((mode != "raw") != went_compact) {
      std::fprintf(stderr, "FAIL: mode %s sent %llu compact queries\n",
                   mode.c_str(),
                   static_cast<unsigned long long>(localizer.compact_queries()));
      return 1;
    }
    results.push_back({mode, frame_bytes, ms});
    std::printf("%-18s %7zu bytes/query  %8.2f ms/query e2e\n", mode.c_str(),
                frame_bytes, ms);
    std::printf(
        "{\"bench\":\"uplink\",\"mode\":\"%s\",\"db\":%zu,\"queries\":%d,"
        "\"features_per_query\":%zu,\"bytes_per_query\":%zu,"
        "\"feature_payload_bytes\":%zu,\"e2e_ms\":%.3f}\n",
        mode.c_str(), db_n, n_queries, feats_per_query, frame_bytes,
        mode == "raw" ? raw_feature_payload : compact_feature_payload, ms);
  }

  const double frame_ratio = static_cast<double>(results[0].bytes_per_query) /
                             static_cast<double>(results[1].bytes_per_query);
  const double payload_ratio = static_cast<double>(raw_feature_payload) /
                               static_cast<double>(compact_feature_payload);
  std::printf(
      "\nuplink: raw %zu B -> compact %zu B per frame (%.2fx frame, "
      "%.2fx feature payload); recall@1 compact vs raw %.4f (%d samples)\n",
      results[0].bytes_per_query, results[1].bytes_per_query, frame_ratio,
      payload_ratio, recall, total);
  std::printf("paper: ~30-50 KB/frame raw fingerprints (Fig. 2); here raw "
              "%.1f KB -> compact %.1f KB\n",
              results[0].bytes_per_query / 1024.0,
              results[1].bytes_per_query / 1024.0);
  std::printf(
      "{\"bench\":\"uplink\",\"mode\":\"summary\",\"raw_bytes\":%zu,"
      "\"compact_bytes\":%zu,\"frame_ratio\":%.3f,\"payload_ratio\":%.3f,"
      "\"recall_at_1\":%.4f,\"recall_samples\":%d,\"raw_ms\":%.3f,"
      "\"compact_ms\":%.3f,\"symmetric_ms\":%.3f}\n",
      results[0].bytes_per_query, results[1].bytes_per_query, frame_ratio,
      payload_ratio, recall, total, results[0].e2e_ms, results[1].e2e_ms,
      results[2].e2e_ms);
  emit_metrics_jsonl("uplink", /*include_zeros=*/true);

  // Acceptance floors: the whole point of the compact path.
  bool ok = true;
  if (payload_ratio < 6.0) {
    std::fprintf(stderr, "FAIL: feature payload only %.2fx smaller (< 6x)\n",
                 payload_ratio);
    ok = false;
  }
  if (frame_ratio < 6.0) {
    std::fprintf(stderr, "FAIL: frame only %.2fx smaller (< 6x)\n",
                 frame_ratio);
    ok = false;
  }
  if (recall < 0.95) {
    std::fprintf(stderr, "FAIL: recall@1 %.4f below the 0.95 guard\n", recall);
    ok = false;
  }
  if (total < recall_samples / 2) {
    std::fprintf(stderr, "FAIL: only %d recall samples ranked\n", total);
    ok = false;
  }
  return ok ? 0 : 1;
}
