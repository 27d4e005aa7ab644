// Server query hot path: where does a localization query spend its time,
// and what do the PR's three optimizations buy?
//
// Three sections, each emitting one JSON line per configuration:
//
//   rank      exact descriptor ranking (BruteForceMatcher::knn) over a
//             synthetic database, single-threaded, once per compiled SIMD
//             level (scalar, sse2 / neon, avx2). The scalar/SIMD ratio is
//             the kernel speedup — the target is >= 3x on AVX2 hosts.
//   adc       PQ candidate-scan throughput (16-byte ADC codes vs exact
//             128-byte u8-L2 at matched counts, per level; target >= 4x
//             for the widest level's ADC vs exact), recall@1 of the two-stage query vs
//             exact-only per rerank depth, raw-vs-PQ shard bytes.
//   de        the pool-parallel differential-evolution solver on a fixed
//             localization-shaped objective, pools of 0/1/2/4 workers.
//             Results are bit-identical across pool sizes (asserted in
//             tests); this section measures the scaling alone.
//   pipeline  end-to-end MapStore queries, level x pool x shard-count,
//             with per-stage splits (retrieve / cluster / solve) read
//             from the vp_obs span histograms. Splits print as zeros when
//             the build has VP_OBS=OFF.
//
// Usage: bench_server_pipeline [--scale=<f>] [--smoke]
//   --smoke   CI-sized run: shrunken database, fewer queries, active
//             level only.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/server.hpp"
#include "features/distance.hpp"
#include "features/pq.hpp"
#include "geometry/optimize.hpp"
#include "index/brute_force.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace vp;

Descriptor random_descriptor(Rng& rng) {
  Descriptor d;
  for (auto& v : d) v = static_cast<std::uint8_t>(rng.uniform_u64(80));
  return d;
}

/// Wardrive mappings whose positions form genuine spatial clusters (a few
/// meters across), so retrieved candidates survive the largest-cluster
/// filter and every query reaches the solver.
std::vector<KeypointMapping> clustered_mappings(Rng& rng, std::size_t n,
                                                double base_x) {
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
    f.descriptor = random_descriptor(rng);
    ms.push_back({f,
                  {base_x + rng.uniform(0, 4), rng.uniform(0, 4),
                   rng.uniform(0, 2)},
                  static_cast<std::uint32_t>(i)});
  }
  return ms;
}

/// Mean milliseconds recorded in the "stage.<name>" histogram, or 0 when
/// the stage never ran (or VP_OBS is off).
double stage_mean_ms(const obs::MetricsSnapshot& snap,
                     const std::string& stage) {
  const std::string name = "stage." + stage;
  for (const auto& h : snap.histograms) {
    if (h.name == name && h.count > 0) {
      return h.sum / static_cast<double>(h.count);
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------- rank --

void run_rank_section(double scale, bool smoke) {
  const auto db_size = static_cast<std::size_t>(
      std::lround((smoke ? 20'000 : 200'000) * scale));
  const int queries = smoke ? 8 : 40;
  Rng rng(31);
  std::vector<Descriptor> db;
  db.reserve(db_size);
  for (std::size_t i = 0; i < db_size; ++i) db.push_back(random_descriptor(rng));
  std::vector<Descriptor> qs;
  for (int i = 0; i < queries; ++i) qs.push_back(random_descriptor(rng));

  const BruteForceMatcher brute(db);  // no pool: single-thread by design
  const SimdLevel original = distance_kernels().active();
  Timer t;
  double scalar_ms = 0;
  std::printf("\n-- rank: exact knn over %zu descriptors, %d queries, "
              "1 thread --\n", db_size, queries);
  for (const SimdLevel level : kCompiledSimdLevels) {
    if (!distance_kernels().set(level)) continue;
    // Warm once (page in the database), then time.
    (void)brute.knn(qs[0], 2);
    t.lap();
    for (const auto& q : qs) (void)brute.knn(q, 2);
    const double ms = t.lap() * 1e3;
    if (level == SimdLevel::kScalar) scalar_ms = ms;
    const double speedup = ms > 0 ? scalar_ms / ms : 0.0;
    const std::string name(simd_level_name(level));
    std::printf("%8s: %9.2f ms  (%.2fx vs scalar)\n", name.c_str(), ms,
                speedup);
    std::printf(
        "{\"bench\":\"server_pipeline\",\"section\":\"rank\","
        "\"kernel\":\"%s\",\"db\":%zu,\"queries\":%d,\"ms\":%.3f,"
        "\"speedup_vs_scalar\":%.3f}\n",
        name.c_str(), db_size, queries, ms, speedup);
  }
  distance_kernels().set(original);
}

// ----------------------------------------------------------------- adc --

/// Coarse-scan throughput and retrieval quality of the PQ path:
///   1. ADC scan over 16-byte codes vs exact u8-L2 over 128-byte
///      descriptors, same candidate count, once per compiled SIMD level
///      of each — the acceptance target is >= 4x SIMD ADC vs exact.
///   2. recall@1 of the two-stage (ADC top-R, exact rerank) LshIndex
///      query against the exact-only index at several rerank depths.
///   3. per-shard descriptor bytes, raw vs PQ (codes + codebook).
void run_adc_section(double scale, bool smoke) {
  const auto n = static_cast<std::size_t>(
      std::lround((smoke ? 20'000 : 200'000) * scale));
  const int sweeps = smoke ? 10 : 25;
  Rng rng(41);
  std::vector<std::uint8_t> flat(n * kDescriptorDims);
  for (auto& v : flat) v = static_cast<std::uint8_t>(rng.uniform_u64(256));
  const PqCodebook book = PqCodebook::train(flat.data(), n);
  std::vector<std::uint8_t> codes(n * kPqCodeBytes);
  for (std::size_t i = 0; i < n; ++i) {
    book.encode(flat.data() + i * kDescriptorDims,
                codes.data() + i * kPqCodeBytes);
  }
  Descriptor query;
  for (auto& v : query) v = static_cast<std::uint8_t>(rng.uniform_u64(256));
  AdcTable table;
  book.build_adc_table(query.data(), table);
  // Candidates arrive as scattered ids (LSH bucket unions), not a linear
  // sweep — both stages of query_into walk an id list. Shuffled ids make
  // the scans touch memory the way the server does: 128-byte pulls from
  // the descriptor array vs 16-byte pulls from the code array.
  std::vector<std::uint32_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<std::uint32_t>(i);
  shuffle(ids.begin(), ids.end(), rng);

  std::printf("\n-- adc: candidate scan over %zu scattered ids, "
              "%d sweeps --\n", n, sweeps);
  std::vector<std::uint32_t> out(n);
  std::uint64_t sink = 0;
  Timer t;
  double best_exact_ms = 0, best_adc_ms = 0;
  for (const SimdLevel level : kCompiledSimdLevels) {
    const std::string name(simd_level_name(level));
    const DistanceFn distance = distance_kernels().kernel(level);
    t.lap();
    for (int s = 0; s < sweeps; ++s) {
      for (std::size_t i = 0; i < n; ++i) {
        out[i] =
            distance(flat.data() + ids[i] * kDescriptorDims, query.data());
      }
      sink += out[n - 1];
    }
    const double ms = t.lap() * 1e3 / sweeps;
    best_exact_ms = ms;  // compiled list is ordered slowest first
    const double mcand = ms > 0 ? n / ms / 1e3 : 0.0;
    std::printf("exact %8s: %8.3f ms/scan  (%7.1f Mcand/s)\n", name.c_str(),
                ms, mcand);
    std::printf(
        "{\"bench\":\"server_pipeline\",\"section\":\"adc_scan\","
        "\"path\":\"exact\",\"kernel\":\"%s\",\"candidates\":%zu,"
        "\"ms_per_scan\":%.4f,\"mcand_per_sec\":%.2f}\n",
        name.c_str(), n, ms, mcand);
  }
  for (const SimdLevel level : kCompiledSimdLevels) {
    const std::string name(simd_level_name(level));
    const AdcScanFn scan = adc_kernels().kernel(level);
    t.lap();
    for (int s = 0; s < sweeps; ++s) {
      scan(table.d.data(), codes.data(), ids.data(), n, out.data());
      sink += out[n - 1];
    }
    const double ms = t.lap() * 1e3 / sweeps;
    best_adc_ms = ms;
    const double mcand = ms > 0 ? n / ms / 1e3 : 0.0;
    std::printf("adc   %8s: %8.3f ms/scan  (%7.1f Mcand/s)\n", name.c_str(),
                ms, mcand);
    std::printf(
        "{\"bench\":\"server_pipeline\",\"section\":\"adc_scan\","
        "\"path\":\"adc\",\"kernel\":\"%s\",\"candidates\":%zu,"
        "\"ms_per_scan\":%.4f,\"mcand_per_sec\":%.2f}\n",
        name.c_str(), n, ms, mcand);
  }
  const double speedup = best_adc_ms > 0 ? best_exact_ms / best_adc_ms : 0.0;
  std::printf("best adc vs best exact: %.2fx  (checksum %llu)\n", speedup,
              static_cast<unsigned long long>(sink & 0xFFFF));
  std::printf(
      "{\"bench\":\"server_pipeline\",\"section\":\"adc_scan\","
      "\"path\":\"summary\",\"candidates\":%zu,"
      "\"speedup_adc_vs_exact\":%.3f}\n",
      n, speedup);

  // Recall + latency of the full two-stage index query vs exact-only.
  const auto db_n =
      static_cast<std::size_t>(std::lround((smoke ? 2'000 : 8'000) * scale));
  const int queries = smoke ? 60 : 200;
  Rng drng(42);
  // Re-observation model: stored keypoints form dense clusters (repeated
  // structure across the venue — the candidate mass the ADC stage must
  // plow through), and each query is a *tight* perturbation of one stored
  // descriptor, the way a second photo of the same keypoint lands near
  // the wardriven one. The true neighbor is close; its cluster mates are
  // the distractors.
  std::vector<Descriptor> bases(std::max<std::size_t>(8, db_n / 250));
  for (auto& b : bases) {
    for (auto& v : b) v = static_cast<std::uint8_t>(drng.uniform_u64(80));
  }
  const auto perturbed = [&drng](const Descriptor& base, int magnitude) {
    Descriptor d = base;
    for (auto& v : d) {
      const int nv = static_cast<int>(v) +
                     static_cast<int>(drng.uniform_int(-magnitude, magnitude));
      v = static_cast<std::uint8_t>(std::clamp(nv, 0, 255));
    }
    return d;
  };
  LshIndexConfig exact_cfg;
  exact_cfg.multiprobe = true;
  LshIndex exact_index(exact_cfg);
  std::vector<Descriptor> db;
  db.reserve(db_n);
  for (std::size_t i = 0; i < db_n; ++i) {
    db.push_back(perturbed(bases[i % bases.size()], 6));
    exact_index.insert(db.back());
  }
  std::vector<Descriptor> qs;
  for (int i = 0; i < queries; ++i) {
    const std::size_t stored = (static_cast<std::size_t>(i) * 37) % db_n;
    qs.push_back(perturbed(db[stored], 2));
  }
  t.lap();
  const auto truth = exact_index.query_batch(qs, 1, nullptr);
  const double exact_query_ms = t.lap() * 1e3 / queries;
  std::printf("\n-- adc recall: %zu stored, %d queries, exact-only %.3f "
              "ms/query --\n", db_n, queries, exact_query_ms);
  for (const std::uint32_t depth : {4u, 16u, 64u}) {
    LshIndexConfig cfg = exact_cfg;
    cfg.pq.enabled = true;
    cfg.pq.rerank_depth = depth;
    LshIndex pq(cfg);
    for (const auto& d : db) pq.insert(d);
    pq.train_pq();
    t.lap();
    const auto got = pq.query_batch(qs, 1, nullptr);
    const double ms = t.lap() * 1e3 / queries;
    int total = 0, hit = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (truth[i].empty()) continue;
      ++total;
      hit += (!got[i].empty() && got[i][0].id == truth[i][0].id);
    }
    const double recall =
        total > 0 ? static_cast<double>(hit) / static_cast<double>(total)
                  : 0.0;
    std::printf("rerank %3u: recall@1 %.4f  %.3f ms/query\n", depth, recall,
                ms);
    std::printf(
        "{\"bench\":\"server_pipeline\",\"section\":\"adc_recall\","
        "\"rerank_depth\":%u,\"db\":%zu,\"queries\":%d,\"recall_at_1\":%.4f,"
        "\"query_ms\":%.4f,\"exact_query_ms\":%.4f}\n",
        depth, db_n, queries, recall, ms, exact_query_ms);
    if (depth == 64u) {
      const double code_ratio =
          pq.pq_codes().empty()
              ? 0.0
              : static_cast<double>(pq.descriptor_bytes()) /
                    static_cast<double>(pq.pq_codes().size());
      const double total_ratio =
          pq.pq_bytes() > 0 ? static_cast<double>(pq.descriptor_bytes()) /
                                  static_cast<double>(pq.pq_bytes())
                            : 0.0;
      std::printf("bytes: raw %zu, codes %zu (%.2fx smaller), +codebook %zu "
                  "fixed -> %.2fx total\n",
                  pq.descriptor_bytes(), pq.pq_codes().size(), code_ratio,
                  kPqCodebookBytes, total_ratio);
      std::printf(
          "{\"bench\":\"server_pipeline\",\"section\":\"adc_bytes\","
          "\"descriptors\":%zu,\"raw_bytes\":%zu,\"pq_bytes\":%zu,"
          "\"code_bytes\":%zu,\"code_ratio\":%.3f,\"ratio\":%.3f}\n",
          db_n, pq.descriptor_bytes(), pq.pq_bytes(), pq.pq_codes().size(),
          code_ratio, total_ratio);
    }
  }
}

// ------------------------------------------------------------------ de --

/// Returns the measured 4-thread speed-up over the serial solve.
double run_de_section(bool smoke) {
  // Localization-shaped objective: a smooth multimodal surface whose
  // per-evaluation cost (transcendental math over max_pairs-many terms)
  // matches the Fig. 12 angular-residual sum.
  constexpr std::size_t kTerms = 400;
  const auto objective = [](std::span<const double> v) {
    double s = 0;
    for (std::size_t p = 0; p < kTerms; ++p) {
      const double phase = static_cast<double>(p) * 0.37;
      double dot = 0;
      for (double x : v) dot += std::atan2(x, 1.0 + phase);
      s += (dot - std::sin(phase)) * (dot - std::sin(phase));
    }
    return s;
  };
  const double lo[6] = {-50, -50, -5, -3, -3, -3};
  const double hi[6] = {50, 50, 10, 3, 3, 3};
  DeConfig cfg;
  cfg.population = 48;
  cfg.max_generations = smoke ? 20 : 120;
  cfg.stall_generations = cfg.max_generations;  // fixed work per run
  cfg.tolerance = 0.0;
  cfg.time_budget_sec = 1e9;

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("\n-- de: pool-parallel solve, population %zu, "
              "%zu generations, %u hardware threads --\n",
              cfg.population, cfg.max_generations, hw);
  Timer t;
  double serial_ms = 0, speedup = 0;
  for (const std::size_t threads : {0u, 1u, 2u, 4u}) {
    std::unique_ptr<ThreadPool> pool;
    DeConfig c = cfg;
    if (threads > 0) {
      pool = std::make_unique<ThreadPool>(threads);
      c.pool = pool.get();
    }
    Rng rng(55);
    t.lap();
    const DeResult result = differential_evolution(objective, lo, hi, c, rng);
    const double ms = t.lap() * 1e3;
    if (threads == 0) serial_ms = ms;
    speedup = ms > 0 ? serial_ms / ms : 0.0;
    std::printf("%zu threads: %9.2f ms  (%.2fx vs serial, cost %.4g)\n",
                threads, ms, speedup, result.cost);
    std::printf(
        "{\"bench\":\"server_pipeline\",\"section\":\"de\","
        "\"pool_threads\":%zu,\"hw_threads\":%u,\"population\":%zu,"
        "\"generations\":%zu,\"ms\":%.3f,\"speedup_vs_serial\":%.3f,"
        "\"cost\":%.6g}\n",
        threads, hw, cfg.population, result.generations, ms, speedup,
        result.cost);
  }
  return speedup;
}

// ------------------------------------------------------------ pipeline --

void run_pipeline_section(double scale, bool smoke) {
  const auto kp_per_place = static_cast<std::size_t>(
      std::lround((smoke ? 1'500 : 6'000) * scale));
  const int queries = smoke ? 6 : 20;
  constexpr std::size_t kFeaturesPerQuery = 80;
  const std::vector<int> shard_counts = smoke ? std::vector<int>{1}
                                              : std::vector<int>{1, 4};
  const std::vector<std::size_t> pool_sizes =
      smoke ? std::vector<std::size_t>{0, 4}
            : std::vector<std::size_t>{0, 2, 4};

  std::printf("\n-- pipeline: %zu keypoints/place, %d queries x %zu "
              "features --\n", kp_per_place, queries, kFeaturesPerQuery);
  const SimdLevel original = distance_kernels().active();
  for (const int shards : shard_counts) {
    ServerConfig cfg;
    cfg.oracle.capacity = std::max<std::size_t>(50'000, 2 * kp_per_place);
    cfg.localize.de.max_generations = 40;
    cfg.localize.de.time_budget_sec = 0.05;
    cfg.localize.refine_rounds = 0;
    VisualPrintServer server(cfg);
    Rng rng(2016 + static_cast<std::uint64_t>(shards));

    std::vector<KeypointMapping> first_place;
    for (int s = 0; s < shards; ++s) {
      auto mappings = clustered_mappings(rng, kp_per_place, 100.0 * s);
      server.ingest_wardrive("place-" + std::to_string(s), mappings, &cfg);
      if (s == 0) first_place = std::move(mappings);
    }

    // Queries reuse place-0 descriptors: exact matches in shard 0 (whose
    // clustered positions carry them through to the solver), near-miss
    // probe work everywhere else.
    std::vector<FingerprintQuery> qs(static_cast<std::size_t>(queries));
    for (int q = 0; q < queries; ++q) {
      auto& fq = qs[static_cast<std::size_t>(q)];
      fq.frame_id = static_cast<std::uint32_t>(q);
      for (std::size_t i = 0; i < kFeaturesPerQuery; ++i) {
        fq.features.push_back(
            first_place[(static_cast<std::size_t>(q) * kFeaturesPerQuery +
                         i * 7) % first_place.size()]
                .feature);
      }
    }

    for (const SimdLevel level : kCompiledSimdLevels) {
      if (smoke && level != original) continue;  // CI: active level only
      if (!distance_kernels().set(level)) continue;
      const std::string name(simd_level_name(level));
      for (const std::size_t threads : pool_sizes) {
        std::unique_ptr<ThreadPool> pool;
        if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
        server.store().set_pool(pool.get());

        obs::Registry::global().reset_values();
        Timer t;
        t.lap();
        int fixes = 0;
        for (const auto& base : qs) {
          FingerprintQuery q = base;  // no place: fan out across shards
          Rng solver_rng(17 + q.frame_id);
          fixes += server.localize_query(q, solver_rng).found ? 1 : 0;
        }
        const double total_ms = t.lap() * 1e3;
        const auto snap = obs::Registry::global().snapshot();
        const double retrieve = stage_mean_ms(snap, "lsh.retrieve");
        const double cluster = stage_mean_ms(snap, "cluster");
        const double solve = stage_mean_ms(snap, "localize.solve");
        std::printf(
            "%8s  shards=%d pool=%zu: %8.2f ms/query  "
            "(retrieve %.3f, cluster %.3f, solve %.3f; %d/%d fixes)\n",
            name.c_str(), shards, threads, total_ms / queries, retrieve,
            cluster, solve, fixes, queries);
        std::printf(
            "{\"bench\":\"server_pipeline\",\"section\":\"pipeline\","
            "\"kernel\":\"%s\",\"pool_threads\":%zu,\"shards\":%d,"
            "\"keypoints_per_place\":%zu,\"queries\":%d,"
            "\"query_ms\":%.4f,\"retrieve_ms\":%.4f,\"cluster_ms\":%.4f,"
            "\"solve_ms\":%.4f,\"fixes\":%d}\n",
            name.c_str(), threads, shards, kp_per_place, queries,
            total_ms / queries, retrieve, cluster, solve, fixes);
      }
    }
    server.store().set_pool(nullptr);
  }
  distance_kernels().set(original);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vp::bench;
  const double scale = parse_scale(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  print_figure_header("server hot path",
                      "SIMD ranking, pool-parallel DE, stage splits");
  std::printf("active kernel: %s%s\n",
              std::string(vp::simd_level_name(vp::distance_kernels().active()))
                  .c_str(),
              smoke ? "  [smoke]" : "");

  run_rank_section(scale, smoke);
  run_adc_section(scale, smoke);
  const double de_speedup_4 = run_de_section(smoke);
  run_pipeline_section(scale, smoke);

  std::printf(
      "\nexpectations: the widest SIMD kernel ranks >= 3x faster than\n"
      "scalar; DE cost is identical at every pool size (this run measured\n"
      "%.2fx the serial speed at 4 threads); pipeline stage splits shift\n"
      "from retrieve-bound to solve-bound as the pool absorbs the\n"
      "retrieval sweep.\n",
      de_speedup_4);
  // include_zeros: this bench runs both exact and ADC ranking paths, so a
  // zero `index.adc_scans` is evidence (the exact path served the mix),
  // not noise — it must survive into the artifact.
  emit_metrics_jsonl("server_pipeline", /*include_zeros=*/true);
  return 0;
}
