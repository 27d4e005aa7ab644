// Client frame-path throughput: full frame -> SIFT -> oracle scoring ->
// top-200 descriptors, timed at 1, 2, and hardware_concurrency threads, on
// a frame of perfbench's 920x540 query size. Emits one JSON line per
// thread config so successive PRs can track the latency trajectory (append
// the lines to a log and diff). Each line also carries the SIFT split
// (pyramid, extrema scan, orientations + descriptors; read from the frame
// trace, so 0 in a VP_OBS=OFF build) and the active blur kernel.
//
// Usage: bench_client_pipeline [--scale=<f>] (scale multiplies iterations)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/client.hpp"
#include "imaging/filters.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

struct RunStats {
  double median_frame_ms = 0;
  double median_sift_ms = 0;
  double median_scoring_ms = 0;
  double median_pyramid_ms = 0;
  double median_extrema_ms = 0;
  double median_descriptor_ms = 0;
  std::size_t keypoints = 0;
  std::size_t selected = 0;
};

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

RunStats run_config(const vp::ImageF& frame,
                    const vp::Bytes& serialized_oracle, vp::ThreadPool* pool,
                    int iters) {
  using namespace vp;
  ClientConfig cc;
  cc.top_k = 200;
  cc.blur_threshold = 0.5;
  cc.sift.pool = pool;
  VisualPrintClient client(cc);
  client.install_oracle(UniquenessOracle::deserialize(serialized_oracle));

  RunStats stats;
  std::vector<double> frame_ms, sift_ms, scoring_ms, pyramid_ms, extrema_ms,
      descriptor_ms;
  (void)client.process_frame(frame, 0.0, 0.0);  // warm caches and pool
  Timer t;
  for (int it = 0; it < iters; ++it) {
    obs::FrameTrace trace;
    t.lap();
    const auto result = client.process_frame(frame, 0.0, 0.0);
    frame_ms.push_back(t.lap_millis());
    sift_ms.push_back(result.sift_ms);
    scoring_ms.push_back(result.scoring_ms);
    const obs::StageTimings stages = trace.stage_timings();
    pyramid_ms.push_back(stages.value("sift.pyramid"));
    extrema_ms.push_back(stages.value("sift.extrema"));
    descriptor_ms.push_back(stages.value("sift.descriptor"));
    stats.keypoints = result.total_keypoints;
    stats.selected = result.selected_keypoints;
  }
  stats.median_frame_ms = median_of(frame_ms);
  stats.median_sift_ms = median_of(sift_ms);
  stats.median_scoring_ms = median_of(scoring_ms);
  stats.median_pyramid_ms = median_of(pyramid_ms);
  stats.median_extrema_ms = median_of(extrema_ms);
  stats.median_descriptor_ms = median_of(descriptor_ms);
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vp;
  using namespace vp::bench;
  const double scale = parse_scale(argc, argv);
  print_figure_header("client pipeline",
                      "frame -> top-200 descriptors at 1/2/N threads");

  constexpr int kW = 920, kH = 540;  // perfbench's query frames
  const auto frames = render_walk_frames(4, kW, kH, 77);
  const ImageF frame = to_gray(frames.front());

  // A populated oracle so scoring walks realistic filter content.
  OracleConfig ocfg;
  ocfg.capacity = 200'000;
  UniquenessOracle oracle(ocfg);
  for (const auto& f : frames) {
    for (const auto& feat : sift_detect(to_gray(f))) {
      oracle.insert(feat.descriptor);
    }
  }
  const Bytes serialized_oracle = oracle.serialize();

  const int iters = std::max(3, static_cast<int>(std::lround(5 * scale)));
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  std::vector<unsigned> thread_configs{1, 2, hw};
  std::sort(thread_configs.begin(), thread_configs.end());
  thread_configs.erase(
      std::unique(thread_configs.begin(), thread_configs.end()),
      thread_configs.end());

  const std::string kernel(simd_level_name(blur_kernels().active()));
  double baseline_ms = 0;
  for (unsigned threads : thread_configs) {
    // threads == 1 measures the sequential path (no pool), i.e. the
    // cache-friendly blur/scan rewrite on its own.
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    const RunStats s = run_config(frame, serialized_oracle, pool.get(), iters);
    if (threads == 1) baseline_ms = s.median_frame_ms;
    const double speedup =
        s.median_frame_ms > 0 ? baseline_ms / s.median_frame_ms : 0.0;
    std::printf(
        "{\"bench\":\"client_pipeline\",\"threads\":%u,"
        "\"frame_w\":%d,\"frame_h\":%d,\"iters\":%d,"
        "\"frame_ms\":%.2f,\"sift_ms\":%.2f,\"pyramid_ms\":%.2f,"
        "\"extrema_ms\":%.2f,\"descriptor_ms\":%.2f,\"scoring_ms\":%.2f,"
        "\"blur_kernel\":\"%s\",\"keypoints\":%zu,\"selected\":%zu,"
        "\"speedup_vs_1t\":%.2f}\n",
        threads, kW, kH, iters, s.median_frame_ms, s.median_sift_ms,
        s.median_pyramid_ms, s.median_extrema_ms, s.median_descriptor_ms,
        s.median_scoring_ms, kernel.c_str(), s.keypoints, s.selected,
        speedup);
  }
  emit_metrics_jsonl("client_pipeline");
  return 0;
}
