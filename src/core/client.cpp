#include "core/client.hpp"

#include <algorithm>

#include "imaging/filters.hpp"
#include "index/brute_force.hpp"  // random_subselect
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace vp {

VisualPrintClient::VisualPrintClient(ClientConfig config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  VP_REQUIRE(config.top_k >= 1, "top_k must be >= 1");
}

void VisualPrintClient::install_oracle(const OracleDownload& download) {
  oracle_ = std::make_shared<UniquenessOracle>(download.unpack());
  place_ = download.place;
  oracle_epoch_ = download.epoch;
  codebook_blob_ = download.codebook;
  oracle_cache_[place_] = {oracle_epoch_, oracle_, codebook_blob_};
}

void VisualPrintClient::install_oracle(UniquenessOracle oracle) {
  oracle_ = std::make_shared<UniquenessOracle>(std::move(oracle));
  place_.clear();
  oracle_epoch_ = 0;
  codebook_blob_.clear();
}

bool VisualPrintClient::select_place(const std::string& place) {
  const auto it = oracle_cache_.find(place);
  if (it == oracle_cache_.end()) return false;
  oracle_ = it->second.oracle;
  place_ = place;
  oracle_epoch_ = it->second.epoch;
  codebook_blob_ = it->second.codebook;
  return true;
}

std::vector<Feature> VisualPrintClient::select_features(
    std::vector<Feature> features, std::size_t k) {
  if (features.size() <= k) return features;

  switch (config_.policy) {
    case SelectionPolicy::kAll:
      return features;
    case SelectionPolicy::kRandom: {
      const auto ids = random_subselect(features.size(), k, rng_);
      std::vector<Feature> out;
      out.reserve(k);
      for (std::size_t i : ids) out.push_back(std::move(features[i]));
      return out;
    }
    case SelectionPolicy::kMostUnique:
    default: {
      VP_REQUIRE(oracle_ != nullptr,
                 "uniqueness selection requires a downloaded oracle");
      // Counting-filter lookups give each keypoint an estimated global
      // occurrence count; the partial ordering ranks unique first. The
      // batch call shares the frame pipeline's pool (if configured) and
      // reuses lookup scratch across descriptors.
      std::vector<Descriptor> descriptors;
      descriptors.reserve(features.size());
      for (const auto& f : features) descriptors.push_back(f.descriptor);
      const auto counts =
          oracle_->count_batch(descriptors, config_.sift.pool);
      std::vector<std::pair<std::uint32_t, std::size_t>> scored;
      scored.reserve(features.size());
      for (std::size_t i = 0; i < features.size(); ++i) {
        scored.emplace_back(counts[i], i);
      }
      std::nth_element(
          scored.begin(), scored.begin() + static_cast<std::ptrdiff_t>(k - 1),
          scored.end());
      std::sort(scored.begin(),
                scored.begin() + static_cast<std::ptrdiff_t>(k));
      std::vector<Feature> out;
      out.reserve(k);
      for (std::size_t i = 0; i < k; ++i) {
        out.push_back(std::move(features[scored[i].second]));
      }
      return out;
    }
  }
}

FrameResult VisualPrintClient::process_frame(const ImageF& frame,
                                             double capture_time, double now) {
  FrameResult result;
  VP_OBS_COUNT("client.frames", 1);

  // "It also rejects frames when processing falls behind the realtime
  // stream. That is, the app only processes extremely recent frames."
  if (now - capture_time > config_.stale_frame_budget_s) {
    result.status = FrameResult::Status::kStale;
    VP_OBS_COUNT("client.frames_stale", 1);
    return result;
  }

  // Blur gate before any expensive work.
  {
    VP_OBS_SPAN("blur_gate");
    result.blur_metric = variance_of_laplacian(frame);
  }
  if (result.blur_metric < config_.blur_threshold) {
    result.status = FrameResult::Status::kBlurRejected;
    VP_OBS_COUNT("client.frames_blur_rejected", 1);
    return result;
  }

  Timer sift_timer;
  std::vector<Feature> features;
  {
    VP_OBS_SPAN("sift");
    features = sift_detect(frame, config_.sift);
  }
  result.sift_ms = sift_timer.millis();
  result.total_keypoints = features.size();
  if (features.empty()) {
    result.status = FrameResult::Status::kNoFeatures;
    return result;
  }

  // At most top_k keypoints: select_features returns them all unscored.
  if (features.size() <= config_.top_k) {
    VP_OBS_COUNT("client.frames_select_skipped", 1);
  }
  Timer score_timer;
  std::vector<Feature> selected;
  {
    VP_OBS_SPAN("select");
    selected = select_features(std::move(features), config_.top_k);
  }
  result.scoring_ms = score_timer.millis();
  result.selected_keypoints = selected.size();
  VP_OBS_COUNT("client.frames_queued", 1);
  VP_OBS_COUNT("client.keypoints_selected", selected.size());

  FingerprintQuery q;
  q.frame_id = next_frame_id_++;
  q.capture_time = capture_time;
  q.image_width = static_cast<std::uint16_t>(frame.width());
  q.image_height = static_cast<std::uint16_t>(frame.height());
  q.fov_h = config_.fov_h;
  q.place = place_;
  q.oracle_epoch = oracle_epoch_;
  q.features = std::move(selected);
  result.query = std::move(q);
  result.status = FrameResult::Status::kQueued;
  return result;
}

}  // namespace vp
