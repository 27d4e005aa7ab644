// Ablation: alternate descriptor pipeline (paper §5). "Keypoint detection
// and description are two separate stages ... one can use any keypoint
// detection algorithm with another integer keypoint description algorithm
// without modification in the system pipeline."
//
// Same detector, same scenes, two descriptor stacks:
//   * SIFT 128-byte descriptors + E2LSH uniqueness oracle (the default)
//   * rotated-BRIEF 256-bit descriptors + bit-sampling uniqueness oracle
// Both run the identical select-most-unique -> vote retrieval flow;
// binary queries are ~4x smaller on the wire.
#include <cstdio>
#include <limits>
#include <optional>
#include <vector>

#include "bench_common.hpp"
#include "core/client.hpp"
#include "core/retrieval.hpp"
#include "features/brief.hpp"
#include "hashing/binary_oracle.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace vp;
using namespace vp::bench;

/// Minimal Hamming-space retrieval: exact NN voting over labeled binary
/// descriptors (std::popcount over four words is cheap enough for exact
/// NN).
class BinarySceneDatabase {
 public:
  void add_image(std::span<const BinaryFeature> features,
                 std::int32_t scene_id) {
    for (const auto& f : features) {
      descriptors_.push_back(f.descriptor);
      labels_.push_back(scene_id);
    }
    scene_count_ = std::max(scene_count_, scene_id + 1);
  }

  std::optional<std::int32_t> predict(std::span<const BinaryFeature> query,
                                      unsigned max_distance,
                                      std::uint32_t min_votes) const {
    std::vector<std::uint32_t> votes(
        static_cast<std::size_t>(std::max(0, scene_count_)), 0);
    for (const auto& q : query) {
      unsigned best = std::numeric_limits<unsigned>::max();
      std::int32_t best_label = -1;
      for (std::size_t i = 0; i < descriptors_.size(); ++i) {
        const unsigned d = hamming_distance(descriptors_[i], q.descriptor);
        if (d < best) {
          best = d;
          best_label = labels_[i];
        }
      }
      if (best <= max_distance && best_label >= 0) {
        ++votes[static_cast<std::size_t>(best_label)];
      }
    }
    std::size_t arg = 0;
    for (std::size_t s = 1; s < votes.size(); ++s) {
      if (votes[s] > votes[arg]) arg = s;
    }
    if (votes.empty() || votes[arg] < min_votes) return std::nullopt;
    return static_cast<std::int32_t>(arg);
  }

  std::size_t size() const noexcept { return descriptors_.size(); }
  int scene_count() const noexcept { return scene_count_; }

 private:
  std::vector<BinaryDescriptor> descriptors_;
  std::vector<std::int32_t> labels_;
  int scene_count_ = 0;
};

std::vector<BinaryFeature> rebrief(const LabeledImage& img) {
  std::vector<Keypoint> kps;
  kps.reserve(img.features.size());
  for (const auto& f : img.features) kps.push_back(f.keypoint);
  return brief_describe(img.image, kps);
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = parse_scale(argc, argv);
  print_figure_header("Ablation", "SIFT+E2LSH vs BRIEF+bit-sampling oracle");

  DatasetConfig cfg;
  cfg.num_scenes = static_cast<int>(12 * scale);
  cfg.num_distractors = static_cast<int>(36 * scale);
  cfg.queries_per_scene = 4;
  cfg.image_width = 480;
  cfg.image_height = 360;
  cfg.keep_images = true;
  const auto ds = build_retrieval_dataset(cfg);
  std::printf("database: %zu SIFT descriptors, %zu queries\n\n",
              ds.total_db_descriptors, ds.queries.size());

  const std::size_t top_k = 150;

  // --- SIFT stack --------------------------------------------------------
  RetrievalConfig retrieval;
  retrieval.min_votes = 3;
  retrieval.min_margin = 1.0;
  SceneDatabase sift_db(retrieval);
  OracleConfig sift_oracle_cfg;
  sift_oracle_cfg.capacity =
      std::max<std::size_t>(60'000, ds.total_db_descriptors);
  UniquenessOracle sift_oracle(sift_oracle_cfg);
  for (const auto& img : ds.database) {
    sift_db.add_image(img.features, img.scene_id);
    for (const auto& f : img.features) sift_oracle.insert(f.descriptor);
  }
  VisualPrintClient sift_client({});
  sift_client.install_oracle(
      UniquenessOracle::deserialize(sift_oracle.serialize()));

  int sift_correct = 0;
  for (const auto& q : ds.queries) {
    const auto sel = sift_client.select_features(q.features, top_k);
    const auto pred = sift_db.predict(sel, MatcherKind::kLsh);
    sift_correct += pred && *pred == q.scene_id;
  }

  // --- BRIEF stack -------------------------------------------------------
  BinarySceneDatabase brief_db;
  BinaryOracleConfig brief_oracle_cfg;
  brief_oracle_cfg.capacity =
      std::max<std::size_t>(60'000, ds.total_db_descriptors);
  BinaryUniquenessOracle brief_oracle(brief_oracle_cfg);
  for (const auto& img : ds.database) {
    const auto bf = rebrief(img);
    brief_db.add_image(bf, img.scene_id);
    for (const auto& f : bf) brief_oracle.insert(f.descriptor);
  }

  int brief_correct = 0;
  double brief_bytes = 0;
  for (const auto& q : ds.queries) {
    auto bf = rebrief(q);
    // Select the top_k most unique by binary-oracle count.
    std::vector<std::pair<std::uint32_t, std::size_t>> scored;
    scored.reserve(bf.size());
    for (std::size_t i = 0; i < bf.size(); ++i) {
      scored.emplace_back(brief_oracle.count(bf[i].descriptor), i);
    }
    std::sort(scored.begin(), scored.end());
    std::vector<BinaryFeature> sel;
    for (std::size_t i = 0; i < std::min(top_k, scored.size()); ++i) {
      sel.push_back(bf[scored[i].second]);
    }
    // 256-bit descriptor + 16 B keypoint fields on the wire.
    brief_bytes += static_cast<double>(sel.size() * (32 + 16));
    const auto pred = brief_db.predict(sel, /*max_distance=*/55,
                                       retrieval.min_votes);
    brief_correct += pred && *pred == q.scene_id;
  }

  const auto n = static_cast<double>(ds.queries.size());
  Table table("Descriptor stack comparison (identical pipeline)");
  table.header({"stack", "accuracy", "bytes/query", "descriptor"});
  table.row({"SIFT + E2LSH oracle",
             Table::num(sift_correct / n, 3),
             Table::bytes_human(static_cast<double>(top_k * kFeatureWireBytes)),
             "128 x u8, L2"});
  table.row({"BRIEF + bit-sampling oracle",
             Table::num(brief_correct / n, 3),
             Table::bytes_human(brief_bytes / n), "256-bit, Hamming"});
  table.print();

  std::printf(
      "\npaper claim (§5): the pipeline is descriptor-agnostic — swapping\n"
      "the description + LSH family preserves function; binary descriptors\n"
      "trade some accuracy for ~3x smaller queries.\n");
  return 0;
}
