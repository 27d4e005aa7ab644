// VisualPrint client library (paper §3, "Client Android App").
//
// Per frame: blur gate (variance of Laplacian) -> SIFT extraction ->
// uniqueness scoring of every keypoint against the downloaded oracle ->
// partial sort -> upload the top-k most unique descriptors. The client can
// also run the baseline policies (random subselection, all keypoints,
// whole-frame upload) so evaluation drives every scheme through one code
// path.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "features/sift.hpp"
#include "hashing/oracle.hpp"
#include "imaging/image.hpp"
#include "net/wire.hpp"
#include "util/rng.hpp"

namespace vp {

/// How the client chooses which visual data to ship.
enum class SelectionPolicy : std::uint8_t {
  kMostUnique = 0,  ///< VisualPrint: oracle-ranked top-k
  kRandom = 1,      ///< Random-k strawman
  kAll = 2,         ///< ship every keypoint (the Fig. 5 non-starter)
};

struct ClientConfig {
  /// SIFT parameters. `sift.pool` (when set) parallelizes the whole frame
  /// path: pyramid blurs, extrema scan, descriptors, and the oracle batch
  /// scoring all share it. The pool is borrowed, never owned; output is
  /// bit-identical for any pool size.
  SiftConfig sift{};
  double blur_threshold = 18.0;  ///< min variance-of-Laplacian to accept
  std::size_t top_k = 200;       ///< keypoints per query (paper: 200/500)
  SelectionPolicy policy = SelectionPolicy::kMostUnique;
  float fov_h = 1.15192f;
  double stale_frame_budget_s = 0.4;  ///< drop frames older than this when
                                      ///< processing falls behind realtime
};

/// Outcome of feeding one frame to the client.
struct FrameResult {
  enum class Status : std::uint8_t {
    kQueued,        ///< query produced and ready to upload
    kBlurRejected,  ///< failed the blur gate
    kStale,         ///< arrived too late; processing fell behind
    kNoFeatures,    ///< SIFT found nothing usable
  };
  Status status = Status::kNoFeatures;
  std::optional<FingerprintQuery> query;
  std::size_t total_keypoints = 0;
  std::size_t selected_keypoints = 0;
  double blur_metric = 0;
  double sift_ms = 0;     ///< measured extraction latency
  double scoring_ms = 0;  ///< measured oracle lookup + sort latency
};

class VisualPrintClient {
 public:
  explicit VisualPrintClient(ClientConfig config, std::uint64_t seed = 17);

  /// Install the oracle downloaded from the cloud (first launch /
  /// refresh). The download's place and epoch become the active ones —
  /// queries built afterwards are stamped with them so the server can
  /// route to the right shard and detect staleness — and the oracle is
  /// cached per place, so revisiting a venue is a `select_place` away.
  void install_oracle(const OracleDownload& download);
  /// Install a bare oracle (tests, offline tools): active place becomes ""
  /// (fan-out queries) with epoch 0 (no staleness checks).
  void install_oracle(UniquenessOracle oracle);
  bool has_oracle() const noexcept { return oracle_ != nullptr; }
  const UniquenessOracle* oracle() const noexcept { return oracle_.get(); }

  /// Switch the active oracle to a previously installed place. Returns
  /// false (and changes nothing) when the place was never installed.
  bool select_place(const std::string& place);
  bool has_cached_oracle(const std::string& place) const {
    return oracle_cache_.find(place) != oracle_cache_.end();
  }
  std::size_t cached_oracle_count() const noexcept {
    return oracle_cache_.size();
  }

  /// Place and epoch stamped onto outgoing queries.
  const std::string& oracle_place() const noexcept { return place_; }
  std::uint32_t oracle_epoch() const noexcept { return oracle_epoch_; }

  /// The active place's PQ codebook payload as downloaded with its oracle
  /// (empty when the place is not PQ-indexed). Cached per place alongside
  /// the oracle, so select_place() restores it. Compact-uplink callers
  /// encode query descriptors against this.
  const Bytes& codebook_blob() const noexcept { return codebook_blob_; }

  /// Process one camera frame captured at `capture_time` (seconds since
  /// session start); `now` models the realtime clock when processing
  /// starts (stale-frame rejection). Grayscale [0,255] input.
  FrameResult process_frame(const ImageF& frame, double capture_time,
                            double now);

  /// Rank features by uniqueness (ascending oracle count) and keep top-k.
  /// Exposed for tests and benches; process_frame uses this internally.
  std::vector<Feature> select_features(std::vector<Feature> features,
                                       std::size_t k);

  const ClientConfig& config() const noexcept { return config_; }

  /// Client memory footprint attributable to VisualPrint (Fig. 15).
  std::size_t oracle_byte_size() const noexcept {
    return oracle_ ? oracle_->byte_size() : 0;
  }

 private:
  struct CachedOracle {
    std::uint32_t epoch = 0;
    std::shared_ptr<UniquenessOracle> oracle;
    Bytes codebook;
  };

  ClientConfig config_;
  std::shared_ptr<UniquenessOracle> oracle_;  ///< active oracle
  Bytes codebook_blob_;  ///< active place's PQ codebook ("" when absent)
  std::string place_;               ///< active place ("" = fan out)
  std::uint32_t oracle_epoch_ = 0;  ///< active epoch (0 = unchecked)
  std::map<std::string, CachedOracle> oracle_cache_;
  Rng rng_;
  std::uint32_t next_frame_id_ = 0;
};

}  // namespace vp
