#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "util/error.hpp"

namespace vp::obs {

namespace detail {

std::size_t shard_index() noexcept {
  static std::atomic<std::size_t> next{0};
  // Round-robin assignment at first touch spreads threads evenly even when
  // a pool spawns them in a burst; the id is stable for the thread's life.
  thread_local const std::size_t id =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return id;
}

void add_double(std::atomic<double>& target, double delta) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace detail

void Counter::add(std::uint64_t n) noexcept {
  shards_[detail::shard_index()].value.fetch_add(n,
                                                 std::memory_order_relaxed);
}

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s.value.load(std::memory_order_relaxed);
  return total;
}

void Counter::reset() noexcept {
  for (auto& s : shards_) s.value.store(0, std::memory_order_relaxed);
}

HistogramBuckets HistogramBuckets::latency_ms() {
  // 0.05 ms doubling 20 times tops out at ~26.2 s — above the slowest
  // phone-scaled SIFT stage the simulator produces.
  return exponential(0.05, 2.0, 20);
}

HistogramBuckets HistogramBuckets::bytes() {
  // 64 B doubling 20 times tops out at 32 MiB: a 4055 B compact query and
  // a 28842 B raw one both land in finite buckets.
  return exponential(64, 2.0, 20, "bytes");
}

HistogramBuckets HistogramBuckets::exponential(double lo, double factor,
                                               std::size_t n,
                                               std::string unit) {
  VP_REQUIRE(lo > 0 && factor > 1 && n > 0,
             "exponential buckets need lo > 0, factor > 1, n > 0");
  HistogramBuckets b;
  b.unit = std::move(unit);
  b.upper_bounds.reserve(n);
  double bound = lo;
  for (std::size_t i = 0; i < n; ++i) {
    b.upper_bounds.push_back(bound);
    bound *= factor;
  }
  return b;
}

LatencyHistogram::LatencyHistogram(HistogramBuckets buckets)
    : bounds_(std::move(buckets.upper_bounds)),
      unit_(std::move(buckets.unit)) {
  VP_REQUIRE(!bounds_.empty(), "histogram needs at least one bound");
  VP_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                 std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                     bounds_.end(),
             "histogram bounds must be strictly increasing");
  shards_.reserve(kMetricShards);
  for (std::size_t i = 0; i < kMetricShards; ++i) {
    shards_.push_back(std::make_unique<Shard>(bounds_.size() + 1));
  }
}

void LatencyHistogram::record(double value) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto bucket = static_cast<std::size_t>(it - bounds_.begin());
  Shard& shard = *shards_[detail::shard_index()];
  shard.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  detail::add_double(shard.sum, value);
}

std::vector<std::uint64_t> LatencyHistogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1, 0);
  for (const auto& shard : shards_) {
    for (std::size_t b = 0; b < out.size(); ++b) {
      out[b] += shard->counts[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

std::uint64_t LatencyHistogram::total_count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    for (const auto& c : shard->counts) {
      total += c.load(std::memory_order_relaxed);
    }
  }
  return total;
}

double LatencyHistogram::total_sum() const noexcept {
  double total = 0;
  for (const auto& shard : shards_) {
    total += shard->sum.load(std::memory_order_relaxed);
  }
  return total;
}

double LatencyHistogram::percentile(double p) const {
  const auto counts = bucket_counts();
  return estimate_percentile(bounds_, counts, p);
}

void LatencyHistogram::reset() noexcept {
  for (auto& shard : shards_) {
    for (auto& c : shard->counts) c.store(0, std::memory_order_relaxed);
    shard->sum.store(0.0, std::memory_order_relaxed);
  }
}

double estimate_percentile(std::span<const double> bounds,
                           std::span<const std::uint64_t> counts, double p) {
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double exact = (p / 100.0) * static_cast<double>(total);
  const auto rank =
      std::min(total, std::max<std::uint64_t>(
                          1, static_cast<std::uint64_t>(std::ceil(exact))));

  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const std::uint64_t before = cumulative;
    cumulative += counts[b];
    if (cumulative < rank) continue;
    if (b >= bounds.size()) {
      // +Inf bucket: no finite upper edge to interpolate toward; report
      // the last finite bound as the (under-)estimate.
      return bounds.empty() ? 0.0 : bounds.back();
    }
    const double lo = b == 0 ? 0.0 : bounds[b - 1];
    const double hi = bounds[b];
    const double frac = static_cast<double>(rank - before) /
                        static_cast<double>(counts[b]);
    return lo + (hi - lo) * frac;
  }
  return bounds.empty() ? 0.0 : bounds.back();  // unreachable
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Counter& Registry::counter(std::string_view name) {
  {
    std::shared_lock lock(mutex_);
    if (const auto it = counters_.find(name); it != counters_.end()) {
      return *it->second;
    }
  }
  std::unique_lock lock(mutex_);
  auto& slot = counters_[std::string(name)];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(std::string_view name) {
  {
    std::shared_lock lock(mutex_);
    if (const auto it = gauges_.find(name); it != gauges_.end()) {
      return *it->second;
    }
  }
  std::unique_lock lock(mutex_);
  auto& slot = gauges_[std::string(name)];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

LatencyHistogram& Registry::histogram(std::string_view name) {
  return histogram(name, HistogramBuckets::latency_ms());
}

LatencyHistogram& Registry::histogram(std::string_view name,
                                      const HistogramBuckets& buckets) {
  {
    std::shared_lock lock(mutex_);
    if (const auto it = histograms_.find(name); it != histograms_.end()) {
      return *it->second;
    }
  }
  std::unique_lock lock(mutex_);
  auto& slot = histograms_[std::string(name)];
  if (!slot) slot = std::make_unique<LatencyHistogram>(buckets);
  return *slot;
}

MetricsSnapshot Registry::snapshot() const {
  std::shared_lock lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSample s;
    s.name = name;
    s.unit = h->unit();
    s.upper_bounds = h->upper_bounds();
    s.counts = h->bucket_counts();
    for (std::uint64_t c : s.counts) s.count += c;
    s.sum = h->total_sum();
    snap.histograms.push_back(std::move(s));
  }
  return snap;
}

void Registry::reset_values() {
  std::shared_lock lock(mutex_);
  for (const auto& [name, c] : counters_) c->reset();
  for (const auto& [name, g] : gauges_) g->set(0.0);
  for (const auto& [name, h] : histograms_) h->reset();
}

void Registry::clear() {
  std::unique_lock lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace vp::obs
