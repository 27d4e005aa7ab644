// Process-wide metrics registry: counters, gauges, and fixed-bucket
// histograms (latencies in ms by default, any unit by layout) with
// lock-free thread-sharded updates, safe under the borrowed ThreadPool that
// drives the client frame path.
//
// Updates never take a lock: each metric keeps a small power-of-two array of
// cache-line-aligned shards and a thread hashes to a fixed shard for its
// lifetime, so concurrent writers from pool workers touch disjoint lines.
// Reads (snapshot/export) sum the shards; they are monotonic but not an
// atomic cross-metric cut, which is fine for telemetry.
//
// Instrumentation call sites use the VP_OBS_* macros below, which compile to
// nothing unless the build defines VP_OBS_ENABLED=1 (CMake option VP_OBS).
// The library itself always builds so exporters, tests, and the stats wire
// message work in either configuration.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace vp::obs {

/// Number of per-metric shards. Power of two; large enough that the handful
/// of pool workers in this codebase rarely collide on a line.
inline constexpr std::size_t kMetricShards = 16;

namespace detail {
/// Stable per-thread shard index in [0, kMetricShards).
std::size_t shard_index() noexcept;

/// fetch_add for atomic<double> via CAS (portable pre-C++20-TS fallback).
void add_double(std::atomic<double>& target, double delta) noexcept;
}  // namespace detail

/// Monotonic event counter.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) noexcept;
  std::uint64_t value() const noexcept;
  void reset() noexcept;

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  Shard shards_[kMetricShards];
};

/// Last-write-wins instantaneous value (e.g. a configured bandwidth).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept { detail::add_double(value_, delta); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Bucket layout for a LatencyHistogram: strictly increasing finite upper
/// bounds; an implicit +Inf bucket catches everything above the last bound.
/// `unit` names what the bounds measure; exporters suffix it onto the
/// series (`sum_ms`, Prometheus `vp_<name>_bytes`).
struct HistogramBuckets {
  std::vector<double> upper_bounds;
  std::string unit = "ms";

  /// Default latency layout: 0.05 ms .. ~26 s, geometric (x2 per bucket).
  /// Covers sub-ms span costs through multi-second phone-scaled SIFT.
  static HistogramBuckets latency_ms();

  /// Message-size layout: 64 B .. 32 MiB, geometric (x2 per bucket).
  /// Covers a compact query (~4 KB) through a full oracle download.
  static HistogramBuckets bytes();

  /// `n` bounds starting at `lo`, each `factor` times the previous.
  static HistogramBuckets exponential(double lo, double factor, std::size_t n,
                                      std::string unit = "ms");
};

/// Fixed-bucket histogram; values are in its layout's unit (milliseconds
/// for the default latency layout).
class LatencyHistogram {
 public:
  explicit LatencyHistogram(HistogramBuckets buckets);
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void record(double value) noexcept;

  const std::vector<double>& upper_bounds() const noexcept { return bounds_; }
  const std::string& unit() const noexcept { return unit_; }
  /// Per-bucket counts, size upper_bounds().size() + 1 (last is +Inf).
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t total_count() const noexcept;
  double total_sum() const noexcept;

  /// Estimated p-th percentile (p in [0,100]) by linear interpolation
  /// within the bucket holding the target rank. Empty-safe: returns 0 for
  /// an empty histogram. Cross-checked against vp::percentile in tests.
  double percentile(double p) const;

  void reset() noexcept;

 private:
  struct alignas(64) Shard {
    explicit Shard(std::size_t buckets) : counts(buckets) {}
    std::vector<std::atomic<std::uint64_t>> counts;  // bounds + 1 (+Inf)
    std::atomic<double> sum{0.0};
  };
  std::vector<double> bounds_;
  std::string unit_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Point-in-time copies of every registered metric, for the exporters.
struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};
struct GaugeSample {
  std::string name;
  double value = 0;
};
struct HistogramSample {
  std::string name;
  std::vector<double> upper_bounds;
  std::vector<std::uint64_t> counts;  ///< size upper_bounds + 1 (+Inf last)
  std::uint64_t count = 0;
  double sum = 0;
  std::string unit = "ms";  ///< what `sum` and the bounds measure
};
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

/// Percentile estimate over (bounds, counts) as produced by a
/// HistogramSample: target rank walked through cumulative counts, linearly
/// interpolated within its bucket. Empty-safe (0 when total count is 0);
/// a rank landing in the +Inf bucket reports the last finite bound.
double estimate_percentile(std::span<const double> bounds,
                           std::span<const std::uint64_t> counts, double p);

/// Name -> metric registry. Lookup takes a shared lock and only the first
/// use of a name takes the exclusive lock, so steady-state instrumentation
/// is uncontended. Returned references stay valid for the registry's life.
class Registry {
 public:
  /// The process-wide instance every VP_OBS_* macro targets.
  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// First creation fixes the bucket layout; later calls (with or without
  /// buckets) return the existing histogram unchanged.
  LatencyHistogram& histogram(std::string_view name);
  LatencyHistogram& histogram(std::string_view name,
                              const HistogramBuckets& buckets);

  /// Metrics sorted by name (deterministic export order).
  MetricsSnapshot snapshot() const;

  /// Zero every metric's state, keeping registrations. Benches/tests call
  /// this between phases; live readers may observe partial zeros.
  void reset_values();

  /// Drop every registration. Invalidates outstanding references — only
  /// for test isolation, never while instrumented code may run.
  void clear();

 private:
  Registry() = default;

  mutable std::shared_mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>>
      histograms_;
};

}  // namespace vp::obs

#ifndef VP_OBS_ENABLED
#define VP_OBS_ENABLED 0
#endif

// Call-site instrumentation. These are the only pieces that compile out
// under VP_OBS=OFF; the obs library itself is always available.
#if VP_OBS_ENABLED
#define VP_OBS_COUNT(name, n)                 \
  ::vp::obs::Registry::global().counter(name).add( \
      static_cast<std::uint64_t>(n))
#define VP_OBS_GAUGE_SET(name, v) \
  ::vp::obs::Registry::global().gauge(name).set(v)
#define VP_OBS_OBSERVE(name, ms) \
  ::vp::obs::Registry::global().histogram(name).record(ms)
/// Observe into a histogram with a non-default layout (e.g. bytes); the
/// first observation of `name` fixes its layout.
#define VP_OBS_OBSERVE_IN(name, buckets, v) \
  ::vp::obs::Registry::global().histogram(name, buckets).record(v)
#else
#define VP_OBS_COUNT(name, n) static_cast<void>(0)
#define VP_OBS_GAUGE_SET(name, v) static_cast<void>(0)
#define VP_OBS_OBSERVE(name, ms) static_cast<void>(0)
#define VP_OBS_OBSERVE_IN(name, buckets, v) static_cast<void>(0)
#endif
