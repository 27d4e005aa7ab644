#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace vp {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const auto v = rng.uniform_u64(17);
    EXPECT_LT(v, 17u);
    const auto w = rng.uniform_int(-5, 5);
    EXPECT_GE(w, -5);
    EXPECT_LE(w, 5);
  }
}

TEST(Rng, UniformU64CoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_u64(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, GaussianMoments) {
  Rng rng(42);
  RunningStats rs;
  for (int i = 0; i < 20000; ++i) rs.add(rng.gaussian());
  EXPECT_NEAR(rs.mean(), 0.0, 0.05);
  EXPECT_NEAR(rs.stddev(), 1.0, 0.05);
}

TEST(Rng, GaussianScaled) {
  Rng rng(43);
  RunningStats rs;
  for (int i = 0; i < 20000; ++i) rs.add(rng.gaussian(10.0, 3.0));
  EXPECT_NEAR(rs.mean(), 10.0, 0.2);
  EXPECT_NEAR(rs.stddev(), 3.0, 0.15);
}

TEST(Rng, ForkIsDecorrelated) {
  Rng a(5);
  Rng child = a.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == child.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  shuffle(v.begin(), v.end(), rng);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Stats, PercentileBasics) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 75), 7.5);
}

TEST(Stats, PercentileRejectsBadInput) {
  std::vector<double> empty;
  EXPECT_THROW(percentile(empty, 50), InvalidArgument);
  std::vector<double> v{1.0};
  EXPECT_THROW(percentile(v, -1), InvalidArgument);
  EXPECT_THROW(percentile(v, 101), InvalidArgument);
}

TEST(Stats, MeanStddev) {
  std::vector<double> v{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_NEAR(stddev(v), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  std::vector<double> one{3.0};
  EXPECT_DOUBLE_EQ(stddev(one), 0.0);
}

TEST(Stats, SummaryQuartiles) {
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  const Summary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.median, 51);
  EXPECT_DOUBLE_EQ(s.max, 101);
  EXPECT_DOUBLE_EQ(s.q1, 26);
  EXPECT_DOUBLE_EQ(s.q3, 76);
  EXPECT_EQ(s.count, 101u);
}

TEST(Stats, CdfMonotoneAndBounds) {
  std::vector<double> v{3, 1, 4, 1, 5, 9, 2, 6};
  EmpiricalCdf cdf(v);
  EXPECT_DOUBLE_EQ(cdf.at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(9.0), 1.0);
  double prev = -1;
  for (double x = 0; x <= 10; x += 0.25) {
    const double f = cdf.at(x);
    EXPECT_GE(f, prev);
    prev = f;
  }
}

TEST(Stats, CdfQuantileInvertsRoughly) {
  std::vector<double> v;
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) v.push_back(rng.uniform());
  EmpiricalCdf cdf(v);
  EXPECT_NEAR(cdf.quantile(0.5), 0.5, 0.03);
  EXPECT_NEAR(cdf.quantile(0.9), 0.9, 0.03);
}

TEST(Stats, CdfSamplePoints) {
  std::vector<double> v{0, 1, 2, 3, 4};
  EmpiricalCdf cdf(v);
  const auto pts = cdf.sample_points(5);
  ASSERT_EQ(pts.size(), 5u);
  EXPECT_DOUBLE_EQ(pts.front().first, 0.0);
  EXPECT_DOUBLE_EQ(pts.back().first, 4.0);
  EXPECT_DOUBLE_EQ(pts.back().second, 1.0);
}

TEST(Stats, HistogramBinning) {
  Histogram h(0, 10, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-100);  // clamps to first bin
  h.add(100);   // clamps to last bin
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
}

TEST(Stats, RunningStatsMatchesBatch) {
  std::vector<double> v{1.5, 2.5, 3.5, 10.0, -2.0};
  RunningStats rs;
  for (double x : v) rs.add(x);
  EXPECT_NEAR(rs.mean(), mean(v), 1e-12);
  EXPECT_NEAR(rs.stddev(), stddev(v), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), -2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 10.0);
}

TEST(Bytes, PrimitiveRoundtrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i32(-42);
  w.i64(-1234567890123LL);
  w.f32(3.25f);
  w.f64(-2.71828);
  w.str("hello");
  const Bytes b = w.take();

  ByteReader r(b);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123LL);
  EXPECT_FLOAT_EQ(r.f32(), 3.25f);
  EXPECT_DOUBLE_EQ(r.f64(), -2.71828);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.done());
}

TEST(Bytes, LittleEndianLayout) {
  ByteWriter w;
  w.u32(0x04030201u);
  const Bytes b = w.take();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 1);
  EXPECT_EQ(b[1], 2);
  EXPECT_EQ(b[2], 3);
  EXPECT_EQ(b[3], 4);
}

TEST(Bytes, TruncationThrows) {
  ByteWriter w;
  w.u16(7);
  const Bytes b = w.take();
  ByteReader r(b);
  EXPECT_EQ(r.u16(), 7);
  EXPECT_THROW(r.u8(), DecodeError);
}

TEST(Bytes, BlobRoundtripAndTruncation) {
  ByteWriter w;
  const Bytes payload{1, 2, 3, 4, 5};
  w.blob(payload);
  Bytes b = w.take();
  {
    ByteReader r(b);
    const auto back = r.blob();
    EXPECT_TRUE(std::equal(back.begin(), back.end(), payload.begin()));
  }
  b.resize(b.size() - 2);  // truncate payload
  ByteReader r(b);
  EXPECT_THROW(r.blob(), DecodeError);
}

TEST(ThreadPool, ParallelForCoversAll) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(10,
                        [](std::size_t i) {
                          if (i == 5) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, SubmitRuns) {
  ThreadPool pool(2);
  std::atomic<int> x{0};
  auto f = pool.submit([&] { x = 42; });
  f.get();
  EXPECT_EQ(x.load(), 42);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ParallelForFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(3, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// A parallel_for issued from inside one of the pool's own workers must run
// inline (a worker blocking on sub-tasks only workers can run would
// deadlock when every worker does it).
TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(4 * 16);
  pool.parallel_for(4, [&](std::size_t outer) {
    EXPECT_TRUE(pool.on_worker_thread());
    pool.parallel_for(16, [&](std::size_t inner) {
      hits[outer * 16 + inner]++;
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_FALSE(pool.on_worker_thread());
}

TEST(Table, RendersAlignedColumns) {
  Table t("demo");
  t.header({"name", "value"});
  t.row({"alpha", "1"});
  t.row({"b", "22222"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22222"), std::string::npos);
}

TEST(Table, NumAndBytesFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::bytes_human(512), "512.0 B");
  EXPECT_EQ(Table::bytes_human(2048), "2.0 KB");
  EXPECT_EQ(Table::bytes_human(3.5 * 1024 * 1024), "3.5 MB");
}


// --- SimdDispatch: the one kernel-dispatch template ---------------------

// A probe "kernel" per level that returns its level's index.
template <std::size_t I>
std::size_t level_probe() {
  return I;
}
using ProbeFn = std::size_t (*)();

template <std::size_t... I>
std::unique_ptr<SimdDispatch<ProbeFn>> make_probe_dispatch(
    std::index_sequence<I...>) {
  return std::make_unique<SimdDispatch<ProbeFn>>(&level_probe<I>...);
}

std::unique_ptr<SimdDispatch<ProbeFn>> make_probe_dispatch() {
  return make_probe_dispatch(
      std::make_index_sequence<kCompiledSimdLevels.size()>());
}

constexpr SimdLevel kEveryLevel[] = {SimdLevel::kScalar, SimdLevel::kBaseline,
                                     SimdLevel::kAvx2};

TEST(SimdDispatch, CompiledLevelsStartAtScalarInOrder) {
  const auto& levels = kCompiledSimdLevels;
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), SimdLevel::kScalar);
  // Slowest first, no gaps: the compiled levels are a prefix of the enum.
  for (std::size_t i = 0; i < levels.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(levels[i]), i);
    EXPECT_FALSE(simd_level_name(levels[i]).empty());
  }
  EXPECT_TRUE(simd_level_runnable(SimdLevel::kScalar));
}

TEST(SimdDispatch, StartsAtTheBestRunnableLevel) {
  const SimdLevel best = best_simd_level();
  EXPECT_TRUE(simd_level_runnable(best));
  for (const SimdLevel level : kEveryLevel) {
    if (level > best) {
      EXPECT_FALSE(simd_level_runnable(level));
    }
  }
  const auto dispatch = make_probe_dispatch();
  EXPECT_EQ(dispatch->active(), best);
  EXPECT_EQ(dispatch->fn()(), static_cast<std::size_t>(best));
  for (const SimdLevel level : kCompiledSimdLevels) {
    EXPECT_EQ(dispatch->kernel(level)(), static_cast<std::size_t>(level));
  }
}

// set() switches to every runnable level and refuses the rest, leaving the
// active level and kernel as they were; kernel() of a refused level is
// the scalar reference.
TEST(SimdDispatch, SetRefusesUncompiledOrUnrunnableLevels) {
  const auto dispatch = make_probe_dispatch();
  const SimdLevel foreign = static_cast<SimdLevel>(kCompiledSimdLevels.size());
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kBaseline, SimdLevel::kAvx2, foreign}) {
    const SimdLevel before = dispatch->active();
    const bool runnable = simd_level_runnable(level);
    EXPECT_EQ(dispatch->set(level), runnable);
    const SimdLevel now = runnable ? level : before;
    EXPECT_EQ(dispatch->active(), now);
    EXPECT_EQ(dispatch->fn()(), static_cast<std::size_t>(now));
    EXPECT_EQ(dispatch->kernel(level)(),
              runnable ? static_cast<std::size_t>(level) : 0u);
  }
  EXPECT_FALSE(simd_level_runnable(foreign));
}

// CMake's -DVP_DISABLE_SIMD=ON defines VP_DISABLE_SIMD for every target and
// leaves the scalar reference alone; otherwise x86-64 compiles SSE2 and
// AVX2, and ARM with NEON its baseline.
TEST(SimdDispatch, DisableSimdCompilesScalarOnly) {
  const std::vector<SimdLevel> levels(kCompiledSimdLevels.begin(),
                                      kCompiledSimdLevels.end());
#if defined(VP_DISABLE_SIMD)
  EXPECT_EQ(levels, std::vector<SimdLevel>{SimdLevel::kScalar});
#elif defined(__x86_64__)
  EXPECT_EQ(levels, (std::vector<SimdLevel>{
                        SimdLevel::kScalar, SimdLevel::kBaseline,
                        SimdLevel::kAvx2}));
#elif defined(__ARM_NEON)
  EXPECT_EQ(levels, (std::vector<SimdLevel>{SimdLevel::kScalar,
                                            SimdLevel::kBaseline}));
#endif
}

}  // namespace
}  // namespace vp
