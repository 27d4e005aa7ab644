// Tests for the observability layer: registry metrics under concurrency,
// span nesting and per-frame traces, exporter golden output, and the
// histogram percentile estimate cross-checked against vp::percentile.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/slow_log.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace vp {
namespace {

// The registry is process-global; each test uses unique metric names (and
// resets them up front) so the tests stay order-independent.

TEST(ObsCounter, AddAndValue) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsCounter, ConcurrentAddsFromThreadPoolExactTotal) {
  obs::Counter c;
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kAddsPerTask = 10'000;
  pool.parallel_for(kTasks, [&](std::size_t) {
    for (std::size_t i = 0; i < kAddsPerTask; ++i) c.add(1);
  });
  EXPECT_EQ(c.value(), kTasks * kAddsPerTask);
}

TEST(ObsCounter, ConcurrentAddsFromRawThreadsExactTotal) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr std::size_t kAdds = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (std::size_t j = 0; j < kAdds; ++j) c.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(ObsGauge, SetAndAdd) {
  obs::Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
}

TEST(ObsHistogram, BucketAssignment) {
  obs::LatencyHistogram h(obs::HistogramBuckets{{1.0, 10.0, 100.0}});
  h.record(0.5);     // <= 1
  h.record(1.0);     // boundary counts into its own bucket (le semantics)
  h.record(5.0);     // <= 10
  h.record(1000.0);  // +Inf
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.total_count(), 4u);
  EXPECT_DOUBLE_EQ(h.total_sum(), 1006.5);
}

TEST(ObsHistogram, ConcurrentRecordsExactTotals) {
  obs::LatencyHistogram h(obs::HistogramBuckets::latency_ms());
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 32;
  constexpr std::size_t kRecords = 5'000;
  pool.parallel_for(kTasks, [&](std::size_t task) {
    for (std::size_t i = 0; i < kRecords; ++i) {
      h.record(static_cast<double>(task % 7) + 0.1);
    }
  });
  EXPECT_EQ(h.total_count(), kTasks * kRecords);
  std::uint64_t bucket_total = 0;
  for (const auto c : h.bucket_counts()) bucket_total += c;
  EXPECT_EQ(bucket_total, kTasks * kRecords);
}

TEST(ObsHistogram, PercentileMatchesVpPercentileWithinBucketResolution) {
  // Cross-check the bucket-interpolated estimate against the exact sample
  // percentile: they must agree to within the local bucket resolution.
  obs::LatencyHistogram h(obs::HistogramBuckets::exponential(0.1, 1.5, 30));
  std::vector<double> samples;
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const double v = std::abs(rng.gaussian(20.0, 12.0)) + 0.2;
    samples.push_back(v);
    h.record(v);
  }
  const auto& bounds = h.upper_bounds();
  for (const double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    const double exact = percentile(samples, p);
    const double est = h.percentile(p);
    // The two rank conventions may land in adjacent buckets, so allow a
    // couple of widths of the bucket covering the exact value.
    const auto it = std::lower_bound(bounds.begin(), bounds.end(), exact);
    const double hi = it == bounds.end() ? bounds.back() : *it;
    const double lo = it == bounds.begin() ? 0.0 : *(it - 1);
    EXPECT_NEAR(est, exact, 2.5 * (hi - lo) + 1e-9) << "p" << p;
  }
}

TEST(ObsHistogram, PercentileEmptySafe) {
  obs::LatencyHistogram h(obs::HistogramBuckets::latency_ms());
  EXPECT_EQ(h.percentile(50), 0.0);  // no throw, unlike vp::percentile
  const std::vector<std::uint64_t> counts;
  EXPECT_EQ(obs::estimate_percentile({}, counts, 99), 0.0);
}

TEST(ObsHistogram, PercentileInterpolatesWithinBucket) {
  obs::LatencyHistogram h(obs::HistogramBuckets{{10.0, 20.0}});
  for (int i = 0; i < 4; ++i) h.record(15.0);  // all in (10, 20]
  // Rank 2 of 4 sits half-way through the occupied bucket.
  EXPECT_DOUBLE_EQ(h.percentile(50), 15.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 20.0);
}

TEST(ObsHistogram, PercentileInfBucketReportsLastFiniteBound) {
  obs::LatencyHistogram h(obs::HistogramBuckets{{1.0, 2.0}});
  h.record(50.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 2.0);
}

TEST(ObsBuckets, ExponentialLayout) {
  const auto b = obs::HistogramBuckets::exponential(1.0, 2.0, 4);
  ASSERT_EQ(b.upper_bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(b.upper_bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(b.upper_bounds[3], 8.0);
  EXPECT_THROW(obs::HistogramBuckets::exponential(0.0, 2.0, 4),
               InvalidArgument);
}

TEST(ObsRegistry, SameNameSameMetricAcrossThreads) {
  auto& reg = obs::Registry::global();
  reg.counter("reg.same").reset();
  ThreadPool pool(4);
  pool.parallel_for(16, [&](std::size_t) {
    // Every task resolves by name: exercises the shared-lock fast path and
    // the create-once slow path racing on first use.
    obs::Registry::global().counter("reg.same").add(1);
  });
  EXPECT_EQ(reg.counter("reg.same").value(), 16u);
}

TEST(ObsRegistry, SnapshotSortedAndComplete) {
  auto& reg = obs::Registry::global();
  reg.counter("snap.b").reset();
  reg.counter("snap.a").reset();
  reg.counter("snap.a").add(3);
  reg.gauge("snap.g").set(1.5);
  reg.histogram("snap.h").reset();
  reg.histogram("snap.h").record(0.07);

  const auto snap = reg.snapshot();
  std::vector<std::string> names;
  for (const auto& c : snap.counters) names.push_back(c.name);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  bool found_a = false;
  for (const auto& c : snap.counters) {
    if (c.name == "snap.a") {
      found_a = true;
      EXPECT_EQ(c.value, 3u);
    }
  }
  EXPECT_TRUE(found_a);
  bool found_h = false;
  for (const auto& h : snap.histograms) {
    if (h.name == "snap.h") {
      found_h = true;
      EXPECT_EQ(h.count, 1u);
      EXPECT_DOUBLE_EQ(h.sum, 0.07);
      EXPECT_EQ(h.counts.size(), h.upper_bounds.size() + 1);
    }
  }
  EXPECT_TRUE(found_h);
}

TEST(ObsTrace, SpanNestingParentsAndOrder) {
  obs::FrameTrace trace;
  {
    obs::Span outer("t.outer");
    {
      obs::Span inner("t.inner");
      { obs::Span leaf("t.leaf"); }
    }
    obs::Span sibling("t.sibling");
  }
  const auto& recs = trace.records();
  ASSERT_EQ(recs.size(), 4u);
  // Records appear in open order.
  EXPECT_STREQ(recs[0].name, "t.outer");
  EXPECT_STREQ(recs[1].name, "t.inner");
  EXPECT_STREQ(recs[2].name, "t.leaf");
  EXPECT_STREQ(recs[3].name, "t.sibling");
  EXPECT_EQ(recs[0].parent, -1);
  EXPECT_EQ(recs[1].parent, 0);
  EXPECT_EQ(recs[2].parent, 1);
  EXPECT_EQ(recs[3].parent, 0);
  EXPECT_EQ(recs[0].depth, 0);
  EXPECT_EQ(recs[1].depth, 1);
  EXPECT_EQ(recs[2].depth, 2);
  EXPECT_EQ(recs[3].depth, 1);
  for (const auto& r : recs) {
    EXPECT_GE(r.duration_ms, 0.0);
    EXPECT_GE(r.start_ms, 0.0);
  }
  // An enclosing span covers at least its children's time.
  EXPECT_GE(recs[0].duration_ms, recs[1].duration_ms);
  EXPECT_GE(recs[1].duration_ms, recs[2].duration_ms);
}

TEST(ObsTrace, StageTimingsAccumulateRepeats) {
  obs::FrameTrace trace;
  { obs::Span a("t.rep"); }
  { obs::Span b("t.rep"); }
  { obs::Span c("t.other"); }
  const auto stages = trace.stage_timings();
  ASSERT_EQ(stages.entries().size(), 2u);
  EXPECT_TRUE(stages.contains("t.rep"));
  EXPECT_TRUE(stages.contains("t.other"));
  EXPECT_EQ(stages.value("missing"), 0.0);  // empty-safe lookup
  EXPECT_GE(stages.value("t.rep"), 0.0);
}

TEST(ObsTrace, StageTimingsScale) {
  obs::StageTimings st;
  st.add("a", 2.0);
  st.add("b", 3.0);
  st.add("a", 1.0);  // accumulates
  st.scale(10.0);
  EXPECT_DOUBLE_EQ(st.value("a"), 30.0);
  EXPECT_DOUBLE_EQ(st.value("b"), 30.0);
}

TEST(ObsTrace, SpansWithoutTraceRecordHistogramOnly) {
  auto& reg = obs::Registry::global();
  reg.histogram("stage.t.free").reset();
  { obs::Span s("t.free"); }
  EXPECT_EQ(reg.histogram("stage.t.free").total_count(), 1u);
}

TEST(ObsTrace, WorkerThreadSpansDontJoinCoordinatorTrace) {
  // Pool workers have no active trace of their own: their spans must go
  // histogram-only, never into the coordinating thread's frame trace.
  obs::FrameTrace trace;
  ThreadPool pool(3);
  pool.parallel_for(8, [&](std::size_t) { obs::Span s("t.worker"); });
  for (const auto& rec : trace.records()) {
    EXPECT_STRNE(rec.name, "t.worker");
  }
}

TEST(ObsTrace, NestedTracesShadowAndRestore) {
  obs::FrameTrace outer;
  { obs::Span a("t.shadow.outer"); }
  {
    obs::FrameTrace inner;
    { obs::Span b("t.shadow.inner"); }
    ASSERT_EQ(inner.records().size(), 1u);
    EXPECT_STREQ(inner.records()[0].name, "t.shadow.inner");
  }
  { obs::Span c("t.shadow.outer2"); }
  ASSERT_EQ(outer.records().size(), 2u);
  EXPECT_STREQ(outer.records()[0].name, "t.shadow.outer");
  EXPECT_STREQ(outer.records()[1].name, "t.shadow.outer2");
}

TEST(ObsExport, JsonLinesGolden) {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"client.frames", 3});
  snap.gauges.push_back({"link.mbps", 8.5});
  snap.histograms.push_back({"stage.demo", {1.0, 10.0}, {1, 1, 0}, 2, 3.05});
  const std::string out = obs::to_json_lines(snap);
  EXPECT_EQ(out,
            "{\"type\":\"counter\",\"name\":\"client.frames\",\"value\":3}\n"
            "{\"type\":\"gauge\",\"name\":\"link.mbps\",\"value\":8.5}\n"
            "{\"type\":\"histogram\",\"name\":\"stage.demo\",\"count\":2,"
            "\"sum_ms\":3.05,\"p50_ms\":1,\"p90_ms\":10,\"p99_ms\":10,"
            "\"buckets\":[[1,1],[10,1],[\"+inf\",0]]}\n");
}

TEST(ObsExport, JsonLinesBenchTag) {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"c", 1});
  EXPECT_EQ(obs::to_json_lines(snap, "fig14"),
            "{\"bench\":\"fig14\",\"type\":\"counter\",\"name\":\"c\","
            "\"value\":1}\n");
}

TEST(ObsExport, PrometheusGolden) {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"client.frames", 3});
  snap.gauges.push_back({"link.mbps", 8.5});
  snap.histograms.push_back({"stage.demo", {1.0, 10.0}, {1, 1, 0}, 2, 3.05});
  const std::string out = obs::to_prometheus(snap);
  EXPECT_EQ(out,
            "# TYPE vp_client_frames_total counter\n"
            "vp_client_frames_total 3\n"
            "# TYPE vp_link_mbps gauge\n"
            "vp_link_mbps 8.5\n"
            "# TYPE vp_stage_demo_ms histogram\n"
            "vp_stage_demo_ms_bucket{le=\"1\"} 1\n"
            "vp_stage_demo_ms_bucket{le=\"10\"} 2\n"
            "vp_stage_demo_ms_bucket{le=\"+Inf\"} 2\n"
            "vp_stage_demo_ms_sum 3.05\n"
            "vp_stage_demo_ms_count 2\n");
}

TEST(ObsExport, ByteHistogramKeepsQueriesFiniteAndExportsItsUnit) {
  // The compact and raw top-200 query sizes both land in finite buckets of
  // the byte layout (the ms layout tops out at 26214.4).
  obs::LatencyHistogram h(obs::HistogramBuckets::bytes());
  EXPECT_EQ(h.unit(), "bytes");
  h.record(4055);
  h.record(28842);
  EXPECT_EQ(h.total_count(), 2u);
  EXPECT_EQ(h.bucket_counts().back(), 0u);
  EXPECT_GE(h.percentile(90), 28842.0);
  EXPECT_LT(h.percentile(90), h.upper_bounds().back());

  obs::MetricsSnapshot snap;
  obs::HistogramSample sample{"net.query_bytes", h.upper_bounds(),
                              h.bucket_counts(), h.total_count(),
                              h.total_sum(), h.unit()};
  snap.histograms.push_back(sample);
  const std::string json = obs::to_json_lines(snap);
  EXPECT_NE(json.find("\"sum_bytes\":32897"), std::string::npos);
  EXPECT_NE(json.find("\"p90_bytes\":"), std::string::npos);
  EXPECT_EQ(json.find("_ms\""), std::string::npos);
  const std::string prom = obs::to_prometheus(snap);
  EXPECT_NE(prom.find("# TYPE vp_net_query_bytes_bytes histogram\n"),
            std::string::npos);
  EXPECT_NE(prom.find("vp_net_query_bytes_bytes_sum 32897\n"),
            std::string::npos);
}

TEST(ObsExport, JsonEscapesQuotesInNames) {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"we\"ird", 1});
  const std::string out = obs::to_json_lines(snap);
  EXPECT_NE(out.find("\"we\\\"ird\""), std::string::npos);
}

TEST(ObsMacros, CompileInBothConfigurations) {
  // Under VP_OBS=OFF these expand to no-ops; under ON they hit the global
  // registry. Either way this must compile and run cleanly.
#if VP_OBS_ENABLED
  obs::Registry::global().counter("macro.count").reset();
#endif
  VP_OBS_COUNT("macro.count", 2);
  VP_OBS_GAUGE_SET("macro.gauge", 1.0);
  VP_OBS_OBSERVE("macro.hist", 0.5);
  VP_OBS_SPAN("macro.span");
#if VP_OBS_ENABLED
  EXPECT_EQ(obs::Registry::global().counter("macro.count").value(), 2u);
#else
  SUCCEED();
#endif
}

TEST(ObsHistogram, CumulativeBucketsMonotonicUnderConcurrentObserves) {
  // A scraper racing a writer must never see a cumulative bucket series go
  // backwards between scrapes (Prometheus counters are monotone), and the
  // quiescent totals must reconcile exactly.
  obs::LatencyHistogram h(obs::HistogramBuckets::exponential(0.5, 2.0, 8));
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(3);
    while (!stop.load(std::memory_order_relaxed)) {
      h.record(rng.uniform(0.0, 200.0));
    }
  });
  std::vector<std::uint64_t> prev(h.upper_bounds().size() + 1, 0);
  for (int scrape = 0; scrape < 200; ++scrape) {
    const auto counts = h.bucket_counts();
    ASSERT_EQ(counts.size(), prev.size());
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < counts.size(); ++b) {
      cum += counts[b];
      EXPECT_GE(cum, prev[b]) << "bucket " << b << " went backwards";
      prev[b] = cum;
    }
  }
  stop = true;
  writer.join();
  std::uint64_t total = 0;
  for (const auto c : h.bucket_counts()) total += c;
  EXPECT_EQ(total, h.total_count());
}

TEST(ObsExport, PrometheusSanitizationCollisionsSurfaceBothSeries) {
  // "col.a" and "col_a" sanitize to the same Prometheus name. The exporter
  // renders the snapshot verbatim — both series appear, neither is merged
  // or silently dropped; the collision is the operator's to resolve (and
  // this test pins that contract so a future dedup is a deliberate change).
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"col.a", 1});
  snap.counters.push_back({"col_a", 2});
  const std::string out = obs::to_prometheus(snap);
  EXPECT_NE(out.find("vp_col_a_total 1\n"), std::string::npos);
  EXPECT_NE(out.find("vp_col_a_total 2\n"), std::string::npos);
  std::size_t series = 0;
  for (std::size_t pos = 0;
       (pos = out.find("# TYPE vp_col_a_total counter\n", pos)) !=
       std::string::npos;
       ++pos) {
    ++series;
  }
  EXPECT_EQ(series, 2u);
}

// ---------------------------------------------------------------------------
// Trace propagation plumbing: ids, notes, stitching, the Chrome exporter.

TEST(ObsTraceId, NonZeroAndUniqueAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr std::size_t kPerThread = 10'000;
  std::vector<std::vector<std::uint64_t>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ids, t] {
      ids[static_cast<std::size_t>(t)].reserve(kPerThread);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        ids[static_cast<std::size_t>(t)].push_back(obs::next_trace_id());
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<std::uint64_t> all;
  for (const auto& v : ids) all.insert(all.end(), v.begin(), v.end());
  EXPECT_TRUE(std::none_of(all.begin(), all.end(),
                           [](std::uint64_t id) { return id == 0; }));
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
}

TEST(ObsTrace, NotesAttachToActiveTrace) {
  obs::FrameTrace trace;
  obs::trace_note("server.candidates", 42.0);
  obs::trace_note("server.clustered", 7.0);
  ASSERT_EQ(trace.notes().size(), 2u);
  EXPECT_STREQ(trace.notes()[0].first, "server.candidates");
  EXPECT_DOUBLE_EQ(trace.notes()[0].second, 42.0);
  EXPECT_STREQ(trace.notes()[1].first, "server.clustered");
}

TEST(ObsTrace, NotesWithoutActiveTraceAreDropped) {
  obs::trace_note("orphan.note", 1.0);  // must not crash or leak anywhere
  obs::FrameTrace trace;
  EXPECT_TRUE(trace.notes().empty());
}

TEST(ObsTrace, ToStitchedSpansScalesAndOffsets) {
  std::vector<obs::SpanRecord> recs(2);
  recs[0].name = "a";
  recs[0].parent = -1;
  recs[0].start_ms = 1.0;
  recs[0].duration_ms = 2.0;
  recs[1].name = "b";
  recs[1].parent = 0;
  recs[1].start_ms = 1.5;
  recs[1].duration_ms = 0.5;
  const auto spans = obs::to_stitched_spans(recs, /*scale=*/10.0,
                                            /*offset_ms=*/100.0);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "a");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_DOUBLE_EQ(spans[0].start_ms, 110.0);
  EXPECT_DOUBLE_EQ(spans[0].duration_ms, 20.0);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_DOUBLE_EQ(spans[1].start_ms, 115.0);
  EXPECT_DOUBLE_EQ(spans[1].duration_ms, 5.0);
}

TEST(ObsExport, ChromeTraceLanesAndEvents) {
  obs::StitchedTrace st;
  st.trace_id = 0xABC;
  st.frame_id = 7;
  st.place = "atrium";
  st.base_ms = 10.0;
  st.client = {{"encode", -1, 0.0, 1.5}};
  st.link = {{"link.rtt", -1, 1.5, 4.0}};
  st.server = {{"decode", -1, 2.0, 0.5}};
  const std::string out = obs::to_chrome_trace(std::span(&st, 1));

  EXPECT_NE(out.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Three lane-naming metadata events, one complete event per lane.
  for (const char* lane : {"client", "link", "server"}) {
    EXPECT_NE(out.find("\"name\":\"thread_name\",\"args\":{\"name\":\"" +
                       std::string(lane) + "\"}"),
              std::string::npos);
  }
  std::size_t x_events = 0;
  for (std::size_t pos = 0;
       (pos = out.find("\"ph\":\"X\"", pos)) != std::string::npos; ++pos) {
    ++x_events;
  }
  EXPECT_EQ(x_events, 3u);
  // Timestamps are µs: base 10 ms + start 2 ms = 12000 µs on the server
  // lane (tid 3), duration 500 µs.
  EXPECT_NE(out.find("\"tid\":3,\"name\":\"decode\",\"ts\":12000.000,"
                     "\"dur\":500.000"),
            std::string::npos);
  // Every event carries the zero-padded hex trace id and the place.
  EXPECT_NE(out.find("\"trace_id\":\"0000000000000abc\""), std::string::npos);
  EXPECT_NE(out.find("\"place\":\"atrium\""), std::string::npos);
}

TEST(ObsExport, ChromeTraceEmptyInputStillWellFormed) {
  const std::string out = obs::to_chrome_trace({});
  EXPECT_NE(out.find("\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(out.find("\"ph\":\"X\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Slow-query log: worst-N retention, thresholds, JSON rendering, races.

obs::SlowQuery make_slow(std::uint64_t id, double total_ms) {
  obs::SlowQuery q;
  q.trace_id = id;
  q.frame_id = static_cast<std::uint32_t>(id);
  q.place = "atrium";
  q.total_ms = total_ms;
  q.stages = {{"decode", total_ms / 2}, {"localize.solve", total_ms / 2}};
  q.notes = {{"server.candidates", 12.0}};
  return q;
}

TEST(ObsSlowLog, RetainsWorstNSortedDescending) {
  obs::SlowQueryLog log(4);
  EXPECT_EQ(log.capacity(), 4u);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    log.record(make_slow(i, static_cast<double>(i)));
  }
  EXPECT_EQ(log.seen(), 10u);
  const auto worst = log.worst();
  ASSERT_EQ(worst.size(), 4u);
  EXPECT_DOUBLE_EQ(worst[0].total_ms, 10.0);
  EXPECT_DOUBLE_EQ(worst[1].total_ms, 9.0);
  EXPECT_DOUBLE_EQ(worst[2].total_ms, 8.0);
  EXPECT_DOUBLE_EQ(worst[3].total_ms, 7.0);
  // Threshold tracks the weakest retained entry once full.
  EXPECT_DOUBLE_EQ(log.threshold_ms(), 7.0);
}

TEST(ObsSlowLog, FastPathRejectCountsButDoesNotRetain) {
  obs::SlowQueryLog log(2);
  log.record(make_slow(1, 50.0));
  log.record(make_slow(2, 60.0));
  log.record(make_slow(3, 1.0));  // below threshold: counted, not kept
  EXPECT_EQ(log.seen(), 3u);
  const auto worst = log.worst();
  ASSERT_EQ(worst.size(), 2u);
  EXPECT_DOUBLE_EQ(worst[1].total_ms, 50.0);
}

TEST(ObsSlowLog, JsonLinesCarryStagesNotesAndSummary) {
  obs::SlowQueryLog log(4);
  obs::SlowQuery q = make_slow(0xBEEF, 12.5);
  q.error_code = 3;
  log.record(std::move(q));
  const std::string out = log.to_json_lines();
  EXPECT_NE(out.find("\"type\":\"slow_query\""), std::string::npos);
  EXPECT_NE(out.find("\"trace_id\":\"000000000000beef\""), std::string::npos);
  EXPECT_NE(out.find("\"place\":\"atrium\""), std::string::npos);
  EXPECT_NE(out.find("\"error_code\":3"), std::string::npos);
  EXPECT_NE(out.find("[\"decode\",6.25]"), std::string::npos);
  EXPECT_NE(out.find("[\"server.candidates\",12]"), std::string::npos);
  EXPECT_NE(out.find("\"type\":\"slow_query_summary\""), std::string::npos);
  EXPECT_NE(out.find("\"retained\":1"), std::string::npos);
  EXPECT_NE(out.find("\"seen\":1"), std::string::npos);
}

TEST(ObsSlowLog, ConcurrentRecordsKeepInvariants) {
  // Distinct totals from many threads: the retained set must be exactly
  // the top-N, the global maximum always survives, and seen() counts all.
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 2'000;
  obs::SlowQueryLog log(16);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t id =
            static_cast<std::uint64_t>(t) * kPerThread + i + 1;
        // Distinct totals; ordering across threads is scrambled.
        log.record(make_slow(id, static_cast<double>(id) +
                                     rng.uniform(0.0, 0.4)));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(log.seen(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  const auto worst = log.worst();
  ASSERT_EQ(worst.size(), 16u);
  EXPECT_TRUE(std::is_sorted(
      worst.begin(), worst.end(),
      [](const auto& a, const auto& b) { return a.total_ms > b.total_ms; }));
  // The largest id carries the largest total and must have been retained.
  EXPECT_EQ(worst.front().trace_id,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  for (const auto& q : worst) {
    EXPECT_GE(q.total_ms, log.threshold_ms());
  }
}

TEST(ObsStats, EmptySafeQuantiles) {
  // The documented empty-safe paths next to the throwing ones.
  const EmpiricalCdf empty;
  EXPECT_THROW(empty.quantile(0.5), InvalidArgument);
  EXPECT_DOUBLE_EQ(empty.quantile_or(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile_or(0.5, -1.0), -1.0);

  const std::vector<double> none;
  EXPECT_THROW(percentile(none, 50), InvalidArgument);
  EXPECT_DOUBLE_EQ(percentile_or(none, 50), 0.0);
  EXPECT_DOUBLE_EQ(percentile_or(none, 50, 7.0), 7.0);

  const std::vector<double> some{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile_or(some, 50), percentile(some, 50));
  const EmpiricalCdf cdf(some);
  EXPECT_DOUBLE_EQ(cdf.quantile_or(0.5), cdf.quantile(0.5));
}

}  // namespace
}  // namespace vp
