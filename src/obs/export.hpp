// Exporters over a MetricsSnapshot: JSON-lines (the format every bench
// already prints, shared via bench_common) and Prometheus-style text (what
// the example server returns for a kStatsRequest scrape).
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vp::obs {

/// One JSON object per line, e.g.
///   {"type":"counter","name":"client.frames","value":42}
///   {"type":"histogram","name":"stage.select","count":3,"sum_ms":1.5,
///    "p50_ms":0.4,"p90_ms":0.9,"p99_ms":0.9,
///    "buckets":[[0.05,1],[0.1,2],["+inf",0]]}
/// A non-empty `bench` tag prefixes every line with "bench":"<tag>", matching
/// the existing bench output convention so downstream parsing stays uniform.
/// Histogram sum and percentile keys carry the histogram's unit ("sum_ms",
/// "sum_bytes").
std::string to_json_lines(const MetricsSnapshot& snapshot,
                          std::string_view bench = {});

/// Prometheus text exposition (untyped timestamps-free subset):
/// counters as vp_<name>_total, gauges as vp_<name>, histograms as
/// vp_<name>_<unit> (vp_<name>_ms for latencies) with cumulative
/// le-labelled buckets, _sum, and _count.
/// Metric names are sanitized to [a-zA-Z0-9_].
std::string to_prometheus(const MetricsSnapshot& snapshot);

/// Chrome trace event format (the JSON object variant with "traceEvents"),
/// loadable in Perfetto or chrome://tracing. Each StitchedTrace renders as
/// complete ("ph":"X") events on three named lanes — client (tid 1),
/// link (tid 2), server (tid 3) — under one pid, with per-event args
/// carrying the hex trace_id, frame_id, and place so frames remain
/// correlatable after sorting. Timestamps are microseconds:
/// base_ms + span.start_ms converted to µs.
std::string to_chrome_trace(std::span<const StitchedTrace> traces);

}  // namespace vp::obs
