#include "obs/export.hpp"

#include <cctype>
#include <cstdio>

namespace vp::obs {
namespace {

/// Shortest round-trippable-enough representation; %.10g keeps the golden
/// tests stable ("0.05" stays "0.05", never "0.050000000000000003").
std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// Metric names are code-controlled ("stage.sift.pyramid"); escape the two
/// JSON-active characters anyway so a stray name cannot corrupt the stream.
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string line_prefix(std::string_view bench) {
  std::string p = "{";
  if (!bench.empty()) {
    p += "\"bench\":\"" + json_escape(bench) + "\",";
  }
  return p;
}

std::string prom_name(std::string_view name) {
  std::string out = "vp_";
  for (char c : name) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  }
  return out;
}

}  // namespace

std::string to_json_lines(const MetricsSnapshot& snapshot,
                          std::string_view bench) {
  const std::string prefix = line_prefix(bench);
  std::string out;
  for (const auto& c : snapshot.counters) {
    out += prefix + "\"type\":\"counter\",\"name\":\"" + json_escape(c.name) +
           "\",\"value\":" + std::to_string(c.value) + "}\n";
  }
  for (const auto& g : snapshot.gauges) {
    out += prefix + "\"type\":\"gauge\",\"name\":\"" + json_escape(g.name) +
           "\",\"value\":" + fmt(g.value) + "}\n";
  }
  for (const auto& h : snapshot.histograms) {
    out += prefix + "\"type\":\"histogram\",\"name\":\"" +
           json_escape(h.name) + "\",\"count\":" + std::to_string(h.count) +
           ",\"sum_" + h.unit + "\":" + fmt(h.sum);
    for (const double p : {50.0, 90.0, 99.0}) {
      out += ",\"p" + std::to_string(static_cast<int>(p)) + "_" + h.unit +
             "\":" + fmt(estimate_percentile(h.upper_bounds, h.counts, p));
    }
    out += ",\"buckets\":[";
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      if (b != 0) out += ",";
      out += "[";
      out += b < h.upper_bounds.size() ? fmt(h.upper_bounds[b]) : "\"+inf\"";
      out += "," + std::to_string(h.counts[b]) + "]";
    }
    out += "]}\n";
  }
  return out;
}

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& c : snapshot.counters) {
    const std::string name = prom_name(c.name) + "_total";
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(c.value) + "\n";
  }
  for (const auto& g : snapshot.gauges) {
    const std::string name = prom_name(g.name);
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + fmt(g.value) + "\n";
  }
  for (const auto& h : snapshot.histograms) {
    const std::string name = prom_name(h.name + "_" + h.unit);
    out += "# TYPE " + name + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      cumulative += h.counts[b];
      const std::string le =
          b < h.upper_bounds.size() ? fmt(h.upper_bounds[b]) : "+Inf";
      out += name + "_bucket{le=\"" + le + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += name + "_sum " + fmt(h.sum) + "\n";
    out += name + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

namespace {

/// Microsecond timestamp with sub-µs precision preserved (%.3f keeps the
/// output stable and chrome://tracing accepts fractional ts).
std::string usec(double ms) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", ms * 1000.0);
  return buf;
}

constexpr int kClientLane = 1;
constexpr int kLinkLane = 2;
constexpr int kServerLane = 3;

void append_lane(std::string& out, const StitchedTrace& trace, int lane,
                 std::span<const StitchedSpan> spans) {
  char id[32];
  std::snprintf(id, sizeof id, "%016llx",
                static_cast<unsigned long long>(trace.trace_id));
  for (const StitchedSpan& s : spans) {
    if (!out.empty()) out += ",\n";
    out += "{\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(lane);
    out += ",\"name\":\"" + json_escape(s.name) + "\"";
    out += ",\"ts\":" + usec(trace.base_ms + s.start_ms);
    out += ",\"dur\":" + usec(s.duration_ms);
    out += ",\"args\":{\"trace_id\":\"";
    out += id;
    out += "\",\"frame_id\":" + std::to_string(trace.frame_id);
    out += ",\"place\":\"" + json_escape(trace.place) + "\"}}";
  }
}

}  // namespace

std::string to_chrome_trace(std::span<const StitchedTrace> traces) {
  std::string events;
  constexpr std::pair<int, const char*> kLanes[] = {
      {kClientLane, "client"}, {kLinkLane, "link"}, {kServerLane, "server"}};
  for (const auto& [lane, label] : kLanes) {
    if (!events.empty()) events += ",\n";
    events += "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(lane) +
              ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
              std::string(label) + "\"}}";
  }
  for (const StitchedTrace& trace : traces) {
    append_lane(events, trace, kClientLane, trace.client);
    append_lane(events, trace, kLinkLane, trace.link);
    append_lane(events, trace, kServerLane, trace.server);
  }
  return "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n" + events + "\n]}\n";
}

}  // namespace vp::obs
