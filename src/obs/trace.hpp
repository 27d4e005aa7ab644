// Scoped tracing spans: an RAII Span times a named pipeline stage on
// steady_clock and records the duration into the registry histogram
// "stage.<name>". While a FrameTrace is active on the current thread, each
// Span additionally appends a SpanRecord (with parent/child nesting) to the
// per-frame trace, which the session simulator flattens into a per-frame
// stage-timing record (SessionFrame::stages).
//
// Threading: a FrameTrace is thread-local — spans opened on ThreadPool
// workers while the coordinating thread holds a trace go histogram-only
// instead of racing on the trace buffer. Histograms are lock-free, so spans
// are safe on any thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace vp::obs {

/// One completed (or still-open) span inside a FrameTrace.
struct SpanRecord {
  const char* name = "";     ///< static-storage stage name
  std::int32_t parent = -1;  ///< index of enclosing span; -1 for roots
  std::int32_t depth = 0;    ///< nesting depth (roots are 0)
  double start_ms = 0;       ///< offset from the trace epoch
  double duration_ms = 0;    ///< 0 until the span closes
};

/// Per-frame trace context carried across the wire (a traced FingerprintQuery):
/// a nonzero id correlates client, link, and server records of the same
/// frame; the sampled bit asks the server to echo its span block back.
inline constexpr std::uint8_t kTraceSampled = 0x01;

/// Fresh process-unique nonzero trace id (splitmix64 over an atomic
/// counter seeded from the clock at first use). Deterministic callers
/// (the session simulator) derive ids from their own seeds instead.
std::uint64_t next_trace_id() noexcept;

/// Ordered (stage name, milliseconds) record assembled from a trace.
/// Repeated stage names accumulate. Lookup is linear — a frame has on the
/// order of ten stages.
class StageTimings {
 public:
  void add(std::string_view stage, double ms);
  bool contains(std::string_view stage) const noexcept;
  /// Milliseconds recorded for `stage`; 0 when absent.
  double value(std::string_view stage) const noexcept;
  /// Multiply every entry (host -> phone latency scaling).
  void scale(double factor) noexcept;
  const std::vector<std::pair<std::string, double>>& entries() const noexcept {
    return entries_;
  }
  bool empty() const noexcept { return entries_.empty(); }

 private:
  std::vector<std::pair<std::string, double>> entries_;
};

namespace detail {
struct TraceState {
  std::chrono::steady_clock::time_point epoch;
  std::vector<SpanRecord> records;
  std::vector<std::int32_t> open;  ///< indices of currently open spans
  /// Named numeric annotations (candidate counts, scan sizes) attached by
  /// trace_note(). Keys have static storage; repeated keys accumulate at
  /// read time, not append time.
  std::vector<std::pair<const char*, double>> notes;
};
/// The thread's active trace, or nullptr.
TraceState*& active_trace() noexcept;
}  // namespace detail

/// Attach a named numeric annotation to the thread's active FrameTrace
/// (no-op without one). `key` must have static storage duration — the
/// VP_OBS_TRACE_NOTE macro passes string literals. Like spans, notes made
/// on ThreadPool workers while the coordinating thread holds the trace are
/// dropped rather than raced.
void trace_note(const char* key, double value);

/// Span records of the thread's active FrameTrace; nullptr when none.
/// Borrowed view — valid only while the trace stays alive and no further
/// spans open (callers copy immediately).
const std::vector<SpanRecord>* active_trace_records() noexcept;

/// Milliseconds from the active trace's epoch to `at` (0 when no trace is
/// active) — lets transports place wire events on the trace's timeline.
double active_trace_ms_at(std::chrono::steady_clock::time_point at) noexcept;

/// Collects every Span opened on this thread between construction and
/// destruction. Nests: constructing a second FrameTrace shadows the first
/// until it is destroyed (destruction must be LIFO, i.e. scoped).
class FrameTrace {
 public:
  FrameTrace();
  ~FrameTrace();
  FrameTrace(const FrameTrace&) = delete;
  FrameTrace& operator=(const FrameTrace&) = delete;

  const std::vector<SpanRecord>& records() const noexcept {
    return state_.records;
  }

  /// Annotations attached via trace_note() while this trace was active.
  const std::vector<std::pair<const char*, double>>& notes() const noexcept {
    return state_.notes;
  }

  /// Flatten into per-stage totals, in first-seen order. Open spans are
  /// skipped (their duration is not known yet).
  StageTimings stage_timings() const;

 private:
  detail::TraceState state_;
  detail::TraceState* previous_ = nullptr;
};

/// RAII stage timer. Always records into the "stage.<name>" histogram of
/// the global registry; additionally appends to the thread's active
/// FrameTrace, if any. `name` must have static storage duration (the
/// VP_OBS_SPAN macro passes string literals).
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  LatencyHistogram* histogram_;
  std::chrono::steady_clock::time_point start_;
  detail::TraceState* trace_;  ///< trace active at construction, if any
  std::int32_t index_ = -1;    ///< slot in that trace; -1 if none
};

// ---------------------------------------------------------------------------
// Stitched cross-process traces
//
// One frame's journey through the offload pipeline, assembled on the
// client from three sources: its own FrameTrace, the (simulated or
// measured) link timing, and the server span block echoed back on a
// traced LocationResponse. Rendered by obs::to_chrome_trace (export.hpp) as
// client/link/server lanes loadable in Perfetto or chrome://tracing.

/// One span inside a stitched lane. Times are milliseconds relative to
/// the owning StitchedTrace's base; `parent` indexes within the same lane.
struct StitchedSpan {
  std::string name;
  std::int32_t parent = -1;
  double start_ms = 0;
  double duration_ms = 0;
};

/// One frame's stitched, cross-process trace.
struct StitchedTrace {
  std::uint64_t trace_id = 0;
  std::uint32_t frame_id = 0;
  std::string place;       ///< place that answered (response place)
  double base_ms = 0;      ///< session-relative start of this frame's trace
  std::vector<StitchedSpan> client;  ///< phone-side pipeline spans
  std::vector<StitchedSpan> link;    ///< uplink/downlink or queue/transfer
  std::vector<StitchedSpan> server;  ///< echoed server span block
};

/// Copy a FrameTrace's records into stitched spans: `scale` multiplies
/// start/duration (host→phone latency modeling), `offset_ms` shifts every
/// start. Spans still open at copy time carry their (zero) duration.
std::vector<StitchedSpan> to_stitched_spans(std::span<const SpanRecord> records,
                                            double scale = 1.0,
                                            double offset_ms = 0.0);

}  // namespace vp::obs

#if VP_OBS_ENABLED
#define VP_OBS_SPAN_CONCAT2_(a, b) a##b
#define VP_OBS_SPAN_CONCAT_(a, b) VP_OBS_SPAN_CONCAT2_(a, b)
#define VP_OBS_SPAN(name) \
  const ::vp::obs::Span VP_OBS_SPAN_CONCAT_(vp_obs_span_, __LINE__)(name)
#define VP_OBS_TRACE_NOTE(key, v) \
  ::vp::obs::trace_note(key, static_cast<double>(v))
#else
#define VP_OBS_SPAN(name) static_cast<void>(0)
#define VP_OBS_TRACE_NOTE(key, v) static_cast<void>(0)
#endif
