// Structured tracing for the compile pipeline: spans + decision remarks.
//
// Two channels, both collected by a process-wide Tracer singleton and
// both near-zero-cost when disabled (one relaxed atomic load per call
// site):
//
//  * Spans -- RAII timed regions (TraceSpan) with a category, a name,
//    key=value attributes, the recording thread and a nesting depth.
//    Spans may be opened from worker threads (dependence analysis opens
//    one per statement pair); they carry microsecond timestamps and are
//    exported as Chrome trace-event JSON ("X" complete events), loadable
//    in chrome://tracing or https://ui.perfetto.dev.
//
//  * Decision remarks -- ordered, structured records of *why* the
//    pipeline did what it did: one per fusion candidate (cost-model
//    verdict), per hyperplane found or scalar cut (Farkas objective,
//    parallelism outcome), per Algorithm-2 distribution. Remarks are
//    only emitted from deterministic (serial) pipeline code and carry no
//    wall-clock data in their text form, so `polyfuse --explain` output
//    is byte-identical at every --jobs count. Surfaced by
//    `polyfuse --explain[=json]` and embedded (as a summary) in the
//    bench harness JSON.
//
// Enabling: `polyfuse --trace=FILE` (or POLYFUSE_TRACE=FILE) turns both
// channels on; `--explain` turns on remarks only.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "support/intmath.h"

namespace pf::support {

/// One key=value attribute; values are pre-rendered to strings.
using TraceAttr = std::pair<std::string, std::string>;

struct SpanInfo {
  std::string category;
  std::string name;
  int tid = 0;           // small per-process thread index, 0 = first seen
  int depth = 0;         // nesting depth on its thread at open time
  double start_us = 0;   // microseconds since tracer epoch
  double dur_us = 0;
  std::vector<TraceAttr> attrs;
};

struct Remark {
  std::size_t seq = 0;   // global emission order
  std::string category;  // "deps" | "sched" | "fusion" | ...
  std::string message;
  std::vector<TraceAttr> attrs;
  double ts_us = 0;      // trace-export only; never part of --explain text
};

class Tracer {
 public:
  /// The process-wide instance everything reports into.
  static Tracer& instance();

  /// Fast inline gates: call sites check these before building any
  /// strings, so a disabled tracer costs one relaxed atomic load.
  static bool spans_on() {
    return spans_enabled_.load(std::memory_order_relaxed);
  }
  static bool remarks_on() {
    return remarks_enabled_.load(std::memory_order_relaxed);
  }

  void set_spans_enabled(bool on) {
    spans_enabled_.store(on, std::memory_order_relaxed);
  }
  void set_remarks_enabled(bool on) {
    remarks_enabled_.store(on, std::memory_order_relaxed);
  }

  /// In-memory buffer cap, per channel (spans and remarks each): once a
  /// channel holds this many events, further events are dropped and
  /// counted in the trace_events_dropped counter instead of growing the
  /// vector without bound -- a resident service must not OOM from
  /// tracing. Configurable via POLYFUSE_TRACE_MAX_EVENTS (parsed by the
  /// CLI); the flight recorder (support/flightrec.h) still sees every
  /// event, its rings overwrite instead of dropping.
  static std::size_t max_events() {
    return max_events_.load(std::memory_order_relaxed);
  }
  static void set_max_events(std::size_t cap) {
    max_events_.store(cap, std::memory_order_relaxed);
  }

  /// Append one decision remark (no-op when the channel is disabled).
  void remark(std::string category, std::string message,
              std::vector<TraceAttr> attrs = {});

  /// Snapshots (copies) for tests and the bench summary.
  std::vector<SpanInfo> spans() const;
  std::vector<Remark> remarks() const;
  std::size_t num_spans() const;
  std::size_t num_remarks() const;

  /// Chrome trace-event JSON: spans as "X" complete events, remarks as
  /// "i" instant events. Load in chrome://tracing or Perfetto.
  std::string chrome_trace_json() const;
  /// Human-readable remark log, one line per remark, in emission order.
  std::string remarks_text() const;
  /// {"remarks": [{"seq":..,"category":..,"message":..,"attrs":{..}}]}.
  std::string remarks_json() const;

  /// Drop every recorded span and remark (enabled flags are unchanged).
  void reset();

 private:
  friend class TraceSpan;
  friend class PhaseTimer;

  double now_us() const;
  void record_span(SpanInfo info);  // called by ~TraceSpan

  static std::atomic<bool> spans_enabled_;
  static std::atomic<bool> remarks_enabled_;
  static std::atomic<std::size_t> max_events_;

  mutable std::mutex mu_;
  std::vector<SpanInfo> spans_;
  std::vector<Remark> remarks_;
};

/// RAII span. Constructing with tracing disabled is a no-op (`active()`
/// is false and attr() calls are dropped). Category and name should be
/// static strings; put dynamic data in attributes.
class TraceSpan {
 public:
  TraceSpan(const char* category, const char* name);
  TraceSpan(const char* category, std::string name);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool active() const { return active_; }
  void attr(const char* key, i64 value);
  void attr(const char* key, std::string value);

 private:
  bool active_ = false;
  SpanInfo info_;
};

/// RAII phase timer: accumulates elapsed wall time into the named phase
/// of the current metrics registry. When span tracing is enabled, the
/// phase is also recorded as a top-level trace span; the flight recorder
/// always logs the phase boundaries.
class PhaseTimer {
 public:
  explicit PhaseTimer(std::string phase);
  ~PhaseTimer();
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  std::string phase_;
  double start_us_;
  std::optional<TraceSpan> span_;
};

/// Shorthand: emit a remark iff the channel is enabled. Callers building
/// expensive attribute strings should still gate on
/// `Tracer::remarks_on()` themselves.
inline void remark(std::string category, std::string message,
                   std::vector<TraceAttr> attrs = {}) {
  if (Tracer::remarks_on())
    Tracer::instance().remark(std::move(category), std::move(message),
                              std::move(attrs));
}

/// Escape a string for inclusion in a JSON string literal (used by the
/// exporters; exposed for tests).
std::string json_escape(const std::string& s);

}  // namespace pf::support
