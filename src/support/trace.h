// Structured tracing for the compile pipeline: spans, decision remarks,
// phases and faults, recorded through one event path.
//
// Every event -- a span opening or closing, a decision remark, a phase
// boundary (a phase is a span of category "phase"), a budget fault -- is
// one call to record_event(). It reads one clock and one thread index
// (the flight recorder's, support/flightrec.h), always appends a
// fixed-size copy to the calling thread's flight-recorder ring, and
// appends the full event to the current request's Tracer when one is
// installed.
//
// The Tracer is request state: a field of support::Context
// (support/context.h), installed by a TracerScope and carried to pool
// workers by ThreadPool::submit, so a dependence worker's spans land in
// its own request's tracer. Its two channels are fixed when it is built:
//
//  * Spans -- RAII timed regions (TraceSpan) with a category, a name,
//    key=value attributes, the recording thread and a nesting depth,
//    exported as Chrome trace-event JSON ("X" complete events; faults
//    and marks as instant events), loadable in chrome://tracing or
//    https://ui.perfetto.dev.
//
//  * Decision remarks -- ordered, structured records of *why* the
//    pipeline did what it did: one per fusion candidate (cost-model
//    verdict), per hyperplane found or scalar cut (Farkas objective,
//    parallelism outcome), per Algorithm-2 distribution. Remarks are
//    only emitted from deterministic (serial) pipeline code and carry no
//    wall-clock data in their text form, so `polyfuse --explain` output
//    is byte-identical at every --jobs count.
//
// Without a tracer, or with the channel off, a gated call site costs one
// thread-local read. `polyfuse --trace=FILE` gives the request a tracer
// with both channels on; `--explain` one with remarks only.
#pragma once

#include <cstddef>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "support/flightrec.h"
#include "support/intmath.h"

namespace pf::support {

/// One key=value attribute; values are pre-rendered to strings.
using TraceAttr = std::pair<std::string, std::string>;

/// One event as a tracer keeps it: a closed span (kind kSpanClose), a
/// remark (kRemark) or a fault/mark instant.
struct TraceEvent {
  flightrec::EventKind kind = flightrec::EventKind::kMark;
  std::string category;  // "deps" | "sched" | "fusion" | "phase" | ...
  std::string name;      // span name, or the remark's message
  std::vector<TraceAttr> attrs;
  int tid = 0;         // flightrec::thread_index() of the recording thread
  int depth = 0;       // spans: nesting depth on its thread at open time
  double ts_us = 0;    // span open or event time, on flightrec::now_us();
                       // never part of the --explain text
  double dur_us = 0;   // spans only
  std::size_t seq = 0;  // remarks only: emission order in this tracer
};

class Tracer {
 public:
  /// 1M events ~ a few hundred MB worst case; far above any one compile,
  /// low enough that a leaky resident service degrades to dropped events
  /// (counted) instead of OOM.
  static constexpr std::size_t kDefaultMaxEvents = std::size_t{1} << 20;

  /// Channels and the in-memory cap are fixed for the tracer's lifetime.
  /// Once it holds `max_events` events, further events are dropped and
  /// counted in trace_events_dropped; the flight recorder still sees
  /// every event, its rings overwrite instead of dropping. Requests use
  /// the default; a smaller cap is for tests.
  Tracer(bool spans, bool remarks, std::size_t max_events = kDefaultMaxEvents)
      : spans_(spans), remarks_(remarks), max_events_(max_events) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Gates for call sites that build strings: whether the calling
  /// thread's context has a tracer with that channel on.
  static bool spans_on();
  static bool remarks_on();

  bool spans_enabled() const { return spans_; }

  /// Keep one event (record_event's tracer half).
  void append(TraceEvent event);

  /// Snapshot (copy) of every kept event, in append order.
  std::vector<TraceEvent> events() const;

  /// Chrome trace-event JSON: spans as "X" complete events, remarks,
  /// faults and marks as "i" instant events.
  std::string chrome_trace_json() const;
  /// Human-readable remark log, one line per remark, in emission order.
  std::string remarks_text() const;
  /// {"remarks": [{"seq":..,"category":..,"message":..,"attrs":{..}}]}.
  std::string remarks_json() const;

 private:
  const bool spans_;
  const bool remarks_;
  const std::size_t max_events_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::size_t num_remarks_ = 0;
};

/// RAII request scope: the calling thread records into `tracer` (nullptr:
/// no tracer) until the scope closes, then into the previous one.
class TracerScope {
 public:
  explicit TracerScope(Tracer* tracer);
  ~TracerScope();
  TracerScope(const TracerScope&) = delete;
  TracerScope& operator=(const TracerScope&) = delete;

 private:
  Tracer* previous_;
};

/// The one event path. Stamps the event with flightrec::now_us() and
/// flightrec::thread_index(), appends it to the calling thread's
/// flight-recorder ring, and hands it to the current request's tracer
/// when one is installed:
///  * kSpanOpen fills `traced`'s thread and start time (kept at close);
///  * kSpanClose fills its duration and appends it;
///  * kRemark stamps and appends it;
///  * kFault / kMark (no `traced`; `a` = operation ordinal) are appended
///    as instants when the tracer's span channel is on.
/// `traced` is moved from when appended. Returns the stamp.
double record_event(flightrec::EventKind kind, const char* category,
                    const char* name, i64 a = 0, TraceEvent* traced = nullptr);

/// RAII span. Every span reaches the flight recorder; it is active (kept
/// by the tracer, attributes recorded) only when the current tracer has
/// spans on. Category and name should be static strings; put dynamic
/// data in attributes. A span of category "phase" also adds its wall
/// time to the current metrics registry's phase timings when it closes.
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
  const char* category_;
  std::string owned_name_;  // the std::string constructor's name
  const char* name_;        // the literal, or owned_name_'s buffer
  int depth_;
  bool active_ = false;
  double start_us_ = 0;
  TraceEvent event_;  // the tracer's copy; filled only when active
};

/// A pipeline phase: a span of category "phase", so its wall time lands
/// in the current registry's phase timings (`--stats`) and, under
/// --trace, the driver's parse/deps/schedule/codegen regions show up as
/// top-level spans.
class PhaseTimer : public TraceSpan {
 public:
  explicit PhaseTimer(std::string phase)
      : TraceSpan("phase", std::move(phase)) {}
};

/// Emit a decision remark iff the current tracer has remarks on. Callers
/// building expensive attribute strings should still gate on
/// `Tracer::remarks_on()` themselves.
void remark(std::string category, std::string message,
            std::vector<TraceAttr> attrs = {});

/// Escape a string for inclusion in a JSON string literal (used by the
/// exporters; exposed for tests).
std::string json_escape(const std::string& s);

}  // namespace pf::support
