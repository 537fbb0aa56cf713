#include "support/trace.h"

#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>

#include "support/flightrec.h"
#include "support/metrics.h"

namespace pf::support {

std::atomic<bool> Tracer::spans_enabled_{false};
std::atomic<bool> Tracer::remarks_enabled_{false};
// 1M events/channel ~ a few hundred MB worst case; far above any one
// compile, low enough that a leaky resident service degrades to dropped
// spans (counted) instead of OOM.
std::atomic<std::size_t> Tracer::max_events_{1u << 20};

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point tracer_epoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

// Small sequential per-process thread index (0 = first thread to trace);
// stable for the thread's lifetime, cheap to read after first use.
int this_thread_index() {
  static std::atomic<int> next{0};
  thread_local const int tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

// Per-thread open-span nesting depth.
thread_local int tls_depth = 0;

}  // namespace

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() -
                                                   tracer_epoch())
      .count();
}

void Tracer::remark(std::string category, std::string message,
                    std::vector<TraceAttr> attrs) {
  if (!remarks_on()) return;
  flightrec::record(flightrec::EventKind::kRemark, category.c_str(),
                    message.c_str());
  Remark r;
  r.category = std::move(category);
  r.message = std::move(message);
  r.attrs = std::move(attrs);
  r.ts_us = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  if (remarks_.size() >= max_events()) {
    count(Counter::kTraceEventsDropped);
    return;
  }
  r.seq = remarks_.size();
  remarks_.push_back(std::move(r));
}

void Tracer::record_span(SpanInfo info) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= max_events()) {
    count(Counter::kTraceEventsDropped);
    return;
  }
  spans_.push_back(std::move(info));
}

std::vector<SpanInfo> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<Remark> Tracer::remarks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return remarks_;
}

std::size_t Tracer::num_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::size_t Tracer::num_remarks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return remarks_.size();
}

void Tracer::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  remarks_.clear();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void emit_args(std::ostringstream& os, const std::vector<TraceAttr>& attrs) {
  os << "{";
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    if (i != 0) os << ", ";
    os << "\"" << json_escape(attrs[i].first) << "\": \""
       << json_escape(attrs[i].second) << "\"";
  }
  os << "}";
}

}  // namespace

std::string Tracer::chrome_trace_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const SpanInfo& s : spans_) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid << ", \"name\": \""
       << json_escape(s.name) << "\", \"cat\": \"" << json_escape(s.category)
       << "\", \"ts\": " << s.start_us << ", \"dur\": " << s.dur_us
       << ", \"args\": ";
    emit_args(os, s.attrs);
    os << "}";
  }
  for (const Remark& r : remarks_) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"ph\": \"i\", \"s\": \"g\", \"pid\": 1, \"tid\": 0, \"name\": \""
       << json_escape(r.category) << ": " << json_escape(r.message)
       << "\", \"cat\": \"" << json_escape(r.category)
       << "\", \"ts\": " << r.ts_us << ", \"args\": ";
    emit_args(os, r.attrs);
    os << "}";
  }
  os << "\n]}\n";
  return os.str();
}

std::string Tracer::remarks_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  for (const Remark& r : remarks_) {
    os << "[" << r.category << "] " << r.message;
    if (!r.attrs.empty()) {
      os << " (";
      for (std::size_t i = 0; i < r.attrs.size(); ++i) {
        if (i != 0) os << ", ";
        os << r.attrs[i].first << "=" << r.attrs[i].second;
      }
      os << ")";
    }
    os << "\n";
  }
  return os.str();
}

std::string Tracer::remarks_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\"remarks\": [";
  for (std::size_t i = 0; i < remarks_.size(); ++i) {
    const Remark& r = remarks_[i];
    if (i != 0) os << ",";
    os << "\n{\"seq\": " << r.seq << ", \"category\": \""
       << json_escape(r.category) << "\", \"message\": \""
       << json_escape(r.message) << "\", \"attrs\": ";
    std::ostringstream tmp;
    emit_args(tmp, r.attrs);
    os << tmp.str() << "}";
  }
  os << "\n]}\n";
  return os.str();
}

TraceSpan::TraceSpan(const char* category, const char* name) {
  // The flight recorder logs every span open, traced or not: a crash
  // dump must say what the pipeline was doing without --trace on. Span
  // bodies are bounded copies into a per-thread ring; when the span is
  // inactive no strings are retained here, so only the open is logged.
  flightrec::record(flightrec::EventKind::kSpan, category, name, tls_depth);
  if (!Tracer::spans_on()) return;
  active_ = true;
  info_.category = category;
  info_.name = name;
  info_.tid = this_thread_index();
  info_.depth = tls_depth++;
  info_.start_us = Tracer::instance().now_us();
}

TraceSpan::TraceSpan(const char* category, std::string name) {
  flightrec::record(flightrec::EventKind::kSpan, category, name.c_str(),
                    tls_depth);
  if (!Tracer::spans_on()) return;
  active_ = true;
  info_.category = category;
  info_.name = std::move(name);
  info_.tid = this_thread_index();
  info_.depth = tls_depth++;
  info_.start_us = Tracer::instance().now_us();
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  --tls_depth;
  Tracer& t = Tracer::instance();
  info_.dur_us = t.now_us() - info_.start_us;
  t.record_span(std::move(info_));
}

PhaseTimer::PhaseTimer(std::string phase)
    : phase_(std::move(phase)), start_us_(Tracer::instance().now_us()) {
  flightrec::record(flightrec::EventKind::kPhaseBegin, "phase",
                    phase_.c_str());
  // Phases double as top-level trace spans, so a --trace run shows the
  // driver's parse/deps/schedule/codegen regions without extra plumbing.
  if (Tracer::spans_on()) span_.emplace("phase", phase_);
}

PhaseTimer::~PhaseTimer() {
  const double elapsed_us = Tracer::instance().now_us() - start_us_;
  flightrec::record(flightrec::EventKind::kPhaseEnd, "phase", phase_.c_str(),
                    static_cast<i64>(elapsed_us));
  current_metrics().add_phase_seconds(phase_, elapsed_us / 1e6);
}

void TraceSpan::attr(const char* key, i64 value) {
  if (!active_) return;
  info_.attrs.emplace_back(key, std::to_string(value));
}

void TraceSpan::attr(const char* key, std::string value) {
  if (!active_) return;
  info_.attrs.emplace_back(key, std::move(value));
}

}  // namespace pf::support
