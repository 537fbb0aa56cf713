#include "support/trace.h"

#include <cstdio>
#include <cstring>
#include <sstream>

#include "support/context.h"
#include "support/metrics.h"

namespace pf::support {

namespace {

// Per-thread open-span nesting depth.
thread_local int tls_depth = 0;

Tracer* current_tracer() { return current_context().tracer; }

}  // namespace

bool Tracer::spans_on() {
  const Tracer* t = current_tracer();
  return t != nullptr && t->spans_;
}

bool Tracer::remarks_on() {
  const Tracer* t = current_tracer();
  return t != nullptr && t->remarks_;
}

void Tracer::append(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= max_events_) {
    count(Counter::kTraceEventsDropped);
    return;
  }
  if (event.kind == flightrec::EventKind::kRemark) event.seq = num_remarks_++;
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> Tracer::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

TracerScope::TracerScope(Tracer* tracer)
    : previous_(std::exchange(current_context().tracer, tracer)) {}

TracerScope::~TracerScope() { current_context().tracer = previous_; }

double record_event(flightrec::EventKind kind, const char* category,
                    const char* name, i64 a, TraceEvent* traced) {
  using flightrec::EventKind;
  const double now_us = flightrec::now_us();
  const int tid = flightrec::thread_index();
  flightrec::append(kind, category, name, a, now_us, tid);
  Tracer* tracer = current_tracer();
  if (tracer == nullptr) return now_us;
  TraceEvent instant;
  switch (kind) {
    case EventKind::kSpanOpen:
      if (traced != nullptr) {
        traced->tid = tid;
        traced->ts_us = now_us;
      }
      return now_us;
    case EventKind::kSpanClose:
      if (traced == nullptr) return now_us;
      traced->dur_us = now_us - traced->ts_us;
      break;
    case EventKind::kRemark:
      if (traced == nullptr) return now_us;
      traced->tid = tid;
      traced->ts_us = now_us;
      break;
    case EventKind::kFault:
    case EventKind::kMark:
      if (!tracer->spans_enabled()) return now_us;
      instant = TraceEvent{kind, category, name,
                           {{"ordinal", std::to_string(a)}}, tid, 0, now_us};
      traced = &instant;
      break;
  }
  tracer->append(std::move(*traced));
  return now_us;
}

void remark(std::string category, std::string message,
            std::vector<TraceAttr> attrs) {
  if (!Tracer::remarks_on()) return;
  TraceEvent e{flightrec::EventKind::kRemark, std::move(category),
               std::move(message), std::move(attrs)};
  record_event(e.kind, e.category.c_str(), e.name.c_str(), 0, &e);
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
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& e = events_[i];
    os << (i == 0 ? "\n" : ",\n");
    if (e.kind == flightrec::EventKind::kSpanClose)
      os << "{\"ph\": \"X\", \"pid\": 1, \"tid\": " << e.tid << ", \"name\": \""
         << json_escape(e.name) << "\", \"cat\": \"" << json_escape(e.category)
         << "\", \"ts\": " << e.ts_us << ", \"dur\": " << e.dur_us;
    else
      os << "{\"ph\": \"i\", \"s\": \"g\", \"pid\": 1, \"tid\": " << e.tid
         << ", \"name\": \"" << json_escape(e.category) << ": "
         << json_escape(e.name) << "\", \"cat\": \"" << json_escape(e.category)
         << "\", \"ts\": " << e.ts_us;
    os << ", \"args\": ";
    emit_args(os, e.attrs);
    os << "}";
  }
  os << "\n]}\n";
  return os.str();
}

std::string Tracer::remarks_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  for (const TraceEvent& r : events_) {
    if (r.kind != flightrec::EventKind::kRemark) continue;
    os << "[" << r.category << "] " << r.name;
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
  for (const TraceEvent& r : events_) {
    if (r.kind != flightrec::EventKind::kRemark) continue;
    if (r.seq != 0) os << ",";
    os << "\n{\"seq\": " << r.seq << ", \"category\": \""
       << json_escape(r.category) << "\", \"message\": \""
       << json_escape(r.name) << "\", \"attrs\": ";
    emit_args(os, r.attrs);
    os << "}";
  }
  os << "\n]}\n";
  return os.str();
}

TraceSpan::TraceSpan(const char* category, const char* name)
    : category_(category), name_(name), depth_(tls_depth++) {
  active_ = Tracer::spans_on();
  if (active_) {
    event_.kind = flightrec::EventKind::kSpanClose;
    event_.category = category_;
    event_.name = name_;
    event_.depth = depth_;
  }
  start_us_ = record_event(flightrec::EventKind::kSpanOpen, category_, name_,
                           depth_, active_ ? &event_ : nullptr);
}

TraceSpan::TraceSpan(const char* category, std::string name)
    : TraceSpan(category, name.c_str()) {
  // The delegated constructor saw a pointer into the argument; keep the
  // name alive for the close record.
  owned_name_ = std::move(name);
  name_ = owned_name_.c_str();
}

TraceSpan::~TraceSpan() {
  --tls_depth;
  const double end_us =
      record_event(flightrec::EventKind::kSpanClose, category_, name_, depth_,
                   active_ ? &event_ : nullptr);
  if (std::strcmp(category_, "phase") == 0)
    current_metrics().add_phase_seconds(name_, (end_us - start_us_) / 1e6);
}

void TraceSpan::attr(const char* key, i64 value) {
  if (!active_) return;
  event_.attrs.emplace_back(key, std::to_string(value));
}

void TraceSpan::attr(const char* key, std::string value) {
  if (!active_) return;
  event_.attrs.emplace_back(key, std::move(value));
}

}  // namespace pf::support
