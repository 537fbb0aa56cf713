// Always-on flight recorder: a fixed-memory, lock-free log of what the
// pipeline was recently doing, dumped as a self-contained diagnostic
// when a run dies.
//
// Every live thread that records owns a ring of the last kRingEvents
// events: span opens and closes (a phase is a span of category "phase"),
// decision remarks, budget faults and injected faults. An exiting thread
// returns its ring to a lock-free free list and a later thread takes it
// over, so the number of rings follows the peak number of threads
// recording at once, not the number of threads a process ever started.
// Events arrive through support::record_event (support/trace.h), the one
// event path, which stamps them with this recorder's clock and thread
// index; the request tracer uses the same two. Recording is wait-free --
// a global sequence fetch_add, a bounded byte copy into the thread's own
// slot, no locks, no allocation after ring creation -- so it is always
// on; there is no switch. Its cost is measured, not gated:
// docs/observability.md keeps a dated perfbench A/B against a build
// with recording switched off.
//
// Dumping is async-signal-safe: install_crash_handler() hooks the fatal
// signals (SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL) with a handler that
// writes `polyfuse-diag.<pid>.json` -- ring contents, a metrics
// snapshot (relaxed atomic reads of the dumping thread's request
// registry), and build/invocation info -- using only write(2)/open(2)
// and hand-rolled formatting, then re-raises the signal. The same writer
// serves the non-signal dump paths: --diagnose=FILE on exit,
// BudgetExceeded escaping the pipeline, and strict --verify/--lint
// failures.
//
// Reader caveat: the signal handler snapshots rings other threads are
// still writing; an event may be torn (mixed fields). Events carry a
// global sequence number so a torn or stale entry is detectable, and
// the dump is ordered best-effort, not transactional.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "support/intmath.h"

namespace pf::support {

namespace flightrec {

enum class EventKind : unsigned char {
  kSpanOpen = 0,  // a TraceSpan or PhaseTimer opened (a = nesting depth)
  kSpanClose,     // it closed (a = nesting depth; pairs with its open)
  kRemark,        // a decision remark was emitted
  kFault,         // a budget fault was raised (name = cause, a = ordinal)
  kMark,          // anything else worth a breadcrumb
};

const char* to_string(EventKind kind);

constexpr std::size_t kEventCategoryBytes = 24;  // incl. NUL
constexpr std::size_t kEventNameBytes = 64;      // incl. NUL
constexpr std::size_t kRingEvents = 256;         // per recording thread

struct Event {
  std::uint64_t seq = 0;  // global record order (1-based; 0 = never written)
  i64 t_us = 0;           // microseconds since the recorder's epoch
  int tid = 0;            // small per-process recording-thread index
  EventKind kind = EventKind::kMark;
  char category[kEventCategoryBytes] = {};
  char name[kEventNameBytes] = {};
  i64 a = 0;
};

/// The one clock: microseconds since the recorder's epoch.
double now_us();

/// The one thread index: small, per process (0 = first thread to
/// record), stable for the thread's lifetime. It names the thread's ring
/// slot, so a thread started after another exited may get its index.
int thread_index();

/// Append one stamped event to the calling thread's ring. Strings are
/// copied (truncated) into the fixed-size event; never throws. Only
/// support::record_event calls this.
void append(EventKind kind, const char* category, const char* name, i64 a,
            double t_us, int tid) noexcept;

/// Total events ever recorded (each ring keeps only its last
/// kRingEvents).
std::uint64_t events_recorded();

/// Number of ring slots handed out: the peak number of threads that held
/// one at the same time.
int recording_threads();

/// All currently-retained events, oldest first by global sequence (for
/// tests and the bench harness; takes no locks, same caveats as dumps).
std::vector<Event> snapshot();

/// Remember the (pre-escaped) command line for dump headers.
void set_invocation(int argc, char** argv);

/// Hook SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL: dump to
/// `polyfuse-diag.<pid>.json` (under POLYFUSE_DIAG_DIR if set, else the
/// working directory), then re-raise. Idempotent.
void install_crash_handler();

/// The path crash dumps go to (fixed at install_crash_handler() time).
std::string default_diag_path();

/// Re-point crash dumps at `path` (truncated to the internal buffer if
/// over-long). Forked batch workers call this right after fork(): the
/// child inherits the parent's handler and path, and without its own
/// deterministic per-request path every worker's dying dump would race
/// for one file named after the parent pid.
void set_diag_path(const std::string& path);

/// Async-signal-safe: write the full diagnostic JSON to an open fd. The
/// metrics snapshot is the calling thread's request registry
/// (current_context().metrics), else the global registry.
/// `cause` must be a NUL-terminated string with no characters needing
/// JSON escaping. Returns false on a write error.
bool dump(int fd, const char* cause) noexcept;

/// Convenience for the non-signal paths (--diagnose, budget/strict-
/// failure dumps): open `path`, dump, close. Returns false on failure.
bool write_diag_file(const std::string& path, const char* cause);

/// Drop every ring and zero the recorded-event count (tests only; not
/// thread-safe against concurrent recording).
void reset_for_test();

}  // namespace flightrec
}  // namespace pf::support
