#include "support/flightrec.h"

#include <fcntl.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <new>

#include "support/context.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace pf::support::flightrec {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point recorder_epoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

// One ring per slot. A slot belongs to one live thread at a time: a
// thread takes one with its thread_index(), and its exit returns it to a
// lock-free free list, from which a later thread takes it over and
// overwrites its ring. So a long-lived process that starts a thread pool
// per compile keeps recording. Rings are heap-allocated once per slot,
// registered in a fixed global table and never freed: a crashing thread
// must be able to walk every ring without coordinating with their
// owners. The owner is the only writer; head is published after the
// event body so readers see mostly-complete entries (best effort -- see
// the header caveat).
struct Ring {
  std::atomic<std::uint64_t> head{0};  // events ever written to this ring
  Event events[kRingEvents];
};

constexpr std::size_t kMaxRings = 256;

// Ring slot i belongs to the thread with thread_index() i.
std::atomic<Ring*> g_rings[kMaxRings];
std::atomic<int> g_num_threads{0};  // slots ever handed out
std::atomic<std::uint64_t> g_seq{0};
std::atomic<bool> g_dumping{false};
std::atomic<bool> g_dump_done{false};
std::atomic<long> g_dumper_tid{0};  // kernel tid of the thread dumping

// The free slots, a Treiber stack over slot indices. g_free_head packs
// the top slot + 1 (0 = empty) into its low 32 bits and a version into
// its high 32 bits; every push and pop bumps the version, so a pop that
// raced with a pop-then-push of the same top slot fails its CAS (no ABA).
// g_free_next[i] is the slot + 1 below free slot i.
std::atomic<std::uint64_t> g_free_head{0};
std::atomic<std::uint64_t> g_free_next[kMaxRings];
constexpr std::uint64_t kSlotMask = 0xffffffffu;

std::uint64_t next_version(std::uint64_t head) {
  return ((head >> 32) + 1) << 32;
}

int acquire_slot() {
  std::uint64_t head = g_free_head.load(std::memory_order_acquire);
  while ((head & kSlotMask) != 0) {
    const std::uint64_t slot = (head & kSlotMask) - 1;
    const std::uint64_t below =
        g_free_next[slot].load(std::memory_order_relaxed);
    if (g_free_head.compare_exchange_weak(head, next_version(head) | below,
                                          std::memory_order_acquire,
                                          std::memory_order_acquire))
      return static_cast<int>(slot);
  }
  return g_num_threads.fetch_add(1, std::memory_order_relaxed);
}

void release_slot(int slot) {
  // Slots past the table never had a ring; they are not recycled.
  if (slot >= static_cast<int>(kMaxRings)) return;
  std::uint64_t head = g_free_head.load(std::memory_order_relaxed);
  do {
    g_free_next[slot].store(head & kSlotMask, std::memory_order_relaxed);
  } while (!g_free_head.compare_exchange_weak(
      head, next_version(head) | (static_cast<std::uint64_t>(slot) + 1),
      std::memory_order_release, std::memory_order_relaxed));
}

// The calling thread's slot (-1 until its first thread_index()), and
// whether the thread has already handed it back at exit. Both are
// trivially destructible, so they stay readable while other
// thread-local destructors run after the slot's lease.
thread_local int tl_slot = -1;
thread_local bool tl_slot_returned = false;

// Returns the thread's slot to the free list when the thread exits.
struct SlotLease {
  SlotLease() = default;
  SlotLease(const SlotLease&) = delete;
  SlotLease& operator=(const SlotLease&) = delete;
  ~SlotLease() {
    tl_slot_returned = true;
    release_slot(tl_slot);
  }
};

// Set once at install/startup time (before any crash can use them).
char g_diag_path[512] = {};
std::string g_invocation_escaped;  // pre-escaped; bytes written verbatim

// The ring of `slot`, allocated on its first event. Only the slot's
// current owner calls this, so there is no allocation race.
Ring* slot_ring(int slot) {
  if (slot >= static_cast<int>(kMaxRings)) return nullptr;
  Ring* r = g_rings[slot].load(std::memory_order_acquire);
  if (r != nullptr) return r;
  r = new (std::nothrow) Ring;  // append() is noexcept
  if (r != nullptr) g_rings[slot].store(r, std::memory_order_release);
  return r;
}

int num_ring_slots() {
  return std::min<int>(g_num_threads.load(std::memory_order_acquire),
                       static_cast<int>(kMaxRings));
}

void copy_bounded(char* dst, std::size_t cap, const char* src) {
  if (src == nullptr) {
    dst[0] = '\0';
    return;
  }
  std::size_t i = 0;
  for (; i + 1 < cap && src[i] != '\0'; ++i) dst[i] = src[i];
  dst[i] = '\0';
}

// ---------------------------------------------------------------------------
// Async-signal-safe JSON writer: an fd, a small flush buffer, and
// hand-rolled integer/string formatting. No allocation, no locale, no
// stdio.
// ---------------------------------------------------------------------------

class SigsafeWriter {
 public:
  explicit SigsafeWriter(int fd) : fd_(fd) {}
  ~SigsafeWriter() { flush(); }

  void raw(const char* s) {
    while (*s != '\0') put(*s++);
  }

  void raw_n(const char* s, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) put(s[i]);
  }

  void integer(i64 v) {
    char buf[24];
    std::size_t n = 0;
    std::uint64_t u;
    if (v < 0) {
      put('-');
      u = ~static_cast<std::uint64_t>(v) + 1;  // safe for INT64_MIN
    } else {
      u = static_cast<std::uint64_t>(v);
    }
    do {
      buf[n++] = static_cast<char>('0' + u % 10);
      u /= 10;
    } while (u != 0);
    while (n > 0) put(buf[--n]);
  }

  void uinteger(std::uint64_t u) {
    char buf[24];
    std::size_t n = 0;
    do {
      buf[n++] = static_cast<char>('0' + u % 10);
      u /= 10;
    } while (u != 0);
    while (n > 0) put(buf[--n]);
  }

  /// "..." with JSON escaping of the NUL-terminated payload.
  void string(const char* s) {
    put('"');
    for (; *s != '\0'; ++s) {
      const unsigned char c = static_cast<unsigned char>(*s);
      switch (c) {
        case '"':
          raw("\\\"");
          break;
        case '\\':
          raw("\\\\");
          break;
        case '\n':
          raw("\\n");
          break;
        case '\t':
          raw("\\t");
          break;
        case '\r':
          raw("\\r");
          break;
        default:
          if (c < 0x20) {
            raw("\\u00");
            const char* hex = "0123456789abcdef";
            put(hex[c >> 4]);
            put(hex[c & 0xf]);
          } else {
            put(static_cast<char>(c));
          }
      }
    }
    put('"');
  }

  bool ok() const { return ok_; }

  void flush() {
    std::size_t off = 0;
    while (off < len_) {
      const ssize_t n = ::write(fd_, buf_ + off, len_ - off);
      if (n < 0) {
        ok_ = false;
        break;
      }
      off += static_cast<std::size_t>(n);
    }
    len_ = 0;
  }

 private:
  void put(char c) {
    if (len_ == sizeof buf_) flush();
    buf_[len_++] = c;
  }

  int fd_;
  char buf_[4096];
  std::size_t len_ = 0;
  bool ok_ = true;
};

void dump_metrics(SigsafeWriter& w, const MetricsRegistry& reg) {
  w.raw("\"metrics\": {\"counters\": {");
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const Counter c = static_cast<Counter>(i);
    if (i != 0) w.raw(", ");
    w.string(to_string(c));
    w.raw(": ");
    w.integer(reg.get(c));
  }
  w.raw("}, \"gauges\": {");
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    const Gauge g = static_cast<Gauge>(i);
    if (i != 0) w.raw(", ");
    w.string(to_string(g));
    w.raw(": ");
    w.integer(reg.gauge(g));
  }
  w.raw("}, \"histograms\": {");
  for (std::size_t i = 0; i < kNumHists; ++i) {
    const Hist h = static_cast<Hist>(i);
    if (i != 0) w.raw(", ");
    w.string(to_string(h));
    w.raw(": {\"count\": ");
    w.integer(reg.hist_count(h));
    w.raw(", \"sum\": ");
    w.integer(reg.hist_sum(h));
    w.raw(", \"min\": ");
    w.integer(reg.hist_min(h));
    w.raw(", \"max\": ");
    w.integer(reg.hist_max(h));
    w.raw(", \"buckets\": [");
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      if (b != 0) w.raw(", ");
      w.integer(reg.hist_bucket(h, b));
    }
    w.raw("]}");
  }
  // phase_seconds is intentionally absent: phase timings sit behind a
  // mutex, and a signal handler must not take locks.
  w.raw("}}");
}

void dump_event(SigsafeWriter& w, const Event& e) {
  w.raw("{\"seq\": ");
  w.uinteger(e.seq);
  w.raw(", \"t_us\": ");
  w.integer(e.t_us);
  w.raw(", \"tid\": ");
  w.integer(e.tid);
  w.raw(", \"kind\": ");
  w.string(to_string(e.kind));
  w.raw(", \"category\": ");
  w.string(e.category);
  w.raw(", \"name\": ");
  w.string(e.name);
  w.raw(", \"a\": ");
  w.integer(e.a);
  w.raw("}");
}

const char* signal_name(int sig) {
  switch (sig) {
    case SIGSEGV:
      return "signal:SIGSEGV";
    case SIGABRT:
      return "signal:SIGABRT";
    case SIGBUS:
      return "signal:SIGBUS";
    case SIGFPE:
      return "signal:SIGFPE";
    case SIGILL:
      return "signal:SIGILL";
    default:
      return "signal:unknown";
  }
}

void crash_handler(int sig) {
  // One dump per process. The first thread to fail writes it; threads
  // failing concurrently wait for it to close the file, since re-raising
  // now would kill the process mid-write. A fatal signal inside the
  // dumping thread itself falls straight through to the re-raise. Only
  // async-signal-safe calls: atomics, syscall, nanosleep.
  const long self = ::syscall(SYS_gettid);
  if (!g_dumping.exchange(true, std::memory_order_acq_rel)) {
    g_dumper_tid.store(self, std::memory_order_release);
    const int fd = g_diag_path[0] != '\0'
                       ? ::open(g_diag_path, O_WRONLY | O_CREAT | O_TRUNC, 0644)
                       : -1;
    if (fd >= 0) {
      dump(fd, signal_name(sig));
      ::close(fd);
      const char* pre = "polyfuse: fatal signal; diagnostics written to ";
      (void)!::write(2, pre, std::strlen(pre));
      (void)!::write(2, g_diag_path, std::strlen(g_diag_path));
      (void)!::write(2, "\n", 1);
    }
    g_dump_done.store(true, std::memory_order_release);
  } else if (g_dumper_tid.load(std::memory_order_acquire) != self) {
    const timespec tick{0, 1000000};  // 1 ms; give up after 10 s
    for (int i = 0; i < 10000 && !g_dump_done.load(std::memory_order_acquire);
         ++i)
      ::nanosleep(&tick, nullptr);
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kSpanOpen:
      return "span-open";
    case EventKind::kSpanClose:
      return "span-close";
    case EventKind::kRemark:
      return "remark";
    case EventKind::kFault:
      return "fault";
    case EventKind::kMark:
      return "mark";
  }
  return "?";
}

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() -
                                                   recorder_epoch())
      .count();
}

int thread_index() {
  if (tl_slot < 0) {
    tl_slot = acquire_slot();
    thread_local SlotLease lease;  // constructed once, destroyed at exit
  }
  return tl_slot;
}

void append(EventKind kind, const char* category, const char* name, i64 a,
            double t_us, int tid) noexcept {
  // After the thread returned its slot, the ring may be another's.
  if (tl_slot_returned) return;
  Ring* ring = slot_ring(tid);
  if (ring == nullptr) return;  // beyond kMaxRings live threads
  const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
  Event& e = ring->events[head % kRingEvents];
  e.seq = g_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  e.t_us = static_cast<i64>(t_us);
  e.tid = tid;
  e.kind = kind;
  copy_bounded(e.category, kEventCategoryBytes, category);
  copy_bounded(e.name, kEventNameBytes, name);
  e.a = a;
  ring->head.store(head + 1, std::memory_order_release);
}

std::uint64_t events_recorded() {
  return g_seq.load(std::memory_order_relaxed);
}

int recording_threads() { return num_ring_slots(); }

std::vector<Event> snapshot() {
  std::vector<Event> out;
  const int nrings = num_ring_slots();
  for (int i = 0; i < nrings; ++i) {
    const Ring* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t lo = head > kRingEvents ? head - kRingEvents : 0;
    for (std::uint64_t k = lo; k < head; ++k)
      out.push_back(ring->events[k % kRingEvents]);
  }
  std::sort(out.begin(), out.end(),
            [](const Event& x, const Event& y) { return x.seq < y.seq; });
  return out;
}

void set_invocation(int argc, char** argv) {
  std::string joined;
  for (int i = 0; i < argc; ++i) {
    if (i != 0) joined += ' ';
    joined += argv[i];
  }
  g_invocation_escaped = json_escape(joined);
}

void install_crash_handler() {
  static bool installed = [] {
    // The dump path is fixed now, with malloc/getenv still legal.
    const char* dir = std::getenv("POLYFUSE_DIAG_DIR");
    std::string path;
    if (dir != nullptr && *dir != '\0') {
      path = dir;
      if (path.back() != '/') path += '/';
    }
    path += "polyfuse-diag." + std::to_string(::getpid()) + ".json";
    copy_bounded(g_diag_path, sizeof g_diag_path, path.c_str());

    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = crash_handler;
    sigemptyset(&sa.sa_mask);
    for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL})
      sigaction(sig, &sa, nullptr);
    return true;
  }();
  (void)installed;
}

std::string default_diag_path() { return g_diag_path; }

void set_diag_path(const std::string& path) {
  copy_bounded(g_diag_path, sizeof g_diag_path, path.c_str());
}

bool dump(int fd, const char* cause) noexcept {
  SigsafeWriter w(fd);
  w.raw("{\"tool\": \"polyfuse\", \"diag_format\": 2, \"cause\": ");
  w.string(cause);
  w.raw(",\n\"pid\": ");
  w.integer(static_cast<i64>(::getpid()));
  w.raw(", \"compiler\": ");
  w.string(__VERSION__);
  w.raw(", \"build\": ");
#ifdef NDEBUG
  w.raw("\"optimized\"");
#else
  w.raw("\"debug\"");
#endif
  w.raw(",\n\"invocation\": \"");
  // Pre-escaped at set_invocation() time; write the bytes verbatim.
  w.raw_n(g_invocation_escaped.data(), g_invocation_escaped.size());
  w.raw("\",\n\"events_recorded\": ");
  w.uinteger(g_seq.load(std::memory_order_relaxed));
  w.raw(", \"ring_events_per_thread\": ");
  w.uinteger(kRingEvents);
  w.raw(",\n\"events\": [");
  // Ring by ring (not globally sorted -- sorting is off-limits here);
  // within a ring, oldest first. Consumers order by "seq".
  bool first_event = true;
  const int nrings = num_ring_slots();
  for (int i = 0; i < nrings; ++i) {
    const Ring* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t lo = head > kRingEvents ? head - kRingEvents : 0;
    for (std::uint64_t k = lo; k < head; ++k) {
      if (!first_event) w.raw(",");
      first_event = false;
      w.raw("\n");
      dump_event(w, ring->events[k % kRingEvents]);
    }
  }
  w.raw("\n],\n");
  // The dumping thread's request registry. Reading the thread-local
  // context is safe in a signal handler: tl_context is a constant-
  // initialized POD defined in this static library, so the read neither
  // allocates nor runs a lazy initializer.
  const MetricsRegistry* reg = current_context().metrics;
  dump_metrics(w, reg != nullptr ? *reg : global_metrics());
  w.raw("}\n");
  w.flush();
  return w.ok();
}

bool write_diag_file(const std::string& path, const char* cause) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const bool ok = dump(fd, cause);
  ::close(fd);
  return ok;
}

void reset_for_test() {
  const int nrings = num_ring_slots();
  for (int i = 0; i < nrings; ++i)
    if (Ring* ring = g_rings[i].load(std::memory_order_acquire))
      ring->head.store(0, std::memory_order_release);
  g_seq.store(0, std::memory_order_relaxed);
}

}  // namespace pf::support::flightrec
