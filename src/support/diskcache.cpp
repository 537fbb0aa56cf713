#include "support/diskcache.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <system_error>

#include "support/trace.h"
#include "support/metrics.h"

namespace pf::support::diskcache {
namespace {

namespace fs = std::filesystem;

using u64 = std::uint64_t;

// Entry layout (host-native i64/u64 words; a cache directory is a
// per-host artifact, the fingerprint does not try to cover endianness):
//   u64 magic                'PFDCACH1'
//   u64 fingerprint_hash     FNV-1a of fingerprint() + domain
//   u64 run_id               writer's process-tree run id
//   u64 key_words
//   u64 value_words
//   u64 checksum             FNV-1a over the five fields above + payload
//   i64 key[key_words]
//   i64 value[value_words]
constexpr u64 kMagic = 0x5046444341434831ULL;  // "PFDCACH1"
constexpr std::size_t kHeaderWords = 6;
constexpr int kSweepEveryWrites = 64;

struct State {
  std::mutex mu;
  std::string dir;           // empty = disabled
  i64 max_bytes = 256 << 20;
  std::string salt;
  u64 run_id = 0;
  std::atomic<bool> enabled{false};
  std::atomic<int> writes_since_sweep{0};
  std::atomic<u64> temp_seq{0};
  // Injection table + per-site ordinal counters (process-wide: disk I/O
  // order is scheduling-dependent, but every injected outcome -- a miss
  // or a skipped write -- is invisible in emitted output by design).
  std::vector<Injection> injections;
  std::atomic<i64> read_ops{0};
  std::atomic<i64> write_ops{0};
};

State& state() {
  static State s;
  return s;
}

u64 fnv1a(u64 seed, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  u64 h = seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr u64 kFnvOffset = 14695981039346656037ULL;

u64 fingerprint_hash(const std::string& domain) {
  const std::string fp = fingerprint();
  u64 h = fnv1a(kFnvOffset, fp.data(), fp.size());
  return fnv1a(h, domain.data(), domain.size());
}

std::string hex16(u64 v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

// Entry file name: <domain>-<hash of fingerprint+domain+key>.pfc.
std::string entry_name(const std::string& domain, u64 fp_hash,
                       const std::vector<i64>& key) {
  u64 h = fnv1a(fp_hash, key.data(), key.size() * sizeof(i64));
  return domain + "-" + hex16(h) + ".pfc";
}

u64 entry_checksum(u64 fp_hash, u64 run_id, const std::vector<i64>& key,
                   const std::vector<i64>& value) {
  const u64 header[5] = {kMagic, fp_hash, run_id,
                         static_cast<u64>(key.size()),
                         static_cast<u64>(value.size())};
  u64 h = fnv1a(kFnvOffset, header, sizeof header);
  h = fnv1a(h, key.data(), key.size() * sizeof(i64));
  return fnv1a(h, value.data(), value.size() * sizeof(i64));
}

// True when an injection matches this site's next ordinal. Hard
// injections die by SIGABRT here, deterministically exercising the
// crash-diagnostic path mid-cache-I/O.
bool injection_fires(BudgetSite site, std::atomic<i64>& ops) {
  State& s = state();
  if (s.injections.empty()) {
    ops.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const i64 ordinal = ops.fetch_add(1, std::memory_order_relaxed);
  for (const Injection& inj : s.injections)
    if (inj.site == site && inj.fail_at == ordinal) {
      record_event(flightrec::EventKind::kFault, to_string(site),
                   inj.hard ? "abort-injected" : "fault-injected", ordinal);
      if (inj.hard) std::abort();
      // Deliberately not counted as a budget fault: which *request*
      // performs the K-th process-wide cache I/O is scheduling-dependent,
      // and the batch driver classifies a request "degraded" by its
      // scoped budget-fault counters. An injected read is just a miss.
      return true;
    }
  return false;
}

// Move a failed-verification entry out of the lookup path. Never trusted
// again; kept (bounded) for post-mortem inspection. Falls back to unlink
// when the quarantine directory cannot take it.
void quarantine(const fs::path& file) {
  State& s = state();
  std::error_code ec;
  const fs::path qdir = fs::path(s.dir) / "quarantine";
  fs::create_directories(qdir, ec);
  const u64 seq = s.temp_seq.fetch_add(1, std::memory_order_relaxed);
  const fs::path target =
      qdir / (file.filename().string() + "." + std::to_string(::getpid()) +
              "." + std::to_string(seq));
  fs::rename(file, target, ec);
  if (ec) fs::remove(file, ec);
  count(Counter::kDiskCacheCorrupt);
  record_event(flightrec::EventKind::kMark, "diskcache", "quarantined");
}

bool read_words(std::ifstream& in, i64* out, std::size_t words) {
  in.read(reinterpret_cast<char*>(out),
          static_cast<std::streamsize>(words * sizeof(i64)));
  return static_cast<std::size_t>(in.gcount()) == words * sizeof(i64);
}

// The LRU sweep proper: newest-first by mtime, keep until the cap.
// Also removes stale temp files (a crashed writer's leftovers) and
// bounds the quarantine area.
void sweep_locked() {
  State& s = state();
  std::error_code ec;
  struct Ent {
    fs::path path;
    fs::file_time_type mtime;
    u64 size;
  };
  std::vector<Ent> entries;
  u64 total = 0;
  const auto now = fs::file_time_type::clock::now();
  for (const fs::directory_entry& e : fs::directory_iterator(s.dir, ec)) {
    if (!e.is_regular_file(ec)) continue;
    const std::string name = e.path().filename().string();
    const auto mtime = fs::last_write_time(e.path(), ec);
    if (ec) continue;
    if (name.rfind(".tmp.", 0) == 0) {
      // A temp file older than a few minutes is a dead writer's debris;
      // younger ones may still be mid-commit in another process.
      if (now - mtime > std::chrono::minutes(10)) fs::remove(e.path(), ec);
      continue;
    }
    const u64 size = static_cast<u64>(e.file_size(ec));
    if (ec) continue;
    entries.push_back(Ent{e.path(), mtime, size});
    total += size;
  }
  if (total > static_cast<u64>(s.max_bytes)) {
    // Evict oldest-first down to 3/4 of the cap, so back-to-back writes
    // do not re-trigger the sweep immediately.
    std::sort(entries.begin(), entries.end(),
              [](const Ent& a, const Ent& b) { return a.mtime < b.mtime; });
    const u64 target = static_cast<u64>(s.max_bytes) * 3 / 4;
    for (const Ent& e : entries) {
      if (total <= target) break;
      if (fs::remove(e.path, ec) && !ec) {
        total -= e.size;
        count(Counter::kDiskCacheEvictions);
      }
    }
  }
  // Keep quarantine bounded: the newest few entries are plenty for
  // diagnosis; the rest is just disk.
  constexpr std::size_t kKeepQuarantined = 32;
  std::vector<Ent> quarantined;
  for (const fs::directory_entry& e :
       fs::directory_iterator(fs::path(s.dir) / "quarantine", ec)) {
    if (!e.is_regular_file(ec)) continue;
    const auto mtime = fs::last_write_time(e.path(), ec);
    if (ec) continue;
    quarantined.push_back(Ent{e.path(), mtime, 0});
  }
  if (quarantined.size() > kKeepQuarantined) {
    std::sort(quarantined.begin(), quarantined.end(),
              [](const Ent& a, const Ent& b) { return a.mtime < b.mtime; });
    for (std::size_t i = 0; i + kKeepQuarantined < quarantined.size(); ++i)
      fs::remove(quarantined[i].path, ec);
  }
}

void maybe_sweep() {
  State& s = state();
  if (s.writes_since_sweep.fetch_add(1, std::memory_order_relaxed) + 1 <
      kSweepEveryWrites)
    return;
  // One sweeper at a time; racers skip rather than queue.
  std::unique_lock<std::mutex> lock(s.mu, std::try_to_lock);
  if (!lock.owns_lock()) return;
  s.writes_since_sweep.store(0, std::memory_order_relaxed);
  sweep_locked();
}

u64 fresh_run_id() {
  // Unique per process *tree*: forked batch workers inherit it, separate
  // invocations (the warm rerun) do not.
  u64 h = kFnvOffset;
  const u64 pid = static_cast<u64>(::getpid());
  const u64 tick = static_cast<u64>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  const u64 wall = static_cast<u64>(
      std::chrono::system_clock::now().time_since_epoch().count());
  h = fnv1a(h, &pid, sizeof pid);
  h = fnv1a(h, &tick, sizeof tick);
  h = fnv1a(h, &wall, sizeof wall);
  return h == 0 ? 1 : h;
}

}  // namespace

bool configure(const std::string& dir, i64 max_mb) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.enabled.store(false, std::memory_order_release);
  s.dir.clear();
  if (dir.empty()) return false;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec || !fs::is_directory(dir, ec)) return false;
  s.dir = dir;
  s.max_bytes = std::max<i64>(1, max_mb) << 20;
  s.run_id = fresh_run_id();
  s.enabled.store(true, std::memory_order_release);
  return true;
}

bool enabled() { return state().enabled.load(std::memory_order_acquire); }

const std::string& directory() { return state().dir; }

void set_injections(const std::vector<Injection>& injections) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.injections.clear();
  for (const Injection& inj : injections)
    if (inj.site == BudgetSite::kDiskcacheRead ||
        inj.site == BudgetSite::kDiskcacheWrite)
      s.injections.push_back(inj);
  // Ordinals count from the moment the table is installed, so fail-after=K
  // means "the K-th cache I/O from now", independent of any earlier
  // traffic in the process.
  s.read_ops.store(0, std::memory_order_relaxed);
  s.write_ops.store(0, std::memory_order_relaxed);
}

void sweep_now() {
  State& s = state();
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(s.mu);
  s.writes_since_sweep.store(0, std::memory_order_relaxed);
  sweep_locked();
}

std::string fingerprint() {
  // Format version + the build timestamp of this translation unit + the
  // configured salt. Rebuilding the cache layer (or bumping the version
  // on any format/semantic change) orphans every old entry -- they fail
  // the fingerprint-hashed file name and are LRU-swept out over time.
  return "pfc2|" __DATE__ "|" __TIME__ "|" + state().salt;
}

void set_fingerprint_salt(const std::string& salt) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.salt = salt;
}

void renew_run_id() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.run_id = fresh_run_id();
}

bool lookup(const std::string& domain, const std::vector<i64>& key,
            std::vector<i64>* value) {
  State& s = state();
  if (!enabled()) return false;
  if (injection_fires(BudgetSite::kDiskcacheRead, s.read_ops)) {
    count(Counter::kDiskCacheMisses);
    return false;
  }
  const u64 fp_hash = fingerprint_hash(domain);
  const fs::path file = fs::path(s.dir) / entry_name(domain, fp_hash, key);

  std::ifstream in(file, std::ios::binary);
  if (!in) {
    count(Counter::kDiskCacheMisses);
    return false;
  }
  i64 header[kHeaderWords];
  if (!read_words(in, header, kHeaderWords)) {
    quarantine(file);
    count(Counter::kDiskCacheMisses);
    return false;
  }
  const u64 magic = static_cast<u64>(header[0]);
  const u64 fp = static_cast<u64>(header[1]);
  const u64 run_id = static_cast<u64>(header[2]);
  const u64 key_words = static_cast<u64>(header[3]);
  const u64 value_words = static_cast<u64>(header[4]);
  const u64 checksum = static_cast<u64>(header[5]);
  // Structural sanity before allocating payload buffers: a bit flip in a
  // size field must not turn into a giant allocation.
  constexpr u64 kMaxWords = 1u << 24;
  if (magic != kMagic || fp != fp_hash || key_words > kMaxWords ||
      value_words > kMaxWords) {
    quarantine(file);
    count(Counter::kDiskCacheMisses);
    return false;
  }
  std::vector<i64> stored_key(key_words);
  std::vector<i64> stored_value(value_words);
  if (!read_words(in, stored_key.data(), stored_key.size()) ||
      !read_words(in, stored_value.data(), stored_value.size()) ||
      in.peek() != std::ifstream::traits_type::eof()) {
    quarantine(file);
    count(Counter::kDiskCacheMisses);
    return false;
  }
  if (entry_checksum(fp_hash, run_id, stored_key, stored_value) != checksum) {
    quarantine(file);
    count(Counter::kDiskCacheMisses);
    return false;
  }
  if (run_id == s.run_id) {
    // Written by this run (or a forked sibling): invisible, so cache
    // behavior only depends on the directory state at startup.
    count(Counter::kDiskCacheMisses);
    return false;
  }
  if (stored_key != key) {
    // File-name hash collision with a different key: a miss, and the
    // resident entry stays (it is valid for its own key).
    count(Counter::kDiskCacheMisses);
    return false;
  }
  *value = std::move(stored_value);
  count(Counter::kDiskCacheHits);
  // Refresh recency for the LRU sweep; best-effort.
  std::error_code ec;
  fs::last_write_time(file, fs::file_time_type::clock::now(), ec);
  return true;
}

void store(const std::string& domain, const std::vector<i64>& key,
           const std::vector<i64>& value) {
  State& s = state();
  if (!enabled()) return;
  if (injection_fires(BudgetSite::kDiskcacheWrite, s.write_ops)) return;
  const u64 fp_hash = fingerprint_hash(domain);
  const std::string name = entry_name(domain, fp_hash, key);
  const fs::path file = fs::path(s.dir) / name;
  const u64 seq = s.temp_seq.fetch_add(1, std::memory_order_relaxed);
  const fs::path tmp =
      fs::path(s.dir) / (".tmp." + std::to_string(::getpid()) + "." +
                         std::to_string(seq) + "." + name);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;
    const i64 header[kHeaderWords] = {
        static_cast<i64>(kMagic),
        static_cast<i64>(fp_hash),
        static_cast<i64>(s.run_id),
        static_cast<i64>(key.size()),
        static_cast<i64>(value.size()),
        static_cast<i64>(entry_checksum(fp_hash, s.run_id, key, value))};
    out.write(reinterpret_cast<const char*>(header), sizeof header);
    out.write(reinterpret_cast<const char*>(key.data()),
              static_cast<std::streamsize>(key.size() * sizeof(i64)));
    out.write(reinterpret_cast<const char*>(value.data()),
              static_cast<std::streamsize>(value.size() * sizeof(i64)));
    out.flush();
    if (!out) {
      std::error_code ec;
      fs::remove(tmp, ec);
      return;
    }
  }
  // The commit point: atomic on POSIX, so readers only ever see a
  // complete entry. Concurrent writers of the same key commit identical
  // bytes (modulo run id), and last-rename-wins either way.
  std::error_code ec;
  fs::rename(tmp, file, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return;
  }
  count(Counter::kDiskCacheWrites);
  maybe_sweep();
}

}  // namespace pf::support::diskcache
