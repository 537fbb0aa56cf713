// The metrics registry: counters, gauges, and fixed-boundary log-bucket
// histograms for every layer of the compile pipeline.
//
//  * Counters -- monotone event counts (simplex pivots, FME rows, budget
//    faults, ...). Lock-free relaxed atomics; worker threads bump them
//    without contention.
//
//  * Gauges -- last-written configuration/footprint values (worker
//    threads configured, flight-recorder threads). Merged by max on
//    absorb.
//
//  * Histograms -- fixed-boundary distributions of per-operation values:
//    pivots per simplex solve, branch-and-bound nodes per ILP solve,
//    solve wall time, FME rows per elimination, dependence-pair analysis
//    time. Buckets are powers of two (bucket i >= 1 covers
//    [2^(i-1), 2^i - 1]) so observation is one bit_width plus a few
//    relaxed atomic adds.
//
// Scoping: metrics flow into the *current* registry, the metrics field of
// the calling thread's request context (support/context.h), defaulting to
// the process-wide global registry. A MetricsScope gives one request an
// isolated registry and absorbs it into the parent when the scope ends;
// absorption is a serial, ordered merge, so scoped runs report
// deterministically. Pool tasks run under their submitter's context, so
// dependence workers report into the request's registry.
//
// Determinism contract (docs/observability.md): everything under the
// "runtime" subtree of to_json() -- gauges, wall-clock histograms, phase
// times, arena footprints -- legitimately varies with machine load and
// thread count. Everything *outside* it is byte-identical at every
// --jobs setting. Tests enforce exactly that split.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "support/intmath.h"

namespace pf::support {

enum class Counter : std::size_t {
  kSimplexPivots = 0,    // tableau pivots across all simplex solves
  kIlpNodes,             // branch-and-bound nodes expanded
  kIlpSolves,            // top-level ILP minimize() calls
  kFmeRowsGenerated,     // lower*upper combinations emitted by FM
  kFmeRowsDropped,       // FM rows dropped (constant rows + pre-dedupe)
  kSolveCacheHits,       // polyhedral solve cache hits
  kSolveCacheMisses,     // polyhedral solve cache misses
  kDepPairsAnalyzed,     // statement pairs processed by dependence analysis
  kDepPolyhedraBuilt,    // candidate dependence polyhedra tested
  kVerifyCheckedDeps,    // dependences legality-checked by the verifier
  kVerifyViolations,     // verifier findings (all kinds)
  kVerifyRaceChecks,     // (parallel loop, dependence) race checks
  kVerifyReductionChecks,   // relaxed-reduction claims + clauses re-proven
  kVerifyReductionWaivers,  // dependences waived as confirmed reductions
  kLintCheckedAccesses,  // accesses bounds/coverage-checked by --lint
  kLintValueFlows,       // value-based (last-writer) flows computed
  kLintFindings,         // lint findings, every severity
  kLintErrors,           // lint findings of error (correctness) severity
  kBudgetFuelLpSolve,    // fuel charged at simplex pivots + B&B nodes
  kBudgetFuelFmeProject,  // fuel charged at Fourier-Motzkin eliminations
  kBudgetFuelDepPair,    // fuel charged at dependence-pair solves
  kBudgetFuelPlutoLevel,  // fuel charged at Pluto scheduling levels
  kBudgetFuelFusionModel,  // fuel charged in fusion-policy work
  kBudgetFuelJitCc,      // fuel charged at JIT compiler invocations
  kBudgetFuelCountSet,   // fuel charged at point-counting recursion steps
  kBudgetExhaustions,    // fuel/deadline faults raised (BudgetExceeded)
  kBudgetInjectedFaults,  // faults raised by --inject
  kBudgetDowngrades,     // graceful-degradation steps taken, any layer
  kBudgetAssumedDeps,    // dependences conservatively assumed under budget
  kFastlaneSolves,       // simplex solves served by the int64 fast lane
  kFastlaneFallbacks,    // per-solve fallbacks to the bignum simplex instance
  kFastlaneWarmHits,     // scheduler warm-start points accepted (feasible)
  kFastlaneWarmMisses,   // scheduler warm-start points rejected
  kFastlaneArenaBytes,   // bytes of arena chunk storage reserved
  kTraceEventsDropped,   // spans/remarks dropped at the tracer buffer cap
  kCountSolves,          // top-level point-count requests (--analyze)
  kCountSteps,           // point-counting recursion steps, all solves
  kCountCacheHits,       // memoized count subproblems served from cache
  kCountCacheMisses,     // count subproblems computed fresh
  kCountUnknowns,        // counts degraded to "unknown" (budget/overflow)
  kReductionStatements,  // statements classified as associative reductions
  kReductionRelaxedDeps,  // reduction self-dependences relaxed for scheduling
  kReductionPrivArrays,  // arrays proven privatizable by value-based dataflow
  kReductionClauses,     // OpenMP reduction clauses attached during codegen
  kBudgetFuelReductions,  // fuel charged in the reduction analysis pass
  kDiskCacheHits,         // persistent-cache entries served from disk
  kDiskCacheMisses,       // persistent-cache probes that found no entry
  kDiskCacheWrites,       // entries committed to disk (temp-file + rename)
  kDiskCacheCorrupt,      // corrupted entries quarantined on read
  kDiskCacheEvictions,    // entries removed by the size-cap LRU sweep
  kSchedOrientationSkips,  // independence-orientation enumerations skipped
                           // (LP certificate: every orientation infeasible)
  kRedundancyLps,        // LPs solved by IntegerSet::remove_redundant
  kSimplexCells,         // tableau cells stored at pivots: (rows + 1) x
                         // (stored columns + 1) per pivot, not the cells
                         // a sparse pivot writes
  kSimplexCellsWritten,  // tableau cells a pivot stores a new value into
  kFarkasBuilds,         // dependence Farkas systems built (scheduler)
  kFarkasMemoHits,       // dependence Farkas systems served by shape memo
  kDataflowBuilds,       // value-based dataflow builds (ddg/dataflow.h)
  kDataflowMemoHits,     // dataflow requests served by the graph's build
  kNumCounters,
};

constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kNumCounters);

const char* to_string(Counter c);

/// Counters whose value legitimately depends on the execution
/// environment (thread count, allocator behavior) rather than on the
/// input program; reported under the "runtime" subtree of to_json().
bool counter_is_runtime(Counter c);

enum class Gauge : std::size_t {
  kJobsConfigured = 0,  // effective worker-thread count of the run
  kFlightrecThreads,    // flight-recorder ring slots: peak threads recording
  kNumGauges,
};

constexpr std::size_t kNumGauges = static_cast<std::size_t>(Gauge::kNumGauges);

const char* to_string(Gauge g);

enum class Hist : std::size_t {
  kSimplexPivotsPerSolve = 0,  // pivots per SimplexSolver::minimize
  kIlpNodesPerSolve,           // B&B nodes per IlpProblem::minimize
  kFmeRowsPerElimination,      // rows generated per pairwise FM elimination
  kSimplexSolveMicros,         // wall microseconds per simplex solve
  kIlpSolveMicros,             // wall microseconds per ILP solve
  kDepPairMicros,              // wall microseconds per dependence pair
  kCountStepsPerSolve,         // recursion steps per top-level point count
  kCountSolveMicros,           // wall microseconds per top-level point count
  kNumHists,
};

constexpr std::size_t kNumHists = static_cast<std::size_t>(Hist::kNumHists);

const char* to_string(Hist h);

/// Wall-clock histograms live under the "runtime" subtree of to_json():
/// their buckets can never be byte-identical across runs.
bool hist_is_runtime(Hist h);

/// Fixed bucket count for every histogram. Bucket 0 holds values <= 0,
/// bucket i in [1, kHistBuckets-2] holds [2^(i-1), 2^i - 1], and the last
/// bucket holds everything >= 2^(kHistBuckets-2).
constexpr std::size_t kHistBuckets = 24;

/// The bucket a value lands in (exposed for tests).
std::size_t hist_bucket_index(i64 value);
/// Smallest value mapping to bucket `b` (exposed for tests).
i64 hist_bucket_lower_bound(std::size_t b);

/// One registry of counters + gauges + histograms + phase timings.
/// Recording is thread-safe and lock-free (phase timers take a mutex;
/// they fire a handful of times per run). Snapshot reads are relaxed
/// atomic loads, safe from a signal handler holding a registry pointer.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void add(Counter c, i64 n = 1) {
    counters_[static_cast<std::size_t>(c)].fetch_add(
        n, std::memory_order_relaxed);
  }
  i64 get(Counter c) const {
    return counters_[static_cast<std::size_t>(c)].load(
        std::memory_order_relaxed);
  }

  void gauge_set(Gauge g, i64 value) {
    gauges_[static_cast<std::size_t>(g)].store(value,
                                               std::memory_order_relaxed);
  }
  i64 gauge(Gauge g) const {
    return gauges_[static_cast<std::size_t>(g)].load(
        std::memory_order_relaxed);
  }

  void observe(Hist h, i64 value);

  i64 hist_count(Hist h) const {
    return hists_[static_cast<std::size_t>(h)].count.load(
        std::memory_order_relaxed);
  }
  i64 hist_sum(Hist h) const {
    return hists_[static_cast<std::size_t>(h)].sum.load(
        std::memory_order_relaxed);
  }
  /// Min/max observed value; 0 when the histogram is empty.
  i64 hist_min(Hist h) const;
  i64 hist_max(Hist h) const;
  i64 hist_bucket(Hist h, std::size_t b) const {
    return hists_[static_cast<std::size_t>(h)].buckets[b].load(
        std::memory_order_relaxed);
  }

  /// Accumulate wall time under a phase name ("deps", "schedule", ...).
  /// Repeated phases accumulate; first-use order is preserved for output.
  void add_phase_seconds(const std::string& phase, double seconds);
  double phase_seconds(const std::string& phase) const;

  /// Merge `other` into this registry: counters and histogram contents
  /// add, gauges merge by max, phase timings accumulate in `other`'s
  /// first-use order. Call from one thread at a time (scope teardown).
  void absorb(const MetricsRegistry& other);

  /// Zero every counter, gauge and histogram; drop all phase timings.
  void reset();

  /// Human-readable multi-line report (for `polyfuse --stats`).
  std::string to_string() const;
  /// One JSON object: {"counters": {...}, "histograms": {...},
  /// "runtime": {"counters": {...}, "gauges": {...}, "histograms": {...},
  /// "phase_seconds": {...}}}. Everything outside "runtime" is
  /// deterministic; see the header comment.
  std::string to_json() const;

 private:
  struct HistData {
    // min/max start at their sentinel extremes so concurrent first
    // observations need no "is this the first?" check (which would race);
    // accessors report 0 while count == 0.
    std::atomic<i64> count{0};
    std::atomic<i64> sum{0};
    std::atomic<i64> min{INT64_MAX};
    std::atomic<i64> max{INT64_MIN};
    std::array<std::atomic<i64>, kHistBuckets> buckets{};
  };

  std::array<std::atomic<i64>, kNumCounters> counters_{};
  std::array<std::atomic<i64>, kNumGauges> gauges_{};
  std::array<HistData, kNumHists> hists_{};
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, double>> phases_;
};

/// The process-wide root registry (the absorb target of outermost
/// scopes; also what unscoped code reports into).
MetricsRegistry& global_metrics();

/// The registry the calling thread currently reports into: the innermost
/// MetricsScope's registry, else global_metrics().
MetricsRegistry& current_metrics();

/// RAII request scope: a fresh registry the thread reports into, absorbed
/// into the previously-current registry when the scope closes (a serial,
/// ordered merge -- the per-request isolation a compile service needs).
class MetricsScope {
 public:
  MetricsScope();
  ~MetricsScope();
  MetricsScope(const MetricsScope&) = delete;
  MetricsScope& operator=(const MetricsScope&) = delete;

  MetricsRegistry& registry() { return registry_; }

 private:
  MetricsRegistry* previous_;
  MetricsRegistry registry_;
};

/// Shorthands: report into the calling thread's current registry.
inline void count(Counter c, i64 n = 1) { current_metrics().add(c, n); }
inline void observe(Hist h, i64 value) { current_metrics().observe(h, value); }
inline void gauge_set(Gauge g, i64 value) {
  current_metrics().gauge_set(g, value);
}

}  // namespace pf::support
