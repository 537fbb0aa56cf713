#include "support/metrics.h"

#include <algorithm>
#include <sstream>

#include "support/context.h"
#include "support/trace.h"

namespace pf::support {

const char* to_string(Counter c) {
  switch (c) {
    case Counter::kSimplexPivots:
      return "simplex_pivots";
    case Counter::kIlpNodes:
      return "ilp_nodes";
    case Counter::kIlpSolves:
      return "ilp_solves";
    case Counter::kFmeRowsGenerated:
      return "fme_rows_generated";
    case Counter::kFmeRowsDropped:
      return "fme_rows_dropped";
    case Counter::kSolveCacheHits:
      return "solve_cache_hits";
    case Counter::kSolveCacheMisses:
      return "solve_cache_misses";
    case Counter::kDepPairsAnalyzed:
      return "dep_pairs_analyzed";
    case Counter::kDepPolyhedraBuilt:
      return "dep_polyhedra_built";
    case Counter::kVerifyCheckedDeps:
      return "verify_checked_deps";
    case Counter::kVerifyViolations:
      return "verify_violations";
    case Counter::kVerifyRaceChecks:
      return "verify_race_checks";
    case Counter::kVerifyReductionChecks:
      return "verify_reduction_checks";
    case Counter::kVerifyReductionWaivers:
      return "verify_reduction_waivers";
    case Counter::kLintCheckedAccesses:
      return "lint_checked_accesses";
    case Counter::kLintValueFlows:
      return "lint_value_flows";
    case Counter::kLintFindings:
      return "lint_findings";
    case Counter::kLintErrors:
      return "lint_errors";
    case Counter::kBudgetFuelLpSolve:
      return "budget_fuel_lp_solve";
    case Counter::kBudgetFuelFmeProject:
      return "budget_fuel_fme_project";
    case Counter::kBudgetFuelDepPair:
      return "budget_fuel_dep_pair";
    case Counter::kBudgetFuelPlutoLevel:
      return "budget_fuel_pluto_level";
    case Counter::kBudgetFuelFusionModel:
      return "budget_fuel_fusion_model";
    case Counter::kBudgetFuelJitCc:
      return "budget_fuel_jit_cc";
    case Counter::kBudgetFuelCountSet:
      return "budget_fuel_count_set";
    case Counter::kBudgetExhaustions:
      return "budget_exhaustions";
    case Counter::kBudgetInjectedFaults:
      return "budget_injected_faults";
    case Counter::kBudgetDowngrades:
      return "budget_downgrades";
    case Counter::kBudgetAssumedDeps:
      return "budget_assumed_deps";
    case Counter::kFastlaneSolves:
      return "fastlane_solves";
    case Counter::kFastlaneFallbacks:
      return "fastlane_fallbacks";
    case Counter::kFastlaneWarmHits:
      return "fastlane_warm_hits";
    case Counter::kFastlaneWarmMisses:
      return "fastlane_warm_misses";
    case Counter::kFastlaneArenaBytes:
      return "fastlane_arena_bytes";
    case Counter::kTraceEventsDropped:
      return "trace_events_dropped";
    case Counter::kCountSolves:
      return "count_solves";
    case Counter::kCountSteps:
      return "count_steps";
    case Counter::kCountCacheHits:
      return "count_cache_hits";
    case Counter::kCountCacheMisses:
      return "count_cache_misses";
    case Counter::kCountUnknowns:
      return "count_unknowns";
    case Counter::kReductionStatements:
      return "reduction_statements";
    case Counter::kReductionRelaxedDeps:
      return "reduction_relaxed_deps";
    case Counter::kReductionPrivArrays:
      return "reduction_priv_arrays";
    case Counter::kReductionClauses:
      return "reduction_clauses";
    case Counter::kBudgetFuelReductions:
      return "budget_fuel_reductions";
    case Counter::kDiskCacheHits:
      return "diskcache_hits";
    case Counter::kDiskCacheMisses:
      return "diskcache_misses";
    case Counter::kDiskCacheWrites:
      return "diskcache_writes";
    case Counter::kDiskCacheCorrupt:
      return "diskcache_corrupt_quarantined";
    case Counter::kDiskCacheEvictions:
      return "diskcache_evictions";
    case Counter::kSchedOrientationSkips:
      return "sched_orientation_skips";
    case Counter::kRedundancyLps:
      return "redundancy_lps";
    case Counter::kSimplexCells:
      return "simplex_cells";
    case Counter::kSimplexCellsWritten:
      return "simplex_cells_written";
    case Counter::kFarkasBuilds:
      return "farkas_builds";
    case Counter::kFarkasMemoHits:
      return "farkas_memo_hits";
    case Counter::kDataflowBuilds:
      return "dataflow_builds";
    case Counter::kDataflowMemoHits:
      return "dataflow_memo_hits";
    case Counter::kNumCounters:
      break;
  }
  return "?";
}

bool counter_is_runtime(Counter c) {
  // Arena chunks are reserved per worker thread, so the byte total
  // scales with how many threads touched a solver -- an execution fact,
  // not an input-program fact. Persistent-cache counters depend on what
  // an earlier process left on disk, which no --jobs contract covers.
  return c == Counter::kFastlaneArenaBytes || c == Counter::kDiskCacheHits ||
         c == Counter::kDiskCacheMisses || c == Counter::kDiskCacheWrites ||
         c == Counter::kDiskCacheCorrupt || c == Counter::kDiskCacheEvictions;
}

const char* to_string(Gauge g) {
  switch (g) {
    case Gauge::kJobsConfigured:
      return "jobs_configured";
    case Gauge::kFlightrecThreads:
      return "flightrec_threads";
    case Gauge::kNumGauges:
      break;
  }
  return "?";
}

const char* to_string(Hist h) {
  switch (h) {
    case Hist::kSimplexPivotsPerSolve:
      return "simplex_pivots_per_solve";
    case Hist::kIlpNodesPerSolve:
      return "ilp_nodes_per_solve";
    case Hist::kFmeRowsPerElimination:
      return "fme_rows_per_elimination";
    case Hist::kSimplexSolveMicros:
      return "simplex_solve_us";
    case Hist::kIlpSolveMicros:
      return "ilp_solve_us";
    case Hist::kDepPairMicros:
      return "dep_pair_us";
    case Hist::kCountStepsPerSolve:
      return "count_steps_per_solve";
    case Hist::kCountSolveMicros:
      return "count_solve_us";
    case Hist::kNumHists:
      break;
  }
  return "?";
}

bool hist_is_runtime(Hist h) {
  switch (h) {
    case Hist::kSimplexSolveMicros:
    case Hist::kIlpSolveMicros:
    case Hist::kDepPairMicros:
    case Hist::kCountSolveMicros:
      return true;
    default:
      return false;
  }
}

std::size_t hist_bucket_index(i64 value) {
  if (value <= 0) return 0;
  // bit_width(v) in [1, 64] for v > 0; bucket i >= 1 covers
  // [2^(i-1), 2^i - 1], the last bucket absorbs the tail.
  return std::min<std::size_t>(
      static_cast<std::size_t>(
          std::bit_width(static_cast<std::uint64_t>(value))),
      kHistBuckets - 1);
}

i64 hist_bucket_lower_bound(std::size_t b) {
  if (b == 0) return 0;
  return i64{1} << (b - 1);
}

void MetricsRegistry::observe(Hist h, i64 value) {
  HistData& hd = hists_[static_cast<std::size_t>(h)];
  hd.sum.fetch_add(value, std::memory_order_relaxed);
  hd.buckets[hist_bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  i64 cur = hd.min.load(std::memory_order_relaxed);
  while (value < cur &&
         !hd.min.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = hd.max.load(std::memory_order_relaxed);
  while (value > cur &&
         !hd.max.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  hd.count.fetch_add(1, std::memory_order_relaxed);
}

i64 MetricsRegistry::hist_min(Hist h) const {
  const HistData& hd = hists_[static_cast<std::size_t>(h)];
  return hd.count.load(std::memory_order_relaxed) > 0
             ? hd.min.load(std::memory_order_relaxed)
             : 0;
}

i64 MetricsRegistry::hist_max(Hist h) const {
  const HistData& hd = hists_[static_cast<std::size_t>(h)];
  return hd.count.load(std::memory_order_relaxed) > 0
             ? hd.max.load(std::memory_order_relaxed)
             : 0;
}

void MetricsRegistry::add_phase_seconds(const std::string& phase,
                                        double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, total] : phases_) {
    if (name == phase) {
      total += seconds;
      return;
    }
  }
  phases_.emplace_back(phase, seconds);
}

double MetricsRegistry::phase_seconds(const std::string& phase) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, total] : phases_)
    if (name == phase) return total;
  return 0.0;
}

void MetricsRegistry::absorb(const MetricsRegistry& other) {
  for (std::size_t i = 0; i < kNumCounters; ++i)
    counters_[i].fetch_add(other.counters_[i].load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    const i64 v = other.gauges_[i].load(std::memory_order_relaxed);
    if (v > gauges_[i].load(std::memory_order_relaxed))
      gauges_[i].store(v, std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kNumHists; ++i) {
    const Hist h = static_cast<Hist>(i);
    const i64 ocount = other.hist_count(h);
    if (ocount == 0) continue;
    HistData& hd = hists_[i];
    if (hd.count.load(std::memory_order_relaxed) == 0) {
      hd.min.store(other.hist_min(h), std::memory_order_relaxed);
      hd.max.store(other.hist_max(h), std::memory_order_relaxed);
    } else {
      hd.min.store(std::min(hd.min.load(std::memory_order_relaxed),
                            other.hist_min(h)),
                   std::memory_order_relaxed);
      hd.max.store(std::max(hd.max.load(std::memory_order_relaxed),
                            other.hist_max(h)),
                   std::memory_order_relaxed);
    }
    hd.sum.fetch_add(other.hist_sum(h), std::memory_order_relaxed);
    for (std::size_t b = 0; b < kHistBuckets; ++b)
      hd.buckets[b].fetch_add(other.hist_bucket(h, b),
                              std::memory_order_relaxed);
    hd.count.fetch_add(ocount, std::memory_order_relaxed);
  }
  std::vector<std::pair<std::string, double>> other_phases;
  {
    std::lock_guard<std::mutex> lock(other.mu_);
    other_phases = other.phases_;
  }
  for (const auto& [name, total] : other_phases)
    add_phase_seconds(name, total);
}

void MetricsRegistry::reset() {
  for (auto& c : counters_) c.store(0, std::memory_order_relaxed);
  for (auto& g : gauges_) g.store(0, std::memory_order_relaxed);
  for (auto& hd : hists_) {
    hd.count.store(0, std::memory_order_relaxed);
    hd.sum.store(0, std::memory_order_relaxed);
    hd.min.store(INT64_MAX, std::memory_order_relaxed);
    hd.max.store(INT64_MIN, std::memory_order_relaxed);
    for (auto& b : hd.buckets) b.store(0, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(mu_);
  phases_.clear();
}

namespace {

// Bucket-approximated percentile: the lower bound of the bucket holding
// the q-th observation. Exact enough to read a distribution's shape in a
// --stats report; the JSON keeps the raw buckets.
i64 approx_percentile(const MetricsRegistry& reg, Hist h, double q) {
  const i64 total = reg.hist_count(h);
  i64 rank = static_cast<i64>(q * static_cast<double>(total));
  if (rank >= total) rank = total - 1;
  i64 seen = 0;
  for (std::size_t b = 0; b < kHistBuckets; ++b) {
    seen += reg.hist_bucket(h, b);
    if (seen > rank) return hist_bucket_lower_bound(b);
  }
  return reg.hist_max(h);
}

}  // namespace

std::string MetricsRegistry::to_string() const {
  std::ostringstream os;
  os << "compile pipeline stats:\n";
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const Counter c = static_cast<Counter>(i);
    os << "  " << support::to_string(c) << " = " << get(c) << "\n";
  }
  const i64 hits = get(Counter::kSolveCacheHits);
  const i64 misses = get(Counter::kSolveCacheMisses);
  if (hits + misses > 0) {
    os << "  solve_cache_hit_rate = "
       << (100.0 * static_cast<double>(hits) /
           static_cast<double>(hits + misses))
       << "%\n";
  }
  const i64 fast = get(Counter::kFastlaneSolves);
  const i64 slow = get(Counter::kFastlaneFallbacks);
  if (fast + slow > 0) {
    os << "  fastlane_rate = "
       << (100.0 * static_cast<double>(fast) /
           static_cast<double>(fast + slow))
       << "%\n";
  }
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    const Gauge g = static_cast<Gauge>(i);
    if (gauge(g) != 0)
      os << "  gauge " << support::to_string(g) << " = " << gauge(g) << "\n";
  }
  for (std::size_t i = 0; i < kNumHists; ++i) {
    const Hist h = static_cast<Hist>(i);
    const i64 n = hist_count(h);
    if (n == 0) continue;
    os << "  hist " << support::to_string(h) << ": count=" << n
       << " sum=" << hist_sum(h) << " min=" << hist_min(h)
       << " max=" << hist_max(h)
       << " p50~=" << approx_percentile(*this, h, 0.50)
       << " p90~=" << approx_percentile(*this, h, 0.90)
       << " p99~=" << approx_percentile(*this, h, 0.99) << "\n";
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, total] : phases_)
    os << "  phase " << name << " = " << total << " s\n";
  return os.str();
}

namespace {

void emit_hist_json(std::ostringstream& os, const MetricsRegistry& reg,
                    Hist h) {
  os << "\"" << to_string(h) << "\": {\"count\": " << reg.hist_count(h)
     << ", \"sum\": " << reg.hist_sum(h) << ", \"min\": " << reg.hist_min(h)
     << ", \"max\": " << reg.hist_max(h) << ", \"buckets\": [";
  for (std::size_t b = 0; b < kHistBuckets; ++b) {
    if (b != 0) os << ", ";
    os << reg.hist_bucket(h, b);
  }
  os << "]}";
}

}  // namespace

std::string MetricsRegistry::to_json() const {
  std::ostringstream os;
  os << "{\"counters\": {";
  bool first = true;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const Counter c = static_cast<Counter>(i);
    if (counter_is_runtime(c)) continue;
    if (!first) os << ", ";
    first = false;
    os << "\"" << support::to_string(c) << "\": " << get(c);
  }
  os << "}, \"histograms\": {";
  first = true;
  for (std::size_t i = 0; i < kNumHists; ++i) {
    const Hist h = static_cast<Hist>(i);
    if (hist_is_runtime(h)) continue;
    if (!first) os << ", ";
    first = false;
    emit_hist_json(os, *this, h);
  }
  // Everything below varies with machine load / thread count; consumers
  // comparing runs mask this one subtree (docs/observability.md).
  os << "}, \"runtime\": {\"counters\": {";
  first = true;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const Counter c = static_cast<Counter>(i);
    if (!counter_is_runtime(c)) continue;
    if (!first) os << ", ";
    first = false;
    os << "\"" << support::to_string(c) << "\": " << get(c);
  }
  os << "}, \"gauges\": {";
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    const Gauge g = static_cast<Gauge>(i);
    if (i != 0) os << ", ";
    os << "\"" << support::to_string(g) << "\": " << gauge(g);
  }
  os << "}, \"histograms\": {";
  first = true;
  for (std::size_t i = 0; i < kNumHists; ++i) {
    const Hist h = static_cast<Hist>(i);
    if (!hist_is_runtime(h)) continue;
    if (!first) os << ", ";
    first = false;
    emit_hist_json(os, *this, h);
  }
  os << "}, \"phase_seconds\": {";
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < phases_.size(); ++i) {
      if (i != 0) os << ", ";
      os << "\"" << json_escape(phases_[i].first)
         << "\": " << phases_[i].second;
    }
  }
  os << "}}}";
  return os.str();
}

MetricsRegistry& global_metrics() {
  static MetricsRegistry reg;
  return reg;
}

MetricsRegistry& current_metrics() {
  MetricsRegistry* reg = current_context().metrics;
  return reg != nullptr ? *reg : global_metrics();
}

MetricsScope::MetricsScope()
    : previous_(std::exchange(current_context().metrics, &registry_)) {}

MetricsScope::~MetricsScope() {
  current_context().metrics = previous_;
  (previous_ != nullptr ? *previous_ : global_metrics()).absorb(registry_);
}

}  // namespace pf::support
