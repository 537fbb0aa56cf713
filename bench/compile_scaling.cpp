// Compile-time scaling micro-bench: times dependence analysis at 1/2/4
// analysis threads plus Pluto scheduling, and reports solver/cache
// counters. Output is one JSON object so the bench harness can archive
// it next to the kernel results.
//
// Two synthetic SCoPs are used. Analysis scaling runs on the largest
// program the generator family produces (~30 statements with dense read
// sets: the quadratic statement-pair x access-pair fan-out is the
// dominant cost, which is exactly what the thread pool parallelizes).
// Scheduling is level-by-level ILP and inherently serial, and its
// branch-and-bound cost explodes with statement count, so it is timed
// once on a test-sized program.
//
// The solve cache and stats are reset between configurations so each
// run pays the full cost; "speedup_analyze_4" is what the acceptance
// bar (>= 1.8x on 4 threads) reads.
//
// "end_to_end_compile_seconds" (analyze at jobs=1 + schedule) is the
// figure BENCH_*.json records compare across PRs, and the "fastlane"
// object says how much of the solver work the int64 fast lane served.
// A small Rational comparison/hash microbench rides along, pinning the
// scalar-level cost the fast lane avoids.
//
// --smoke: one rep under a generous compute-fuel budget; tools/ci.sh
// uses it as the perf-smoke stage and fails the build when the
// fast-lane rate drops below threshold (see docs/performance.md).
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <filesystem>

#include "common.h"
#include "ddg/dependences.h"
#include "frontend/parser.h"
#include "fusion/models.h"
#include "poly/set.h"
#include "sched/pluto.h"
#include "suite/synthetic.h"
#include "support/budget.h"
#include "support/diskcache.h"
#include "support/metrics.h"
#include "support/rational.h"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Median-of-reps wall time for one (jobs) configuration of analyze().
double time_analyze(const pf::ir::Scop& scop, std::size_t jobs, int reps) {
  std::cerr << "... analyze jobs=" << jobs << " x" << reps << "\n";
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    pf::poly::clear_solve_cache();
    pf::ddg::AnalysisOptions opts;
    opts.jobs = jobs;
    const auto t0 = std::chrono::steady_clock::now();
    const auto dg = pf::ddg::DependenceGraph::analyze(scop, opts);
    times.push_back(seconds_since(t0));
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

// ns/op over `iters` calls of `op` on a pre-generated Rational stream,
// with a data dependence through `sink` so the loop cannot be hoisted.
template <typename Op>
double time_rational_op(const std::vector<pf::Rational>& vals,
                        std::size_t iters, Op op) {
  std::size_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i)
    sink += op(vals[(i + sink % 2) % vals.size()], vals[(i * 7 + 3) % vals.size()]);
  const double s = seconds_since(t0);
  // Keep `sink` observable.
  if (sink == static_cast<std::size_t>(-1)) std::cerr << "";
  return 1e9 * s / static_cast<double>(iters);
}

// Rational comparison and hash throughput: the per-cell costs the int64
// fast lane removes from the simplex inner loop.
std::string rational_microbench_json() {
  std::vector<pf::Rational> vals;
  std::uint64_t lcg = 0x2545F4914F6CDD1DULL;
  for (int i = 0; i < 256; ++i) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const pf::i64 num = static_cast<pf::i64>(lcg >> 40) - (1 << 23);
    const pf::i64 den = static_cast<pf::i64>((lcg >> 16) % 97) + 1;
    vals.emplace_back(num, den);
  }
  constexpr std::size_t kIters = 2'000'000;
  const double cmp_rat = time_rational_op(
      vals, kIters,
      [](const pf::Rational& a, const pf::Rational& b) { return a < b ? 1u : 0u; });
  const double cmp_int = time_rational_op(
      vals, kIters,
      [](const pf::Rational& a, const pf::Rational&) { return a < 0 ? 1u : 0u; });
  const double hash = time_rational_op(
      vals, kIters, [](const pf::Rational& a, const pf::Rational&) {
        return pf::hash_value(a);
      });
  return "{\"compare_rational_ns\": " + std::to_string(cmp_rat) +
         ", \"compare_int64_ns\": " + std::to_string(cmp_int) +
         ", \"hash_ns\": " + std::to_string(hash) + "}";
}

}  // namespace

int main(int argc, char** argv) {
  unsigned seed = 11;
  int reps = 3;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--seed=", 0) == 0) seed = std::stoul(a.substr(7));
    if (a.rfind("--reps=", 0) == 0) reps = std::stoi(a.substr(7));
    if (a == "--smoke") smoke = true;
  }
  // Smoke mode (tools/ci.sh): one rep under a generous fuel budget --
  // enough that nothing degrades, but the whole budget accounting path
  // (task budgets, per-site counters) runs alongside the fast lane.
  std::optional<pf::support::Budget> budget;
  std::optional<pf::support::BudgetScope> budget_scope;
  if (smoke) {
    reps = 1;
    pf::support::BudgetSpec spec;
    spec.fuel = 50'000'000;
    budget.emplace(spec);
    budget_scope.emplace(&*budget);
  }

  // Many nests, two statements each, dense read sets: access pairs per
  // statement pair grow quadratically in the reads, making each of the
  // ~900 statement pairs substantial.
  pf::suite::SyntheticOptions big;
  big.min_arrays = 6;
  big.max_arrays = 8;
  big.min_nests = 10;
  big.max_nests = 12;
  big.min_stmts = 2;
  big.max_stmts = 3;
  big.min_reads = 4;
  big.max_reads = 6;
  const pf::ir::Scop analyze_scop =
      pf::frontend::parse_scop(pf::suite::synthetic_program(seed, big));

  // Scheduling input: the end-to-end test generator's defaults.
  const pf::ir::Scop sched_scop =
      pf::frontend::parse_scop(pf::suite::synthetic_program(seed));

  std::cout << "{\n  \"bench\": \"compile_scaling\",\n";
  std::cout << "  \"seed\": " << seed << ",\n";
  // Speedups are only meaningful when the host actually has the cores:
  // on a single-core container every configuration measures ~1.0x.
  std::cout << "  \"hardware_concurrency\": "
            << std::thread::hardware_concurrency() << ",\n";
  std::cout << "  \"analyze_statements\": " << analyze_scop.statements().size()
            << ",\n";
  std::cout << "  \"schedule_statements\": " << sched_scop.statements().size()
            << ",\n"
            << std::flush;

  // Dependence analysis at 1/2/4 threads.
  pf::support::current_metrics().reset();
  const double t1 = time_analyze(analyze_scop, 1, reps);
  const double t2 = time_analyze(analyze_scop, 2, reps);
  const double t4 = time_analyze(analyze_scop, 4, reps);
  std::cout << "  \"analyze_seconds\": {\"jobs1\": " << t1
            << ", \"jobs2\": " << t2 << ", \"jobs4\": " << t4 << "},\n";
  std::cout << "  \"speedup_analyze_2\": " << (t1 / t2) << ",\n";
  std::cout << "  \"speedup_analyze_4\": " << (t1 / t4) << ",\n"
            << std::flush;

  // Pluto (wisefuse) scheduling; the solve cache is warm from the
  // program's own analysis, matching the real CLI pipeline.
  std::cerr << "... schedule\n";
  pf::support::current_metrics().reset();
  pf::poly::clear_solve_cache();
  const auto dg = pf::ddg::DependenceGraph::analyze(sched_scop);
  auto policy = pf::fusion::make_policy(pf::fusion::FusionModel::kWisefuse);
  const auto t0 = std::chrono::steady_clock::now();
  const auto sch = pf::sched::compute_schedule(sched_scop, dg, *policy);
  const double schedule_seconds = seconds_since(t0);
  std::cout << "  \"schedule_seconds\": " << schedule_seconds << ",\n";
  std::cout << "  \"schedule_levels\": "
            << (sch.rows.empty() ? 0 : sch.rows[0].size()) << ",\n";
  std::cout << "  \"end_to_end_compile_seconds\": " << (t1 + schedule_seconds)
            << ",\n"
            << std::flush;

  // Persistent-cache warm-vs-cold leg (src/support/diskcache.h): the
  // same analyze+schedule pipeline against an empty disk cache, then
  // again with the cache warm (a renewed run id simulates the process
  // restart that makes the first leg's writes visible). The in-memory
  // solve cache is cleared between legs so the reduction measured is the
  // disk cache's alone. BENCH_*.json records compare
  // warm_solve_reduction_percent; the acceptance bar is >= 50.
  std::cerr << "... diskcache warm/cold\n";
  // A limited budget bypasses the solve caches (the PR-5 determinism
  // contract), which would make this leg measure nothing in --smoke:
  // drop the smoke budget before the cache legs run.
  budget_scope.reset();
  budget.reset();
  {
    namespace fs = std::filesystem;
    namespace dc = pf::support::diskcache;
    using pf::support::Counter;
    const std::string cache_dir =
        (fs::temp_directory_path() /
         ("pf_bench_cache_" + std::to_string(::getpid())))
            .string();
    fs::remove_all(cache_dir);
    dc::configure(cache_dir, 64);
    pf::i64 cold_solves = 0, warm_solves = 0, warm_hits = 0;
    {
      pf::support::MetricsScope m;
      pf::poly::clear_solve_cache();
      const auto g = pf::ddg::DependenceGraph::analyze(sched_scop);
      pf::sched::compute_schedule(sched_scop, g, *policy);
      cold_solves = m.registry().get(Counter::kIlpSolves);
    }
    dc::renew_run_id();
    {
      pf::support::MetricsScope m;
      pf::poly::clear_solve_cache();
      const auto g = pf::ddg::DependenceGraph::analyze(sched_scop);
      pf::sched::compute_schedule(sched_scop, g, *policy);
      warm_solves = m.registry().get(Counter::kIlpSolves);
      warm_hits = m.registry().get(Counter::kDiskCacheHits);
    }
    dc::configure("", 0);
    fs::remove_all(cache_dir);
    const double reduction =
        cold_solves > 0
            ? 100.0 * static_cast<double>(cold_solves - warm_solves) /
                  static_cast<double>(cold_solves)
            : 0.0;
    std::cout << "  \"diskcache\": {\"cold_ilp_solves\": " << cold_solves
              << ", \"warm_ilp_solves\": " << warm_solves
              << ", \"warm_disk_hits\": " << warm_hits
              << ", \"warm_solve_reduction_percent\": " << reduction
              << "},\n"
              << std::flush;
  }

  std::cerr << "... rational microbench\n";
  std::cout << "  \"rational_microbench\": " << rational_microbench_json()
            << ",\n";
  // Fast-lane outcomes over the schedule section (its own analysis +
  // Pluto); the ci.sh perf-smoke stage parses rate_percent from here.
  std::cout << "  \"fastlane\": " << pf::bench::fastlane_summary_json()
            << ",\n";
  std::cout << "  \"stats\": " << pf::support::current_metrics().to_json()
            << "\n}\n";
  return 0;
}
