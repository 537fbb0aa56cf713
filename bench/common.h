// Shared plumbing for the benchmark harness: run a suite benchmark under a
// fusion strategy, evaluate it on the modeled 8-core machine, optionally
// JIT-compile and time it, and print paper-style tables.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "codegen/cemit.h"
#include "codegen/codegen.h"
#include "ddg/dependences.h"
#include "exec/interp.h"
#include "exec/jit.h"
#include "fusion/models.h"
#include "machine/perfmodel.h"
#include "sched/analysis.h"
#include "sched/pluto.h"
#include "suite/suite.h"
#include "support/metrics.h"
#include "support/strings.h"
#include "support/trace.h"

namespace pf::bench {

/// The five strategies of the paper's Table 1. "baseline" plays the role
/// of the Intel compiler: original program order, no fusion, outer loops
/// parallelized where legal (see DESIGN.md substitution #3).
enum class Strategy { kBaseline, kWisefuse, kSmartfuse, kNofuse, kMaxfuse };

inline const std::vector<Strategy>& all_strategies() {
  static const std::vector<Strategy> v = {
      Strategy::kBaseline, Strategy::kWisefuse, Strategy::kSmartfuse,
      Strategy::kNofuse, Strategy::kMaxfuse};
  return v;
}

inline const char* to_string(Strategy s) {
  switch (s) {
    case Strategy::kBaseline:
      return "baseline";
    case Strategy::kWisefuse:
      return "wisefuse";
    case Strategy::kSmartfuse:
      return "smartfuse";
    case Strategy::kNofuse:
      return "nofuse";
    case Strategy::kMaxfuse:
      return "maxfuse";
  }
  return "?";
}

struct Variant {
  std::shared_ptr<ir::Scop> scop;
  sched::Schedule schedule;
  codegen::AstPtr ast;
  double schedule_seconds = 0;
};

/// Parse + analyze + schedule + generate for one benchmark and strategy.
/// Feeds the pipeline-wide perf counters (support/metrics.h): per-phase
/// wall times accumulate so solver_stats_json() can be archived next to
/// the timing tables.
inline Variant build_variant(const suite::Benchmark& b, Strategy strategy) {
  // Keep the decision-remark channel on so every scheduling/fusion choice
  // made while building variants lands in decision_summary_json().
  support::Tracer::instance().set_remarks_enabled(true);
  Variant v;
  {
    support::PhaseTimer timer("parse");
    v.scop = std::make_shared<ir::Scop>(suite::parse(b));
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::optional<ddg::DependenceGraph> analyzed;
  {
    support::PhaseTimer timer("deps");
    analyzed = ddg::DependenceGraph::analyze(*v.scop);
  }
  const auto& dg = *analyzed;
  {
    support::PhaseTimer timer("schedule");
    if (strategy == Strategy::kBaseline) {
      v.schedule = sched::identity_schedule(*v.scop);
      sched::annotate_dependences(v.schedule, dg);
    } else {
      fusion::FusionModel m = fusion::FusionModel::kWisefuse;
      switch (strategy) {
        case Strategy::kWisefuse:
          m = fusion::FusionModel::kWisefuse;
          break;
        case Strategy::kSmartfuse:
          m = fusion::FusionModel::kSmartfuse;
          break;
        case Strategy::kNofuse:
          m = fusion::FusionModel::kNofuse;
          break;
        case Strategy::kMaxfuse:
          m = fusion::FusionModel::kMaxfuse;
          break;
        case Strategy::kBaseline:
          break;
      }
      auto policy = fusion::make_policy(m);
      v.schedule = sched::compute_schedule(*v.scop, dg, *policy);
    }
  }
  {
    support::PhaseTimer timer("codegen");
    v.ast = codegen::generate_ast(*v.scop, v.schedule);
  }
  v.schedule_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return v;
}

/// Remark/span summary from the tracer: total counts plus remarks broken
/// down by category (deps / sched / fusion), so BENCH_*.json records say
/// how many decisions each layer reported, not just how long it took.
inline std::string decision_summary_json() {
  const support::Tracer& tracer = support::Tracer::instance();
  std::map<std::string, std::size_t> by_category;
  for (const support::Remark& r : tracer.remarks()) ++by_category[r.category];
  std::string s = "{\"remarks\": " + std::to_string(tracer.num_remarks()) +
                  ", \"spans\": " + std::to_string(tracer.num_spans()) +
                  ", \"remarks_by_category\": {";
  bool first = true;
  for (const auto& [category, n] : by_category) {
    if (!first) s += ", ";
    first = false;
    s += "\"" + support::json_escape(category) + "\": " + std::to_string(n);
  }
  s += "}}";
  return s;
}

/// Verifier outcome counts (src/verify) in the exact shape the paper's
/// self-checking story needs archived next to timings: how much was
/// proved and whether anything failed.
inline std::string verify_summary_json() {
  const support::MetricsRegistry& st = support::current_metrics();
  return "{\"checked_deps\": " +
         std::to_string(st.get(support::Counter::kVerifyCheckedDeps)) +
         ", \"violations\": " +
         std::to_string(st.get(support::Counter::kVerifyViolations)) +
         ", \"race_checks\": " +
         std::to_string(st.get(support::Counter::kVerifyRaceChecks)) + "}";
}

/// Linter outcome counts (src/analysis) for BENCH_*.json records:
/// how much was checked and what it found.
inline std::string lint_summary_json() {
  const support::MetricsRegistry& st = support::current_metrics();
  return "{\"checked_accesses\": " +
         std::to_string(st.get(support::Counter::kLintCheckedAccesses)) +
         ", \"value_flows\": " +
         std::to_string(st.get(support::Counter::kLintValueFlows)) +
         ", \"findings\": " +
         std::to_string(st.get(support::Counter::kLintFindings)) +
         ", \"errors\": " +
         std::to_string(st.get(support::Counter::kLintErrors)) + "}";
}

/// Budget outcome counts (src/support/budget): per-site fuel spend plus
/// how often the pipeline exhausted, was fault-injected, downgraded, or
/// over-approximated a dependence. All zero on unbudgeted runs, so
/// archived records say whether a timing came from a degraded pipeline.
inline std::string budget_summary_json() {
  const support::MetricsRegistry& st = support::current_metrics();
  return "{\"fuel_lp_solve\": " +
         std::to_string(st.get(support::Counter::kBudgetFuelLpSolve)) +
         ", \"fuel_fme_project\": " +
         std::to_string(st.get(support::Counter::kBudgetFuelFmeProject)) +
         ", \"fuel_dep_pair\": " +
         std::to_string(st.get(support::Counter::kBudgetFuelDepPair)) +
         ", \"fuel_pluto_level\": " +
         std::to_string(st.get(support::Counter::kBudgetFuelPlutoLevel)) +
         ", \"fuel_fusion_model\": " +
         std::to_string(st.get(support::Counter::kBudgetFuelFusionModel)) +
         ", \"fuel_jit_cc\": " +
         std::to_string(st.get(support::Counter::kBudgetFuelJitCc)) +
         ", \"exhaustions\": " +
         std::to_string(st.get(support::Counter::kBudgetExhaustions)) +
         ", \"injected_faults\": " +
         std::to_string(st.get(support::Counter::kBudgetInjectedFaults)) +
         ", \"downgrades\": " +
         std::to_string(st.get(support::Counter::kBudgetDowngrades)) +
         ", \"assumed_deps\": " +
         std::to_string(st.get(support::Counter::kBudgetAssumedDeps)) + "}";
}

/// Int64 fast-lane outcome counts (lp/fastlane.h): solves and FM row
/// combinations served by the integer lane vs fallen back to the exact
/// Rational path, warm-start acceptance, and arena storage footprint.
/// Archived next to timings because a fast-lane speedup claim is only
/// meaningful when the record shows the lane actually served the solves.
inline std::string fastlane_summary_json() {
  const support::MetricsRegistry& st = support::current_metrics();
  const i64 solves = st.get(support::Counter::kFastlaneSolves);
  const i64 fallbacks = st.get(support::Counter::kFastlaneFallbacks);
  const double rate =
      solves + fallbacks > 0
          ? 100.0 * static_cast<double>(solves) /
                static_cast<double>(solves + fallbacks)
          : 0.0;
  return "{\"solves\": " + std::to_string(solves) +
         ", \"fallbacks\": " + std::to_string(fallbacks) +
         ", \"rate_percent\": " + std::to_string(rate) +
         ", \"fme_rows\": " +
         std::to_string(st.get(support::Counter::kFastlaneFmeRows)) +
         ", \"fme_fallbacks\": " +
         std::to_string(st.get(support::Counter::kFastlaneFmeFallbacks)) +
         ", \"warm_hits\": " +
         std::to_string(st.get(support::Counter::kFastlaneWarmHits)) +
         ", \"warm_misses\": " +
         std::to_string(st.get(support::Counter::kFastlaneWarmMisses)) +
         ", \"arena_bytes\": " +
         std::to_string(st.get(support::Counter::kFastlaneArenaBytes)) + "}";
}

/// Accumulated solver work (counters + phase wall times) as JSON, for
/// embedding in BENCH_*.json records. Includes the decision summary and
/// the verifier, linter, budget, and fast-lane outcome counts.
inline std::string solver_stats_json() {
  std::string s = support::current_metrics().to_json();
  s.insert(s.size() - 1, ", \"decisions\": " + decision_summary_json() +
                             ", \"verify\": " + verify_summary_json() +
                             ", \"lint\": " + lint_summary_json() +
                             ", \"budget\": " + budget_summary_json() +
                             ", \"fastlane\": " + fastlane_summary_json());
  return s;
}

/// Modeled 8-core evaluation at the benchmark's bench_params.
inline machine::ModelReport model_variant(const suite::Benchmark& b,
                                          const Variant& v,
                                          const machine::MachineConfig& cfg = {}) {
  exec::ArrayStore store(*v.scop, b.bench_params);
  suite::init_store(store);
  return machine::evaluate(*v.ast, store, cfg);
}

/// Single-thread wall-clock of the JIT-compiled variant (median of
/// `reps`), in seconds; nullopt if no system compiler.
inline std::optional<double> time_variant_jit(const suite::Benchmark& b,
                                              const Variant& v, int reps = 3) {
  if (!exec::jit_available()) return std::nullopt;
  exec::JitOptions opts;
  opts.openmp = false;  // single core in this container; measure reuse
  std::string err;
  auto kernel = exec::JitKernel::compile(
      codegen::emit_c(*v.ast, *v.scop), "pf_kernel", opts, &err);
  if (!kernel) {
    std::cerr << "JIT failed for " << b.name << ": " << err << "\n";
    return std::nullopt;
  }
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    exec::ArrayStore store(*v.scop, b.bench_params);
    suite::init_store(store);
    const auto t0 = std::chrono::steady_clock::now();
    kernel->run(store);
    times.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

inline double geometric_mean(const std::vector<double>& xs) {
  double acc = 0;
  for (const double x : xs) acc += std::log(x);
  return std::exp(acc / static_cast<double>(xs.size()));
}

}  // namespace pf::bench
