// Shared plumbing for the benchmark harness: run a suite benchmark under a
// fusion strategy, evaluate it on the modeled 8-core machine, optionally
// JIT-compile and time it, and print paper-style tables.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <memory>
#include <optional>
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
/// wall times accumulate next to the solver counters.
inline Variant build_variant(const suite::Benchmark& b, Strategy strategy) {
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
