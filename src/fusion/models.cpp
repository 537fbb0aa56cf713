#include "fusion/models.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "sched/analysis.h"
#include "support/budget.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace pf::fusion {

const char* to_string(FusionModel m) {
  switch (m) {
    case FusionModel::kWisefuse:
      return "wisefuse";
    case FusionModel::kSmartfuse:
      return "smartfuse";
    case FusionModel::kNofuse:
      return "nofuse";
    case FusionModel::kMaxfuse:
      return "maxfuse";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Algorithm 1: the wisefuse pre-fusion schedule.
// ---------------------------------------------------------------------------

std::vector<std::size_t> wisefuse_prefusion_order(
    const ir::Scop& scop, const ddg::DependenceGraph& dg,
    const ddg::SccResult& sccs, const WisefuseOptions& options) {
  support::TraceSpan span("fusion", "wisefuse_prefusion_order");
  if (span.active()) span.attr("sccs", static_cast<i64>(sccs.num_sccs()));
  // One fusion_model operation per pre-fusion-order computation (the
  // --inject unit); Algorithm 1's statement scan burns fuel below.
  support::budget_op(support::BudgetSite::kFusionModel);
  support::budget_charge(support::BudgetSite::kFusionModel);
  const std::size_t n = scop.num_statements();
  if (!options.reorder) {
    // Heuristic 2 disabled entirely: keep the DFS/topological order.
    std::vector<std::size_t> identity(sccs.num_sccs());
    std::iota(identity.begin(), identity.end(), 0);
    return identity;
  }

  auto reuse = [&](std::size_t a, std::size_t b) {
    if (options.use_rar) return dg.has_reuse_edge(a, b);
    return dg.has_edge(a, b) || dg.has_edge(b, a);
  };

  std::vector<bool> visited(n, false);
  std::vector<std::size_t> order;  // position -> scc id
  order.reserve(sccs.num_sccs());

  auto scc_of = [&](std::size_t s) {
    return static_cast<std::size_t>(sccs.scc_of[s]);
  };

  // SCC_t's precedence is satisfiable if no statement of it depends on an
  // unvisited statement outside the SCC.
  auto precedence_ok = [&](std::size_t scc) {
    for (const std::size_t t : sccs.members[scc]) {
      for (std::size_t sp = 0; sp < n; ++sp) {
        if (visited[sp] || scc_of(sp) == scc) continue;
        if (dg.has_edge(sp, t)) return false;
      }
    }
    return true;
  };

  auto visit_scc = [&](std::size_t scc, std::vector<std::size_t>* fusable) {
    for (const std::size_t t : sccs.members[scc]) {
      visited[t] = true;
      if (fusable != nullptr) fusable->push_back(t);
    }
    order.push_back(scc);
  };

  // Emit every unvisited predecessor SCC of `scc` (recursively) before
  // `scc` itself. Carried dependences can run from a textually later
  // statement to an earlier one, so a program-order seed may have
  // unvisited ancestors; seeding it first would violate the precedence
  // constraint.
  const std::function<void(std::size_t)> visit_with_preds =
      [&](std::size_t scc) {
        for (;;) {
          std::size_t pred = SIZE_MAX;
          for (std::size_t sp = 0; sp < n && pred == SIZE_MAX; ++sp) {
            if (visited[sp] || scc_of(sp) == scc) continue;
            for (const std::size_t t : sccs.members[scc]) {
              if (dg.has_edge(sp, t)) {
                pred = scc_of(sp);
                break;
              }
            }
          }
          if (pred == SIZE_MAX) break;
          visit_with_preds(pred);
        }
        if (!visited[sccs.members[scc].front()]) visit_scc(scc, nullptr);
      };

  // Walk statements in program order (Heuristic 2).
  for (std::size_t s = 0; s < n; ++s) {
    if (visited[s]) continue;
    support::budget_charge(support::BudgetSite::kFusionModel);
    std::vector<std::size_t> fusable;
    if (!precedence_ok(scc_of(s))) {
      // Flush unvisited ancestors (each as its own pre-fusion entry),
      // then seed the group from s as usual.
      const std::size_t seed_scc = scc_of(s);
      for (;;) {
        std::size_t pred = SIZE_MAX;
        for (std::size_t sp = 0; sp < n && pred == SIZE_MAX; ++sp) {
          if (visited[sp] || scc_of(sp) == seed_scc) continue;
          for (const std::size_t t : sccs.members[seed_scc]) {
            if (dg.has_edge(sp, t)) {
              pred = scc_of(sp);
              break;
            }
          }
        }
        if (pred == SIZE_MAX) break;
        visit_with_preds(pred);
      }
    }
    visit_scc(scc_of(s), &fusable);

    // Greedily pull in unvisited same-dimensionality statements (whole
    // SCCs) that have reuse with the fusable set and whose precedence
    // constraint is satisfied -- again in program order. With the remark
    // channel on, every candidate gets a decision remark: its reuse score
    // (number of reusing statement pairs against the fusable set) and the
    // cost-model verdict.
    const bool explain = support::Tracer::remarks_on();
    const std::size_t dim_s = scop.statement(s).dim();
    if (explain)
      support::remark("fusion", "seed fusion group",
                      {{"seed", scop.statement(s).name()},
                       {"dim", std::to_string(dim_s)}});
    for (std::size_t t = 0; t < n; ++t) {
      if (visited[t]) continue;
      const std::size_t scc_t = scc_of(t);
      auto verdict = [&](const char* v, std::size_t reuse_pairs) {
        if (!explain) return;
        std::vector<std::pair<std::string, std::string>> attrs = {
            {"candidate", scop.statement(t).name()},
            {"seed", scop.statement(s).name()},
            {"candidate_dim", std::to_string(scop.statement(t).dim())},
            {"reuse_score", std::to_string(reuse_pairs)},
            {"verdict", v}};
        // With a profitability oracle given (--analyze), quantify the
        // candidate: exact distinct cells shared between the fusable set
        // and SCC_t, plus the candidate's own self-reuse (cells two
        // distinct instances of one statement revisit -- the accumulator
        // of a reduction) -- the data fusion would keep hot.
        if (const ProfitabilityOracle& oracle = options.oracle) {
          i64 shared = 0;
          bool unknown = false;
          const auto add = [&](i64 cells) {
            if (cells < 0)
              unknown = true;
            else
              shared += cells;
          };
          for (const std::size_t i : fusable)
            for (const std::size_t j : sccs.members[scc_t])
              add(oracle(i, j));
          for (const std::size_t j : sccs.members[scc_t])
            add(oracle(j, j));
          attrs.emplace_back("shared_cells",
                             unknown ? "unknown" : std::to_string(shared));
        }
        support::remark("fusion", "fusion candidate", attrs);
      };
      if (options.require_same_dim && scop.statement(t).dim() != dim_s) {
        verdict("cut: dimensionality mismatch", 0);
        continue;
      }
      // Reuse test: some fusable statement shares a (RAR or real)
      // dependence with some statement of SCC_t. The explain path counts
      // every reusing pair (the reuse score); the fast path stops at the
      // first.
      std::size_t reuse_pairs = 0;
      for (const std::size_t i : fusable) {
        for (const std::size_t j : sccs.members[scc_t]) {
          if (reuse(i, j)) {
            ++reuse_pairs;
            if (!explain) break;
          }
        }
        if (reuse_pairs != 0 && !explain) break;
      }
      if (reuse_pairs == 0) {
        verdict("cut: no reuse", 0);
        continue;
      }
      if (!precedence_ok(scc_t)) {
        verdict("cut: precedence violated", reuse_pairs);
        continue;
      }
      verdict("fused", reuse_pairs);
      visit_scc(scc_t, &fusable);
    }
  }
  PF_CHECK(order.size() == sccs.num_sccs());
  return order;
}

// ---------------------------------------------------------------------------
// Policies.
// ---------------------------------------------------------------------------

namespace {

// Pluto's pre-fusion schedule: the order Kosaraju's DFS discovered the
// SCCs in. It follows dependence chains depth-first, interleaving
// dimensionalities -- the suboptimality the paper's Section 2.3 calls out.
std::vector<std::size_t> dfs_order(const ddg::SccResult& sccs) {
  if (sccs.discovery_order.size() == sccs.num_sccs())
    return sccs.discovery_order;
  std::vector<std::size_t> order(sccs.num_sccs());
  std::iota(order.begin(), order.end(), 0);
  return order;
}

class SmartfusePolicy final : public sched::FusionPolicy {
 public:
  std::string name() const override { return "smartfuse"; }
  std::vector<std::size_t> prefusion_order(
      const ir::Scop&, const ddg::DependenceGraph&,
      const ddg::SccResult& sccs) override {
    support::budget_op(support::BudgetSite::kFusionModel);
    support::budget_charge(support::BudgetSite::kFusionModel);
    return dfs_order(sccs);
  }
  std::vector<i64> cut_on_infeasible(const sched::CutContext& ctx) override {
    return sched::cut_dim_based(ctx);
  }
};

class NofusePolicy final : public sched::FusionPolicy {
 public:
  std::string name() const override { return "nofuse"; }
  std::vector<std::size_t> prefusion_order(
      const ir::Scop&, const ddg::DependenceGraph&,
      const ddg::SccResult& sccs) override {
    // Canonical ids are already a program-order-respecting topological
    // order; nofuse keeps the nests in source order like the paper's
    // figures.
    support::budget_op(support::BudgetSite::kFusionModel);
    support::budget_charge(support::BudgetSite::kFusionModel);
    std::vector<std::size_t> order(sccs.num_sccs());
    std::iota(order.begin(), order.end(), 0);
    return order;
  }
  std::vector<i64> initial_cut(const sched::CutContext& ctx) override {
    return sched::cut_all(ctx.order->size());
  }
  std::vector<i64> cut_on_infeasible(const sched::CutContext& ctx) override {
    return sched::cut_all(ctx.order->size());
  }
};

class MaxfusePolicy final : public sched::FusionPolicy {
 public:
  std::string name() const override { return "maxfuse"; }
  std::vector<std::size_t> prefusion_order(
      const ir::Scop&, const ddg::DependenceGraph&,
      const ddg::SccResult& sccs) override {
    support::budget_op(support::BudgetSite::kFusionModel);
    support::budget_charge(support::BudgetSite::kFusionModel);
    return dfs_order(sccs);
  }
  std::vector<i64> cut_on_infeasible(const sched::CutContext& ctx) override {
    // Smallest cut that makes progress: a single boundary separating at
    // least one active dependence.
    const std::size_t n = ctx.order->size();
    for (std::size_t b = 1; b < n; ++b) {
      const std::vector<i64> values = sched::cut_at_boundary(n, b);
      if (satisfies_some(ctx, values)) return values;
    }
    return sched::cut_all(n);  // degenerate; scheduler re-validates
  }

 private:
  static bool satisfies_some(const sched::CutContext& ctx,
                             const std::vector<i64>& values) {
    std::vector<std::size_t> pos_of_scc(ctx.order->size());
    for (std::size_t p = 0; p < ctx.order->size(); ++p)
      pos_of_scc[(*ctx.order)[p]] = p;
    for (const std::size_t dep_idx : *ctx.active_deps) {
      const ddg::Dependence& d = ctx.dg->deps()[dep_idx];
      const i64 vs = values[pos_of_scc[static_cast<std::size_t>(
          ctx.sccs->scc_of[d.src])]];
      const i64 vt = values[pos_of_scc[static_cast<std::size_t>(
          ctx.sccs->scc_of[d.dst])]];
      if (vs < vt) return true;
    }
    return false;
  }
};

class WisefusePolicy final : public sched::FusionPolicy {
 public:
  explicit WisefusePolicy(const WisefuseOptions& options)
      : options_(options) {}

  std::string name() const override { return "wisefuse"; }
  std::vector<std::size_t> prefusion_order(
      const ir::Scop& scop, const ddg::DependenceGraph& dg,
      const ddg::SccResult& sccs) override {
    return wisefuse_prefusion_order(scop, dg, sccs, options_);
  }
  std::vector<i64> cut_on_infeasible(const sched::CutContext& ctx) override {
    return sched::cut_dim_based(ctx);
  }
  bool enforce_outer_parallelism() const override {
    return options_.enforce_outer_parallelism;
  }

 private:
  WisefuseOptions options_;
};

}  // namespace

std::unique_ptr<sched::FusionPolicy> make_policy(FusionModel m) {
  switch (m) {
    case FusionModel::kWisefuse:
      return std::make_unique<WisefusePolicy>(WisefuseOptions{});
    case FusionModel::kSmartfuse:
      return std::make_unique<SmartfusePolicy>();
    case FusionModel::kNofuse:
      return std::make_unique<NofusePolicy>();
    case FusionModel::kMaxfuse:
      return std::make_unique<MaxfusePolicy>();
  }
  PF_FAIL("unknown fusion model");
}

std::unique_ptr<sched::FusionPolicy> make_wisefuse(const WisefuseOptions& o) {
  return std::make_unique<WisefusePolicy>(o);
}

sched::Schedule compute_schedule_degrading(const ir::Scop& scop,
                                           const ddg::DependenceGraph& dg,
                                           FusionModel model,
                                           const sched::SchedulerOptions& options,
                                           FusionModel* used,
                                           const ProfitabilityOracle& oracle) {
  // Cheaper models ask strictly less of the solver stack, so walking down
  // the chain converges; nofuse needs no cross-nest reasoning at all.
  std::vector<FusionModel> chain;
  switch (model) {
    case FusionModel::kWisefuse:
      chain = {FusionModel::kWisefuse, FusionModel::kSmartfuse,
               FusionModel::kNofuse};
      break;
    case FusionModel::kMaxfuse:
      chain = {FusionModel::kMaxfuse, FusionModel::kSmartfuse,
               FusionModel::kNofuse};
      break;
    case FusionModel::kSmartfuse:
      chain = {FusionModel::kSmartfuse, FusionModel::kNofuse};
      break;
    case FusionModel::kNofuse:
      chain = {FusionModel::kNofuse};
      break;
  }
  WisefuseOptions wisefuse;
  wisefuse.oracle = oracle;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    try {
      const std::unique_ptr<sched::FusionPolicy> policy =
          chain[i] == FusionModel::kWisefuse ? make_wisefuse(wisefuse)
                                             : make_policy(chain[i]);
      sched::Schedule sch = sched::compute_schedule(scop, dg, *policy, options);
      if (used != nullptr) *used = chain[i];
      return sch;
    } catch (const support::BudgetExceeded& e) {
      // Only fusion_model faults escape compute_schedule; every other
      // site already degraded inside the scheduler.
      support::count(support::Counter::kBudgetDowngrades);
      support::remark(
          "budget", "fusion model degraded",
          {{"from", to_string(chain[i])},
           {"to", i + 1 < chain.size() ? to_string(chain[i + 1]) : "identity"},
           {"site", e.site_name()},
           {"cause", e.cause()}});
    }
  }
  // Every model failed (e.g. zero fuel at the fusion_model site): the
  // original statement order is always legal.
  support::BudgetSuspend suspend;
  sched::Schedule fallback = sched::identity_schedule(scop);
  sched::annotate_dependences(fallback, dg);
  return fallback;
}

}  // namespace pf::fusion
