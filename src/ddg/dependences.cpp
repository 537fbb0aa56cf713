#include "ddg/dependences.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "support/arena.h"
#include "support/budget.h"
#include "support/metrics.h"
#include "support/threadpool.h"
#include "support/trace.h"

namespace pf::ddg {

const char* to_string(DepKind k) {
  switch (k) {
    case DepKind::kFlow:
      return "flow";
    case DepKind::kAnti:
      return "anti";
    case DepKind::kOutput:
      return "output";
    case DepKind::kInput:
      return "input";
  }
  return "?";
}

poly::AffineExpr Dependence::lift_src(const poly::AffineExpr& e) const {
  PF_CHECK(e.dims() == src_dim + num_params);
  std::vector<std::size_t> map(e.dims());
  for (std::size_t k = 0; k < src_dim; ++k) map[k] = k;
  for (std::size_t q = 0; q < num_params; ++q)
    map[src_dim + q] = src_dim + dst_dim + q;
  return e.remap(src_dim + dst_dim + num_params, map);
}

poly::AffineExpr Dependence::lift_dst(const poly::AffineExpr& e) const {
  PF_CHECK(e.dims() == dst_dim + num_params);
  std::vector<std::size_t> map(e.dims());
  for (std::size_t k = 0; k < dst_dim; ++k) map[k] = src_dim + k;
  for (std::size_t q = 0; q < num_params; ++q)
    map[dst_dim + q] = src_dim + dst_dim + q;
  return e.remap(src_dim + dst_dim + num_params, map);
}

namespace {

DepKind classify(bool src_write, bool dst_write) {
  if (src_write && dst_write) return DepKind::kOutput;
  if (src_write) return DepKind::kFlow;
  if (dst_write) return DepKind::kAnti;
  return DepKind::kInput;
}

}  // namespace

namespace {

// One statement pair's analysis outcome. `degraded` means the whole pair
// fell back to the conservative over-approximation (every candidate
// polyhedron assumed non-empty); individual deps can also be `assumed`
// when only their own emptiness test was inconclusive.
struct PairResult {
  std::vector<Dependence> deps;
  bool degraded = false;
  std::string cause;          // BudgetExceeded::cause() token
  std::size_t assumed = 0;    // deps with .assumed set
};

// The candidate enumeration shared by the exact and the degraded path.
// With assume_all, emptiness tests are skipped and every structurally
// satisfiable candidate becomes an assumed dependence.
std::vector<Dependence> enumerate_pair_deps(const ir::Scop& scop,
                                            std::size_t si, std::size_t sj,
                                            bool assume_all,
                                            std::size_t* polyhedra_tested) {
  const std::size_t p = scop.num_params();
  const ir::Statement& a = scop.statement(si);
  const ir::Statement& b = scop.statement(sj);
  const std::size_t common = scop.common_loop_depth(a, b);
  const std::size_t ms = a.dim(), mt = b.dim();
  const std::size_t total = ms + mt + p;
  std::vector<Dependence> found;

  // Shared building blocks for every access pair of this statement
  // pair: embedded domains + context.
  poly::IntegerSet base(total);
  {
    Dependence proto;  // only for the lift helpers
    proto.src_dim = ms;
    proto.dst_dim = mt;
    proto.num_params = p;
    for (const poly::Constraint& c : a.domain().constraints())
      base.add_constraint(
          poly::Constraint{proto.lift_src(c.expr), c.is_equality});
    for (const poly::Constraint& c : b.domain().constraints())
      base.add_constraint(
          poly::Constraint{proto.lift_dst(c.expr), c.is_equality});
    for (const poly::Constraint& c : scop.context().constraints()) {
      std::vector<std::size_t> map(p);
      for (std::size_t q = 0; q < p; ++q) map[q] = ms + mt + q;
      base.add_constraint(
          poly::Constraint{c.expr.remap(total, map), c.is_equality});
    }
  }

  for (std::size_t xa = 0; xa < a.accesses().size(); ++xa) {
    for (std::size_t xb = 0; xb < b.accesses().size(); ++xb) {
      const ir::Access& ax = a.accesses()[xa];
      const ir::Access& bx = b.accesses()[xb];
      if (ax.array_id != bx.array_id) continue;
      const DepKind kind = classify(ax.is_write, bx.is_write);
      if (kind == DepKind::kInput) {
        if (si == sj) continue;  // self-reuse adds nothing
      }

      Dependence proto;
      proto.src_dim = ms;
      proto.dst_dim = mt;
      proto.num_params = p;

      poly::IntegerSet access_eq(total);
      for (std::size_t d = 0; d < ax.subscripts.size(); ++d)
        access_eq.add_constraint(poly::Constraint::eq(
            proto.lift_src(ax.subscripts[d]),
            proto.lift_dst(bx.subscripts[d])));

      for (std::size_t depth = 0; depth <= common; ++depth) {
        // Loop-independent case requires textual precedence.
        if (depth == common && a.index() >= b.index()) continue;

        poly::IntegerSet dep_poly = base;
        dep_poly.intersect(access_eq);
        for (std::size_t l = 0; l < depth; ++l)
          dep_poly.add_constraint(poly::Constraint::eq(
              poly::AffineExpr::var(total, l),
              poly::AffineExpr::var(total, ms + l)));
        if (depth < common) {
          // s[depth] < t[depth].
          dep_poly.add_constraint(poly::Constraint::ge0(
              poly::AffineExpr::var(total, ms + depth) -
              poly::AffineExpr::var(total, depth) -
              poly::AffineExpr::constant(total, 1)));
        }
        support::count(support::Counter::kDepPolyhedraBuilt);
        ++*polyhedra_tested;
        bool assumed = false;
        if (assume_all) {
          if (dep_poly.trivially_empty()) continue;
          assumed = true;
        } else {
          support::Budget* budget = support::current_budget();
          bool maybe_nonempty = false;
          try {
            support::budget_charge(support::BudgetSite::kDepPair);
            // A conservative is_empty (budget ran out *inside* the solve)
            // returns false after raising a fault; the fault-count delta
            // is how we know this candidate is assumed, not proven.
            const i64 faults_before =
                budget != nullptr ? budget->faults() : 0;
            maybe_nonempty = !dep_poly.is_empty();
            assumed = budget != nullptr && budget->faults() != faults_before;
          } catch (const support::BudgetExceeded&) {
            // Fuel ran out at the per-candidate charge itself: keep the
            // candidate unless it is structurally contradictory.
            maybe_nonempty = !dep_poly.trivially_empty();
            assumed = maybe_nonempty;
          }
          if (!maybe_nonempty) continue;
        }

        Dependence dep = proto;
        dep.src = si;
        dep.dst = sj;
        dep.src_access = xa;
        dep.dst_access = xb;
        dep.kind = kind;
        dep.depth = depth;
        dep.assumed = assumed;
        dep.poly = std::move(dep_poly);
        found.push_back(std::move(dep));
      }
    }
  }
  return found;
}

// All dependences of one (src, dst) statement pair, in the serial
// discovery order (access pair major, depth minor), ids unassigned.
// Pairs share nothing -- each candidate polyhedron's ILP emptiness test
// is independent -- so pairs are the unit of parallelism. `pair_ordinal`
// is the deterministic linear pair index (si * n + sj): the dep_pair
// fault-injection unit, stable at every --jobs.
PairResult analyze_pair(const ir::Scop& scop, std::size_t si, std::size_t sj,
                        std::size_t pair_ordinal) {
  support::count(support::Counter::kDepPairsAnalyzed);
  const auto t0 = std::chrono::steady_clock::now();
  // The fast-lane simplex tableaux of every solve under this pair come
  // from the thread's arena; releasing per pair puts a hard cap on the
  // storage one pathological pair can pin (the release-to-empty trim).
  support::ArenaScope arena_scope(
      support::Arena::thread_local_instance());
  support::TraceSpan span("deps", "analyze_pair");
  if (span.active()) {
    span.attr("src", scop.statement(si).name());
    span.attr("dst", scop.statement(sj).name());
  }
  std::size_t polyhedra_tested = 0;
  PairResult out;
  try {
    support::budget_op_at(support::BudgetSite::kDepPair,
                          static_cast<i64>(pair_ordinal));
    out.deps = enumerate_pair_deps(scop, si, sj, /*assume_all=*/false,
                                   &polyhedra_tested);
  } catch (const support::BudgetExceeded& e) {
    // Recovery boundary: the whole pair degrades to the conservative
    // over-approximation. Runs with the budget suspended -- the rebuild
    // must always complete.
    out.degraded = true;
    out.cause = e.cause();
    out.deps.clear();
    support::BudgetSuspend suspend;
    out.deps = enumerate_pair_deps(scop, si, sj, /*assume_all=*/true,
                                   &polyhedra_tested);
  }
  for (const Dependence& dep : out.deps)
    if (dep.assumed) ++out.assumed;
  if (span.active()) {
    span.attr("polyhedra_tested", static_cast<i64>(polyhedra_tested));
    span.attr("deps_found", static_cast<i64>(out.deps.size()));
  }
  support::observe(support::Hist::kDepPairMicros,
                   std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
  return out;
}

}  // namespace

DependenceGraph DependenceGraph::analyze(const ir::Scop& scop,
                                         const AnalysisOptions& options) {
  support::TraceSpan span("deps", "analyze");
  DependenceGraph g;
  g.scop_ = &scop;
  const std::size_t n = scop.num_statements();
  g.adj_.assign(n, std::vector<bool>(n, false));
  g.reuse_.assign(n, std::vector<bool>(n, false));

  // Fan the statement-pair loop out across the pool (jobs == 1 runs
  // inline on this thread: the exact old serial path), then merge the
  // per-pair results in (si, sj) order. Ids are assigned during the
  // deterministic merge, so the resulting graph -- order, ids, polyhedra
  // -- is byte-identical at every thread count.
  std::vector<PairResult> per_pair(n * n);
  const std::size_t jobs =
      options.jobs != 0 ? options.jobs : support::default_jobs();

  // Budget determinism: a shared fuel counter raced by the workers would
  // make *which* pair exhausts first depend on thread scheduling. Instead
  // each pair gets its own sub-budget with a fixed fuel allowance
  // (decided before the loop) and fresh injection ordinals; the spend is
  // merged back serially afterwards. Exhaustion is then a per-pair,
  // order-independent fact -- byte-identical at every --jobs.
  support::Budget* root = support::current_budget();
  std::vector<support::Budget> task_budgets;
  if (root != nullptr) {
    const i64 allowance = root->task_allowance(n * n);
    task_budgets.reserve(n * n);
    for (std::size_t pair = 0; pair < n * n; ++pair)
      task_budgets.push_back(root->make_task_budget(allowance));
  }
  {
    support::ThreadPool pool(std::min(jobs, n * n));
    pool.parallel_for(0, n * n, [&](std::size_t pair) {
      support::BudgetScope scope(root != nullptr ? &task_budgets[pair]
                                                 : nullptr);
      per_pair[pair] = analyze_pair(scop, pair / n, pair % n, pair);
    });
  }
  if (root != nullptr)
    for (const support::Budget& task : task_budgets) root->absorb(task);

  std::size_t next_id = 0;
  for (std::size_t pair = 0; pair < n * n; ++pair) {
    const std::size_t si = pair / n, sj = pair % n;
    PairResult& pr = per_pair[pair];
    // Budget outcomes are reported from this serial merge, in pair order,
    // so remarks and counters are deterministic at every --jobs.
    if (pr.degraded) {
      support::count(support::Counter::kBudgetDowngrades);
      if (support::Tracer::remarks_on())
        support::remark("budget",
                        "dependence pair degraded to over-approximation",
                        {{"src", scop.statement(si).name()},
                         {"dst", scop.statement(sj).name()},
                         {"cause", pr.cause},
                         {"assumed_deps", std::to_string(pr.deps.size())}});
    } else if (pr.assumed > 0 && support::Tracer::remarks_on()) {
      support::remark("budget", "dependences conservatively assumed",
                      {{"src", scop.statement(si).name()},
                       {"dst", scop.statement(sj).name()},
                       {"assumed_deps", std::to_string(pr.assumed)}});
    }
    if (pr.assumed > 0)
      support::count(support::Counter::kBudgetAssumedDeps,
                     static_cast<i64>(pr.assumed));
    for (Dependence& dep : pr.deps) {
      dep.id = next_id++;
      if (dep.kind == DepKind::kInput) {
        g.reuse_[si][sj] = g.reuse_[sj][si] = true;
        g.rar_.push_back(std::move(dep));
      } else {
        g.adj_[si][sj] = true;
        g.reuse_[si][sj] = g.reuse_[sj][si] = true;
        g.deps_.push_back(std::move(dep));
      }
    }
  }
  if (span.active()) {
    span.attr("statements", static_cast<i64>(n));
    span.attr("deps", static_cast<i64>(g.deps_.size()));
    span.attr("rar_deps", static_cast<i64>(g.rar_.size()));
  }
  // Emitted from the serial merge, so the remark stream is identical at
  // every --jobs count.
  if (support::Tracer::remarks_on())
    support::remark("deps", "dependence analysis complete",
                    {{"statements", std::to_string(n)},
                     {"deps", std::to_string(g.deps_.size())},
                     {"rar_deps", std::to_string(g.rar_.size())}});
  return g;
}

bool DependenceGraph::has_edge(std::size_t src, std::size_t dst) const {
  return adj_.at(src).at(dst);
}

bool DependenceGraph::has_reuse_edge(std::size_t a, std::size_t b) const {
  return reuse_.at(a).at(b);
}

std::vector<Edge> DependenceGraph::stmt_edges() const {
  std::vector<Edge> edges;
  const std::size_t n = adj_.size();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (adj_[i][j]) edges.emplace_back(i, j);
  return edges;
}

SccResult DependenceGraph::sccs() const {
  return kosaraju_sccs(scop_->num_statements(), stmt_edges());
}

std::string DependenceGraph::to_string() const {
  std::ostringstream os;
  auto emit = [&](const Dependence& d) {
    os << "  " << scop_->statement(d.src).name() << " -> "
       << scop_->statement(d.dst).name() << " [" << ddg::to_string(d.kind)
       << ", array " << scop_->array(scop_->statement(d.src)
                                         .accesses()[d.src_access]
                                         .array_id)
                            .name
       << ", depth " << d.depth << (d.assumed ? ", assumed" : "")
       << "]\n";
  };
  os << "dependences (" << deps_.size() << "):\n";
  for (const Dependence& d : deps_) emit(d);
  os << "input dependences (" << rar_.size() << "):\n";
  for (const Dependence& d : rar_) emit(d);
  return os.str();
}

}  // namespace pf::ddg
