#include "analysis/reductions.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "ddg/dataflow.h"
#include "support/budget.h"
#include "support/error.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace pf::analysis {

namespace {

using ir::ReductionOp;

/// Flatten `e` as a chain of `op` applications, collecting the leaves
/// (maximal subtrees that are not themselves an `op` node).
void flatten_chain(const ir::ExprPtr& e, ReductionOp op,
                   std::vector<const ir::Expr*>* leaves) {
  using K = ir::Expr::Kind;
  const bool chain_node =
      (op == ReductionOp::kSum && e->kind == K::kBinary &&
       e->op == ir::BinOp::kAdd) ||
      (op == ReductionOp::kProd && e->kind == K::kBinary &&
       e->op == ir::BinOp::kMul);
  if (chain_node) {
    flatten_chain(e->lhs, op, leaves);
    flatten_chain(e->rhs, op, leaves);
    return;
  }
  const bool call_node =
      e->kind == K::kCall && e->args.size() == 2 &&
      ((op == ReductionOp::kMin && e->callee == "fmin") ||
       (op == ReductionOp::kMax && e->callee == "fmax"));
  if (call_node) {
    flatten_chain(e->args[0], op, leaves);
    flatten_chain(e->args[1], op, leaves);
    return;
  }
  leaves->push_back(e.get());
}

/// The leaf is a read of exactly the written cell: same array and
/// identical resolved affine subscripts.
bool is_self_access(const ir::Expr& leaf, const ir::Access& write) {
  return leaf.kind == ir::Expr::Kind::kAccess &&
         leaf.array_id == write.array_id &&
         leaf.subscripts_resolved == write.subscripts;
}

/// Any access of `array_id` anywhere under `e`?
bool touches_array(const ir::Expr* e, std::size_t array_id) {
  if (e->kind == ir::Expr::Kind::kAccess) return e->array_id == array_id;
  if (e->lhs && touches_array(e->lhs.get(), array_id)) return true;
  if (e->rhs && touches_array(e->rhs.get(), array_id)) return true;
  if (e->operand && touches_array(e->operand.get(), array_id)) return true;
  for (const ir::ExprPtr& a : e->args)
    if (touches_array(a.get(), array_id)) return true;
  return false;
}

bool match_reduction_op(const ir::Statement& s, ReductionOp op) {
  const ir::Access& w = s.write();
  std::vector<const ir::Expr*> leaves;
  flatten_chain(s.body(), op, &leaves);
  // A chain of at least two leaves (a lone self-read is a copy, not a
  // reduction), exactly one of which is the self-read of the written
  // cell, and no other leaf may touch the accumulator array at all --
  // `x[i] = x[i] + x[i-1]` or `x[i] = x[i] + x[i]` must not relax.
  if (leaves.size() < 2) return false;
  std::size_t self_reads = 0;
  for (const ir::Expr* leaf : leaves) {
    if (is_self_access(*leaf, w)) {
      ++self_reads;
    } else if (touches_array(leaf, w.array_id)) {
      return false;
    }
  }
  return self_reads == 1;
}

/// Depth up to which every disjunct of `flow` forces equal producer and
/// consumer iterators (delta_l == 0 for l < depth).
std::size_t flow_tie_depth(const ddg::ValueFlow& f) {
  const std::size_t limit = std::min(f.src_dim, f.dst_dim);
  for (std::size_t l = 0; l < limit; ++l) {
    const std::size_t dims = f.poly.dims();
    poly::AffineExpr delta = poly::AffineExpr::var(dims, f.src_dim + l) -
                             poly::AffineExpr::var(dims, l);
    for (const poly::IntegerSet& d : f.poly.disjuncts()) {
      support::budget_op(support::BudgetSite::kAnalysisReductions);
      poly::IntegerSet fwd = d;
      fwd.add_constraint(poly::Constraint::ge0(delta.plus_const(-1)));
      if (!fwd.is_empty()) return l;
      poly::IntegerSet bwd = d;
      bwd.add_constraint(poly::Constraint::ge0((-delta).plus_const(-1)));
      if (!bwd.is_empty()) return l;
    }
  }
  return limit;
}

}  // namespace

bool match_reduction(const ir::Statement& s, ReductionOp* op_out) {
  for (const ReductionOp op : {ReductionOp::kSum, ReductionOp::kProd,
                               ReductionOp::kMin, ReductionOp::kMax}) {
    if (match_reduction_op(s, op)) {
      if (op_out != nullptr) *op_out = op;
      return true;
    }
  }
  return false;
}

ReductionInfo analyze_reductions(const ir::Scop& scop,
                                 const ddg::DependenceGraph& dg,
                                 const ReductionOptions& options) {
  PF_CHECK_MSG(&dg.scop() == &scop, "dependence graph built for another scop");
  ReductionInfo info;

  // Budget faults raised inside poly queries are recovered conservatively
  // down in is_empty (the set is assumed non-empty, which only shrinks
  // our claims), so they never reach the degrading wrapper. Snapshot the
  // fault count so a recovered fault still surfaces as a remark.
  const support::Budget* budget = support::current_budget();
  const i64 faults_before = budget != nullptr ? budget->faults() : 0;
  const i64 injected_before =
      support::current_metrics().get(support::Counter::kBudgetInjectedFaults);

  // --- Reduction statements and their relaxable self-dependences. ---
  std::vector<int> op_of_stmt(scop.num_statements(), -1);
  for (std::size_t s = 0; s < scop.num_statements(); ++s) {
    support::budget_op(support::BudgetSite::kAnalysisReductions);
    ReductionOp op;
    if (!match_reduction(scop.statement(s), &op)) continue;
    op_of_stmt[s] = static_cast<int>(op);
    info.statements.push_back(
        {s, op, scop.statement(s).write().array_id, 0});
  }
  // dep_id is the *index* into dg.deps() -- the schedule's native
  // dependence domain (satisfied/carried bookkeeping is positional) --
  // not the global Dependence::id, which also numbers RAR deps.
  for (std::size_t i = 0; i < dg.deps().size(); ++i) {
    const ddg::Dependence& d = dg.deps()[i];
    if (!d.is_real() || d.src != d.dst) continue;
    if (op_of_stmt[d.src] < 0) continue;
    const auto op = static_cast<ReductionOp>(op_of_stmt[d.src]);
    info.relaxable.push_back(
        {i, d.src, dg.scop().statement(d.src).write().array_id, op});
    for (ReductionStatement& rs : info.statements)
      if (rs.stmt == d.src) ++rs.self_deps;
  }

  // --- Privatizable arrays, from value-based dataflow. ---
  if (options.privatization) {
    // The graph's shared build while the memo gate is open. A limiting
    // budget closes it, so this build is then charged and kept by no one.
    const std::shared_ptr<const ddg::Dataflow> df = dg.dataflow();
    const std::size_t na = scop.arrays().size();
    // Per array: smallest tie depth over its flows (SIZE_MAX = no flow
    // seen yet), and whether any read observes initial contents.
    std::vector<std::size_t> depth(na, SIZE_MAX);
    std::vector<bool> has_flow(na, false), tainted(na, false);
    for (const ddg::ValueFlow& f : df->flows) {
      const std::size_t a =
          scop.statement(f.dst).accesses()[f.dst_access].array_id;
      has_flow[a] = true;
      if (tainted[a] || depth[a] == 0) continue;
      depth[a] = std::min(depth[a], flow_tie_depth(f));
    }
    for (const ddg::ReadCover& c : df->covers) {
      const std::size_t a =
          scop.statement(c.stmt).accesses()[c.access].array_id;
      support::budget_op(support::BudgetSite::kAnalysisReductions);
      if (!c.uncovered.is_empty()) tainted[a] = true;
    }
    for (std::size_t a = 0; a < na; ++a) {
      if (!has_flow[a] || tainted[a]) continue;
      if (depth[a] == SIZE_MAX || depth[a] == 0) continue;
      info.privatizable.push_back({a, depth[a]});
    }
  }

  // --- Counters and remarks (serial, deterministic order). ---
  support::count(support::Counter::kReductionStatements,
                 static_cast<i64>(info.statements.size()));
  support::count(support::Counter::kReductionRelaxedDeps,
                 static_cast<i64>(info.relaxable.size()));
  support::count(support::Counter::kReductionPrivArrays,
                 static_cast<i64>(info.privatizable.size()));
  if (budget != nullptr && budget->faults() > faults_before) {
    // Some query degraded to a conservative answer (fewer claims, never
    // wrong ones). Surface the downgrade once so --explain shows why the
    // report is smaller than expected.
    support::count(support::Counter::kBudgetDowngrades);
    const bool injected =
        support::current_metrics().get(
            support::Counter::kBudgetInjectedFaults) > injected_before;
    if (support::Tracer::remarks_on())
      support::remark("budget",
                      "reduction analysis degraded to conservative answers",
                      {{"cause", injected ? "fault-injected"
                                          : "budget-exhausted"}});
  }
  if (support::Tracer::remarks_on()) {
    for (const ReductionStatement& rs : info.statements)
      support::remark(
          "reduction", "associative reduction",
          {{"stmt", scop.statement(rs.stmt).name()},
           {"op", ir::to_string(rs.op)},
           {"array", scop.array(rs.array_id).name},
           {"self_deps", std::to_string(rs.self_deps)}});
    for (const PrivatizableArray& pa : info.privatizable)
      support::remark("reduction", "privatizable array",
                      {{"array", scop.array(pa.array_id).name},
                       {"depth", std::to_string(pa.depth)}});
  }
  return info;
}

ReductionInfo analyze_reductions_degrading(const ir::Scop& scop,
                                           const ddg::DependenceGraph& dg,
                                           const ReductionOptions& options) {
  try {
    return analyze_reductions(scop, dg, options);
  } catch (const support::BudgetExceeded& e) {
    // Sound degradation: claim nothing, relax nothing. The scheduler
    // then treats every dependence as hard, exactly as --no-reductions.
    support::count(support::Counter::kBudgetDowngrades);
    if (support::Tracer::remarks_on())
      support::remark("reduction", "reduction analysis degraded to empty",
                      {{"cause", e.cause()}});
    ReductionInfo info;
    info.degraded = true;
    return info;
  }
}

std::string render_reductions_text(const ir::Scop& scop,
                                   const ddg::DependenceGraph& dg,
                                   const ReductionInfo& info) {
  std::ostringstream os;
  os << "reductions: " << scop.name() << "\n";
  if (info.degraded) os << "  (degraded: budget exhausted; nothing claimed)\n";
  if (info.statements.empty()) os << "  no reduction statements\n";
  for (const ReductionStatement& rs : info.statements)
    os << "  " << scop.statement(rs.stmt).name() << ": "
       << scop.array(rs.array_id).name << " op=" << ir::to_string(rs.op)
       << " self_deps=" << rs.self_deps << "\n";
  os << "  relaxable dependences: " << info.relaxable.size() << " of "
     << dg.deps().size() << "\n";
  if (!info.privatizable.empty()) {
    os << "  privatizable:";
    for (const PrivatizableArray& pa : info.privatizable)
      os << " " << scop.array(pa.array_id).name << "(depth=" << pa.depth
         << ")";
    os << "\n";
  }
  return os.str();
}

std::string render_reductions_json(const ir::Scop& scop,
                                   const ddg::DependenceGraph& dg,
                                   const ReductionInfo& info) {
  std::ostringstream os;
  os << "{\"reductions\": {\"scop\": \"" << scop.name() << "\", ";
  os << "\"degraded\": " << (info.degraded ? "true" : "false") << ", ";
  os << "\"statements\": [";
  for (std::size_t i = 0; i < info.statements.size(); ++i) {
    const ReductionStatement& rs = info.statements[i];
    if (i != 0) os << ", ";
    os << "{\"stmt\": \"" << scop.statement(rs.stmt).name() << "\", \"op\": \""
       << ir::to_string(rs.op) << "\", \"array\": \""
       << scop.array(rs.array_id).name << "\", \"self_deps\": " << rs.self_deps
       << "}";
  }
  os << "], \"relaxable_dep_ids\": [";
  for (std::size_t i = 0; i < info.relaxable.size(); ++i) {
    if (i != 0) os << ", ";
    os << info.relaxable[i].dep_id;
  }
  os << "], \"num_dependences\": " << dg.deps().size();
  os << ", \"privatizable\": [";
  for (std::size_t i = 0; i < info.privatizable.size(); ++i) {
    const PrivatizableArray& pa = info.privatizable[i];
    if (i != 0) os << ", ";
    os << "{\"array\": \"" << scop.array(pa.array_id).name
       << "\", \"depth\": " << pa.depth << "}";
  }
  os << "]}}\n";
  return os.str();
}

}  // namespace pf::analysis
