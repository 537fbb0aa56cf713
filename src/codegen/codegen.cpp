#include "codegen/codegen.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "support/budget.h"
#include "support/metrics.h"

namespace pf::codegen {

namespace {

struct LevelBounds {
  std::vector<BoundTerm> lowers, uppers;
  /// Raw projected constraints involving t_k, in the [q, params] space;
  /// used as per-statement guards when spans differ within a fused loop.
  std::vector<poly::AffineExpr> raw;
};

struct StmtInfo {
  std::vector<LevelBounds> bounds;            // per linear ordinal
  std::vector<poly::AffineExpr> iter_exprs;   // over [q, params] (numerators)
  IntVector iter_denoms;                      // iterator = expr / denom
};

std::string term_key(const BoundTerm& t) {
  std::ostringstream os;
  os << t.denom << "|" << t.expr.const_term();
  for (i64 c : t.expr.coeffs()) os << "," << c;
  return os.str();
}

void canonicalize(std::vector<BoundTerm>* terms) {
  std::sort(terms->begin(), terms->end(),
            [](const BoundTerm& a, const BoundTerm& b) {
              return term_key(a) < term_key(b);
            });
  terms->erase(std::unique(terms->begin(), terms->end()), terms->end());
}

class Generator {
 public:
  Generator(const ir::Scop& scop, const sched::Schedule& sch)
      : scop_(scop), sch_(sch) {
    for (std::size_t l = 0; l < sch_.num_levels(); ++l)
      if (sch_.level_linear[l]) {
        ordinal_of_level_[l] = linear_levels_.size();
        linear_levels_.push_back(l);
      }
    q_ = linear_levels_.size();
    p_ = scop_.num_params();
    for (std::size_t s = 0; s < scop_.num_statements(); ++s)
      infos_.push_back(analyze_statement(s));
  }

  AstPtr run() {
    std::vector<std::size_t> stmts(scop_.num_statements());
    for (std::size_t s = 0; s < stmts.size(); ++s) stmts[s] = s;
    guards_.assign(stmts.size(), {});
    AstPtr root = gen(0, stmts);
    bool dummy = false;
    mark_parallel(*root, &dummy);
    return root;
  }

 private:
  // --- per-statement analysis ----------------------------------------------

  StmtInfo analyze_statement(std::size_t s) {
    const ir::Statement& st = scop_.statement(s);
    const std::size_t m = st.dim();
    const std::size_t total = q_ + m + p_;

    // Transformed domain over [t (q), iters (m), params (p)].
    poly::IntegerSet full(total);
    {
      std::vector<std::size_t> map(m + p_);
      for (std::size_t k = 0; k < m; ++k) map[k] = q_ + k;
      for (std::size_t j = 0; j < p_; ++j) map[m + j] = q_ + m + j;
      for (const poly::Constraint& c : st.domain().constraints())
        full.add_constraint(
            poly::Constraint{c.expr.remap(total, map), c.is_equality});
      for (const poly::Constraint& c : scop_.context().constraints()) {
        std::vector<std::size_t> pmap(p_);
        for (std::size_t j = 0; j < p_; ++j) pmap[j] = q_ + m + j;
        full.add_constraint(
            poly::Constraint{c.expr.remap(total, pmap), c.is_equality});
      }
      for (std::size_t k = 0; k < q_; ++k) {
        const poly::AffineExpr& row = sch_.rows[s][linear_levels_[k]];
        poly::AffineExpr eq = poly::AffineExpr::var(total, k) -
                              row.remap(total, map);
        full.add_constraint(poly::Constraint::eq0(std::move(eq)));
      }
    }

    // Project out the original iterators -> [t (q), params].
    std::vector<bool> remove(total, false);
    for (std::size_t k = 0; k < m; ++k) remove[q_ + k] = true;
    poly::IntegerSet proj = full.eliminate_dims(remove);
    PF_CHECK_MSG(!proj.trivially_empty(),
                 "transformed domain of " << st.name() << " is empty");
    proj.remove_redundant();

    StmtInfo info;
    info.bounds.resize(q_);
    // Bounds per ordinal: eliminate deeper t dims, keep [t_0..t_k, params].
    for (std::size_t k = 0; k < q_; ++k) {
      std::vector<bool> rm(q_ + p_, false);
      for (std::size_t d = k + 1; d < q_; ++d) rm[d] = true;
      poly::IntegerSet elim = proj.eliminate_dims(rm);
      elim.remove_redundant();
      // Re-embed into the [q, params] space.
      for (const poly::Constraint& c : elim.constraints()) {
        const poly::AffineExpr e = c.expr.insert_dims(k + 1, q_ - 1 - k);
        const i64 a = e.coeff(k);
        if (a == 0) continue;
        info.bounds[k].raw.push_back(e);
        if (c.is_equality) info.bounds[k].raw.push_back(-e);
        // a*t_k + rest >= 0.
        poly::AffineExpr rest = e;
        rest.set_coeff(k, 0);
        if (a > 0 || c.is_equality) {
          // t_k >= ceil(-rest / a) with positive denom.
          const i64 d = a > 0 ? a : -a;
          info.bounds[k].lowers.push_back(
              BoundTerm{a > 0 ? -rest : rest, d});
        }
        if (a < 0 || c.is_equality) {
          const i64 d = a < 0 ? -a : a;
          info.bounds[k].uppers.push_back(
              BoundTerm{a < 0 ? rest : -rest, d});
        }
      }
      canonicalize(&info.bounds[k].lowers);
      canonicalize(&info.bounds[k].uppers);
      PF_CHECK_MSG(!info.bounds[k].lowers.empty() &&
                       !info.bounds[k].uppers.empty(),
                   "loop t" << k << " of " << st.name()
                            << " has no finite bounds");
    }

    // Iterator recovery: invert the linear parts of the schedule rows.
    if (m > 0) {
      RatMatrix a(0, m);
      std::vector<std::size_t> sel;  // which ordinals the rows came from
      for (std::size_t k = 0; k < q_ && a.rows() < m; ++k) {
        const poly::AffineExpr& row = sch_.rows[s][linear_levels_[k]];
        RatVector lin(m);
        bool nonzero = false;
        for (std::size_t d = 0; d < m; ++d) {
          lin[d] = Rational(row.coeff(d));
          nonzero = nonzero || row.coeff(d) != 0;
        }
        if (!nonzero) continue;
        a.append_row(lin);
        if (rank(a) < a.rows()) {
          // Dependent row; drop it again.
          RatMatrix b(0, m);
          for (std::size_t r = 0; r + 1 < a.rows(); ++r)
            b.append_row(a.row(r));
          a = std::move(b);
          continue;
        }
        sel.push_back(k);
      }
      PF_CHECK_MSG(a.rows() == m, "schedule of " << st.name()
                                                 << " is rank-deficient");
      const auto inv = invert(a);
      PF_CHECK(inv.has_value());
      for (std::size_t d = 0; d < m; ++d) {
        // Common denominator of row d: iterator d = numerator / denom,
        // valid only at exactly divisible points (non-unimodular
        // schedules scan a strided superset; inexact points are skipped
        // at execution time).
        i64 denom = 1;
        for (std::size_t r = 0; r < m; ++r)
          denom = lcm(denom, (*inv)(d, r).den());
        poly::AffineExpr e(q_ + p_);
        for (std::size_t r = 0; r < m; ++r) {
          const Rational f = (*inv)(d, r) * Rational(denom);
          PF_CHECK(f.is_integer());
          if (f.is_zero()) continue;
          const poly::AffineExpr& row = sch_.rows[s][linear_levels_[sel[r]]];
          // numerator += f * (t_{sel[r]} - const(row) - params(row)).
          poly::AffineExpr term = poly::AffineExpr::var(q_ + p_, sel[r]);
          term.set_const_term(checked_neg(row.const_term()));
          for (std::size_t j = 0; j < p_; ++j)
            term.set_coeff(q_ + j, checked_neg(row.coeff(m + j)));
          e += term * f.as_integer();
        }
        info.iter_exprs.push_back(std::move(e));
        info.iter_denoms.push_back(denom);
      }
    }
    return info;
  }

  // --- recursion -------------------------------------------------------------

  AstPtr gen(std::size_t level, const std::vector<std::size_t>& stmts) {
    PF_CHECK(!stmts.empty());
    if (level == sch_.num_levels()) {
      AstPtr block = make_block();
      for (const std::size_t s : stmts) {
        AstPtr node = make_stmt(s);
        node->iter_exprs = infos_[s].iter_exprs;
        node->iter_denoms = infos_[s].iter_denoms;
        node->guards = guards_[s];
        block->children.push_back(std::move(node));
      }
      if (block->children.size() == 1)
        return std::move(block->children.front());
      return block;
    }

    if (!sch_.level_linear[level]) {
      // Scalar level: sequence by value.
      std::map<i64, std::vector<std::size_t>> groups;
      for (const std::size_t s : stmts)
        groups[sch_.rows[s][level].const_term()].push_back(s);
      if (groups.size() == 1) return gen(level + 1, stmts);
      AstPtr block = make_block();
      for (auto& [value, group] : groups)
        block->children.push_back(gen(level + 1, group));
      return block;
    }

    // Linear level: one loop spanning the union of statement spans.
    const std::size_t k = ordinal_of_level_.at(level);
    AstPtr loop = make_loop(level, k);
    const LevelBounds& first = infos_[stmts[0]].bounds[k];
    bool identical = true;
    for (const std::size_t s : stmts) {
      const LevelBounds& b = infos_[s].bounds[k];
      if (!(b.lowers == first.lowers && b.uppers == first.uppers)) {
        identical = false;
        break;
      }
    }
    if (identical) {
      loop->lower.alternatives.push_back(first.lowers);
      loop->upper.alternatives.push_back(first.uppers);
    } else {
      for (const std::size_t s : stmts) {
        const LevelBounds& b = infos_[s].bounds[k];
        loop->lower.alternatives.push_back(b.lowers);
        loop->upper.alternatives.push_back(b.uppers);
        for (const poly::AffineExpr& g : b.raw) guards_[s].push_back(g);
      }
      dedupe_alternatives(&loop->lower);
      dedupe_alternatives(&loop->upper);
    }
    loop->parallel = sch_.is_parallel_for(stmts, level);
    if (!loop->parallel) attach_reductions(loop.get(), stmts, level);
    loop->body = gen(level + 1, stmts);
    return loop;
  }

  // Upgrade a sequential loop to a reduction-parallel loop when every
  // dependence it carries within `stmts` is a relaxed reduction
  // self-dependence. The OpenMP clause privatizes the accumulator array,
  // so additionally no statement other than the matched accumulators may
  // touch that array under the loop (a stray reader would observe a
  // private partial value), and two accumulators into the same array must
  // agree on the operator. When any condition fails the loop simply stays
  // sequential -- correct either way.
  void attach_reductions(AstNode* loop, const std::vector<std::size_t>& stmts,
                         std::size_t level) {
    if (sch_.relaxed_deps.empty()) return;
    std::vector<bool> in(scop_.num_statements(), false);
    for (const std::size_t s : stmts) in[s] = true;
    std::vector<ReductionClause> clauses;
    // array_id -> statements allowed to touch it (the accumulators).
    std::map<std::size_t, std::vector<std::size_t>> owners;
    for (const std::size_t dep : sch_.carried_at[level]) {
      const auto& [src, dst] = sch_.dep_endpoints[dep];
      if (!in[src] || !in[dst]) continue;
      const auto it = std::lower_bound(
          sch_.relaxed_deps.begin(), sch_.relaxed_deps.end(), dep,
          [](const ir::ReductionDep& rd, std::size_t id) {
            return rd.dep_id < id;
          });
      if (it == sch_.relaxed_deps.end() || it->dep_id != dep)
        return;  // a genuinely carried dependence: the loop is sequential
      const ReductionClause clause{it->op, it->array_id};
      bool fresh = true;
      for (const ReductionClause& c : clauses) {
        if (c.array_id != clause.array_id) continue;
        if (c.op != clause.op) return;  // operator conflict on one array
        fresh = false;
      }
      if (fresh) clauses.push_back(clause);
      owners[it->array_id].push_back(it->stmt);
    }
    if (clauses.empty()) return;
    for (const auto& [array_id, accs] : owners)
      for (const std::size_t s : stmts) {
        if (std::find(accs.begin(), accs.end(), s) != accs.end()) continue;
        for (const ir::Access& a : scop_.statement(s).accesses())
          if (a.array_id == array_id) return;  // accumulator not isolated
      }
    std::sort(clauses.begin(), clauses.end(),
              [](const ReductionClause& a, const ReductionClause& b) {
                return a.array_id != b.array_id ? a.array_id < b.array_id
                                                : a.op < b.op;
              });
    support::count(support::Counter::kReductionClauses,
                   static_cast<i64>(clauses.size()));
    loop->reductions = std::move(clauses);
  }

  static void dedupe_alternatives(LoopBound* b) {
    std::vector<std::vector<BoundTerm>> out;
    for (auto& alt : b->alternatives) {
      bool seen = false;
      for (const auto& o : out)
        if (o == alt) {
          seen = true;
          break;
        }
      if (!seen) out.push_back(std::move(alt));
    }
    b->alternatives = std::move(out);
  }

  static void mark_parallel(AstNode& n, bool* enclosing) {
    switch (n.kind) {
      case AstNode::Kind::kLoop: {
        bool inner = *enclosing;
        if ((n.parallel || !n.reductions.empty()) && !inner) {
          n.mark_parallel = true;
          inner = true;
        }
        mark_parallel(*n.body, &inner);
        break;
      }
      case AstNode::Kind::kBlock:
        for (const AstPtr& c : n.children) {
          bool inner = *enclosing;
          mark_parallel(*c, &inner);
        }
        break;
      case AstNode::Kind::kStmt:
        break;
    }
  }

  const ir::Scop& scop_;
  const sched::Schedule& sch_;
  std::vector<std::size_t> linear_levels_;
  std::map<std::size_t, std::size_t> ordinal_of_level_;
  std::size_t q_ = 0, p_ = 0;
  std::vector<StmtInfo> infos_;
  std::vector<std::vector<poly::AffineExpr>> guards_;
};

}  // namespace

AstPtr generate_ast(const ir::Scop& scop, const sched::Schedule& schedule) {
  PF_CHECK_MSG(schedule.scop == &scop, "schedule built for another scop");
  PF_CHECK(schedule.num_statements() == scop.num_statements());
  // Codegen must always complete: there is no sound over-approximation
  // for loop bounds, so domain scanning runs with the budget suspended.
  support::BudgetSuspend budget_suspend;
  return Generator(scop, schedule).run();
}

}  // namespace pf::codegen
