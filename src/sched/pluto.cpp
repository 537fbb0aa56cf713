#include "sched/pluto.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>

#include "poly/memo.h"
#include "sched/analysis.h"
#include "sched/farkas.h"
#include "support/budget.h"
#include "support/metrics.h"
#include "support/strings.h"
#include "support/trace.h"

namespace pf::sched {

namespace {

/// Bound on iterator coefficients of a hyperplane.
constexpr i64 kCoeffBound = 4;
/// Bound on the constant (shift) part of a hyperplane.
constexpr i64 kShiftBound = 20;
/// Bounds on the cost variables u (per parameter) and w.
constexpr i64 kUBound = 20;
constexpr i64 kWBound = 100;
/// Hard cap on schedule levels (guards against policy bugs).
constexpr std::size_t kMaxLevels = 64;

class Scheduler {
 public:
  Scheduler(const ir::Scop& scop, const ddg::DependenceGraph& dg,
            FusionPolicy& policy, const SchedulerOptions& opts)
      : scop_(scop), dg_(dg), policy_(policy), opts_(opts) {
    const std::size_t n = scop_.num_statements();
    const std::size_t p = scop_.num_params();

    // Unknown layout: [u_0..u_{p-1}, w, per stmt: c_0..c_{m-1}, c0].
    w_index_ = p;
    std::size_t next = p + 1;
    c_base_.resize(n);
    for (std::size_t s = 0; s < n; ++s) {
      c_base_[s] = next;
      next += scop_.statement(s).dim() + 1;
    }
    num_unknowns_ = next;

    rows_.resize(n);
    h_.assign(n, IntMatrix());
    for (std::size_t s = 0; s < n; ++s)
      h_[s] = IntMatrix(0, scop_.statement(s).dim());
    scalar_prefix_.resize(n);

    satisfied_.assign(dg_.deps().size(), false);
    satisfied_at_.assign(dg_.deps().size(), SIZE_MAX);
    dep_constraints_.resize(dg_.deps().size());

    // Reduction relaxation (docs/reductions.md): a relaxed self-dep is
    // marked satisfied up front, so it never enters active_deps() -- no
    // Farkas legality row, no cut pressure, and the Algorithm-2
    // recurrence-isolation extension cannot fire on it. satisfied_at_
    // stays SIZE_MAX: the dep was *ignored*, not satisfied; run() adds
    // it to carried_at with race semantics instead.
    for (const ir::ReductionDep& rd : opts_.relaxed_deps) {
      PF_CHECK_MSG(rd.dep_id < dg_.deps().size() &&
                       dg_.deps()[rd.dep_id].src == rd.stmt &&
                       dg_.deps()[rd.dep_id].dst == rd.stmt,
                   "relaxed reduction dependence does not match the graph");
      support::budget_charge(support::BudgetSite::kAnalysisReductions);
      if (satisfied_[rd.dep_id]) continue;
      satisfied_[rd.dep_id] = true;
      if (support::Tracer::remarks_on())
        support::remark("reduction", "self-dependence relaxed for scheduling",
                        {{"dep", std::to_string(dg_.deps()[rd.dep_id].id)},
                         {"stmt", scop_.statement(rd.stmt).name()},
                         {"op", ir::to_string(rd.op)},
                         {"array", scop_.array(rd.array_id).name}});
    }

    // The policy's pre-fusion schedule, over the ORIGINAL SCCs of the DDG.
    const ddg::SccResult orig_sccs = dg_.sccs();
    const std::vector<std::size_t> orig_order =
        policy_.prefusion_order(scop_, dg_, orig_sccs);
    PF_CHECK_MSG(orig_order.size() == orig_sccs.num_sccs(),
                 "policy returned pre-fusion order of wrong size");
    std::vector<std::size_t> pos_of_scc(orig_order.size());
    {
      std::vector<bool> seen(orig_order.size(), false);
      for (std::size_t pos = 0; pos < orig_order.size(); ++pos) {
        PF_CHECK_MSG(orig_order[pos] < orig_order.size() &&
                         !seen[orig_order[pos]],
                     "pre-fusion order is not a permutation");
        seen[orig_order[pos]] = true;
        pos_of_scc[orig_order[pos]] = pos;
      }
    }
    stmt_pref_pos_.resize(n);
    for (std::size_t s = 0; s < n; ++s)
      stmt_pref_pos_[s] =
          pos_of_scc[static_cast<std::size_t>(orig_sccs.scc_of[s])];
    // Validate precedence of the pre-fusion order.
    for (const ddg::Dependence& d : dg_.deps())
      PF_CHECK_MSG(stmt_pref_pos_[d.src] <= stmt_pref_pos_[d.dst],
                   "pre-fusion order of policy '"
                       << policy_.name()
                       << "' violates the precedence constraint");
  }

  Schedule run() {
    support::TraceSpan sched_span("sched", "compute_schedule");
    if (sched_span.active()) sched_span.attr("policy", policy_.name());
    refresh_current();
    {
      cut_reason_ = "initial";
      const std::vector<i64> init = policy_.initial_cut(make_cut_context());
      if (!init.empty()) apply_scalar_level(init);
    }

    while (level_linear_.size() < kMaxLevels) {
      support::TraceSpan level_span("sched", "level");
      if (level_span.active())
        level_span.attr("level", static_cast<i64>(level_linear_.size()));
      const std::vector<std::size_t> active = active_deps();
      const bool full = all_full_rank();
      if (full && active.empty()) break;

      try {
      // One pluto_level operation per level (the --inject unit); the
      // Farkas/FME/ILP work below burns lp_solve and fme_project fuel.
      support::budget_op(support::BudgetSite::kPlutoLevel);
      support::budget_charge(support::BudgetSite::kPlutoLevel);

      if (!full) {
        auto hyperplane = find_hyperplane(active);
        if (hyperplane) {
          if (policy_.enforce_outer_parallelism() && !seen_linear_level_ &&
              cut_for_outer_parallelism(active, *hyperplane))
            continue;  // hyperplane discarded; a scalar level was applied
          record_linear_level(active, std::move(*hyperplane));
          continue;
        }
      }

      // Infeasible (or full rank with unsatisfied deps): cut. SCCs are
      // recomputed over the *active* dependences (Pluto does the same),
      // so statements of an original SCC whose internal cycle is already
      // satisfied can now be distributed.
      refresh_current();
      cut_reason_ = full ? "full-rank-unsatisfied" : "ilp-infeasible";
      std::vector<i64> values = policy_.cut_on_infeasible(make_cut_context());
      if (count_satisfied_by(values, active) == 0)
        values = cut_all(cur_order_.size());
      if (count_satisfied_by(values, active) == 0) {
        std::ostringstream os;
        for (const std::size_t dep_idx : active) {
          const ddg::Dependence& d = dg_.deps()[dep_idx];
          os << " " << scop_.statement(d.src).name() << "->"
             << scop_.statement(d.dst).name() << "(" << ddg::to_string(d.kind)
             << ",depth" << d.depth << ")";
        }
        os << "; rows so far:";
        for (std::size_t s = 0; s < scop_.num_statements(); ++s) {
          os << " " << scop_.statement(s).name() << "=(";
          for (std::size_t l = 0; l < rows_[s].size(); ++l)
            os << (l ? "," : "")
               << rows_[s][l].to_string(scop_.space_names(scop_.statement(s)));
          os << ")";
        }
        PF_FAIL("stuck: active dependences within single SCCs cannot be "
                "satisfied by any hyperplane with non-negative coefficients "
                "(policy '"
                << policy_.name() << "'); active:" << os.str());
      }
      apply_scalar_level(values);
      } catch (const support::BudgetExceeded& e) {
        degrade_level(active, e);
      }
    }
    PF_CHECK_MSG(level_linear_.size() < kMaxLevels,
                 "scheduler exceeded kMaxLevels");

    Schedule out;
    out.scop = &scop_;
    out.rows = std::move(rows_);
    out.level_linear = std::move(level_linear_);
    out.satisfied_at = std::move(satisfied_at_);
    out.carried_at = std::move(carried_at_);
    for (const ddg::Dependence& d : dg_.deps())
      out.dep_endpoints.emplace_back(d.src, d.dst);
    record_relaxed_carried(out);
    return out;
  }

  // A relaxed reduction dep was invisible to the level loop, so its
  // carried levels were never recorded. Recover them here with *race*
  // semantics -- at each linear level, tied at every earlier linear
  // level and distance != 0 in either sign (relaxation permits negative
  // distances, which ordinary satisfaction bookkeeping cannot
  // represent). This keeps is_parallel_for sound: a loop sequential only
  // modulo relaxed deps reads as non-parallel, and codegen is the one
  // layer that may upgrade it to reduction-parallel with a clause.
  void record_relaxed_carried(Schedule& out) {
    if (opts_.relaxed_deps.empty()) return;
    support::BudgetSuspend suspend;  // bookkeeping must complete
    out.relaxed_deps = opts_.relaxed_deps;
    std::sort(out.relaxed_deps.begin(), out.relaxed_deps.end(),
              [](const ir::ReductionDep& a, const ir::ReductionDep& b) {
                return a.dep_id < b.dep_id;
              });
    for (const ir::ReductionDep& rd : out.relaxed_deps) {
      const ddg::Dependence& d = dg_.deps()[rd.dep_id];
      poly::IntegerSet tied = d.poly;
      for (std::size_t l = 0; l < out.num_levels(); ++l) {
        if (!out.level_linear[l]) continue;  // src == dst: scalar delta is 0
        const poly::AffineExpr diff = d.lift_dst(out.rows[d.dst][l]) -
                                      d.lift_src(out.rows[d.src][l]);
        poly::IntegerSet fwd = tied;
        fwd.add_constraint(poly::Constraint::ge0(diff.plus_const(-1)));
        bool carried = !fwd.is_empty();
        if (!carried) {
          poly::IntegerSet bwd = tied;
          bwd.add_constraint(poly::Constraint::ge0((-diff).plus_const(-1)));
          carried = !bwd.is_empty();
        }
        if (carried) out.carried_at[l].push_back(rd.dep_id);
        tied.add_constraint(poly::Constraint::eq0(diff));
      }
    }
    for (std::vector<std::size_t>& level : out.carried_at)
      std::sort(level.begin(), level.end());
  }

 private:
  // --- current (active-dependence) SCC structure -----------------------------

  // Budget recovery boundary for one scheduling level: fall back to a
  // scalar cut of the original statement order (always legal -- it
  // satisfies every remaining dependence it separates). Rethrows when
  // even that makes no progress; compute_schedule then degrades the
  // whole schedule to the identity order.
  void degrade_level(const std::vector<std::size_t>& active,
                     const support::BudgetExceeded& e) {
    support::BudgetSuspend suspend;  // the fallback itself must complete
    refresh_current();
    cut_reason_ = e.cause();
    const std::vector<i64> values = cut_all(cur_order_.size());
    if (count_satisfied_by(values, active) == 0) throw;
    support::count(support::Counter::kBudgetDowngrades);
    support::remark("budget", "pluto level degraded to scalar cut",
                    {{"level", std::to_string(level_linear_.size())},
                     {"site", e.site_name()},
                     {"cause", e.cause()},
                     {"policy", policy_.name()}});
    apply_scalar_level(values);
  }

  void refresh_current() {
    const std::size_t n = scop_.num_statements();
    std::vector<ddg::Edge> edges;
    for (std::size_t i = 0; i < satisfied_.size(); ++i) {
      if (satisfied_[i]) continue;
      const ddg::Dependence& d = dg_.deps()[i];
      edges.emplace_back(d.src, d.dst);
    }
    cur_sccs_ = ddg::kosaraju_sccs(n, edges);
    const auto cedges = ddg::condensation_edges(cur_sccs_, edges);
    std::vector<std::size_t> prio(cur_sccs_.num_sccs(), SIZE_MAX);
    for (std::size_t s = 0; s < n; ++s) {
      auto& p = prio[static_cast<std::size_t>(cur_sccs_.scc_of[s])];
      p = std::min(p, stmt_pref_pos_[s]);
    }
    cur_order_ = ddg::topological_order_by_priority(cur_sccs_.num_sccs(),
                                                    cedges, prio);
    cur_pos_of_scc_.assign(cur_order_.size(), 0);
    for (std::size_t pos = 0; pos < cur_order_.size(); ++pos)
      cur_pos_of_scc_[cur_order_[pos]] = pos;
    cur_scc_dim_.assign(cur_sccs_.num_sccs(), 0);
    for (std::size_t s = 0; s < n; ++s) {
      auto& d = cur_scc_dim_[static_cast<std::size_t>(cur_sccs_.scc_of[s])];
      d = std::max(d, scop_.statement(s).dim());
    }
  }

  std::size_t cur_pos_of_stmt(std::size_t s) const {
    return cur_pos_of_scc_[static_cast<std::size_t>(cur_sccs_.scc_of[s])];
  }

  CutContext make_cut_context() {
    CutContext ctx;
    ctx.scop = &scop_;
    ctx.dg = &dg_;
    ctx.sccs = &cur_sccs_;
    ctx.order = &cur_order_;
    ctx.scc_dim = &cur_scc_dim_;
    active_cache_ = active_deps();
    ctx.active_deps = &active_cache_;
    ctx.scalar_prefix = &scalar_prefix_;
    return ctx;
  }

  bool all_full_rank() const {
    for (std::size_t s = 0; s < scop_.num_statements(); ++s)
      if (h_[s].rows() < scop_.statement(s).dim()) return false;
    return true;
  }

  std::vector<std::size_t> active_deps() const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < satisfied_.size(); ++i)
      if (!satisfied_[i]) out.push_back(i);
    return out;
  }

  // Farkas-linearized legality + bounding constraints of one dependence,
  // over the unknown vector; computed once per dependence. The system is
  // built over a dependence-local unknown space [u, w, block of
  // min(src, dst), block of max(src, dst)] and each kept row is mapped to
  // the global layout. Dependences of one shape (same dimensions, same
  // block order, same polyhedron rows) share one build (DESIGN.md
  // "Farkas systems by dependence shape").
  const std::vector<poly::Constraint>& constraints_for(std::size_t dep_idx) {
    auto& cached = dep_constraints_[dep_idx];
    if (cached) return *cached;
    const ddg::Dependence& d = dg_.deps()[dep_idx];
    support::TraceSpan span("sched", "farkas_system");

    // Local layout: the global u and w prefix, then the statement blocks
    // in global statement order (one for a self-dependence), so mapping
    // local columns to global ones keeps their order.
    std::vector<std::size_t> to_global(w_index_ + 1);
    std::iota(to_global.begin(), to_global.end(), 0);
    auto add_block = [&](std::size_t stmt, std::size_t dim) {
      const std::size_t base = to_global.size();
      for (std::size_t k = 0; k <= dim; ++k)
        to_global.push_back(c_base_[stmt] + k);
      return base;
    };
    std::size_t src_base = 0, dst_base = 0;
    if (d.dst < d.src) {
      dst_base = add_block(d.dst, d.dst_dim);
      src_base = add_block(d.src, d.src_dim);
    } else {
      src_base = add_block(d.src, d.src_dim);
      dst_base = d.dst == d.src ? src_base : add_block(d.dst, d.dst_dim);
    }

    // The memo follows the one memo gate (poly::active_memo): budgeted
    // runs bypass it, so fuel and --inject ordinals stay per build.
    const bool memo = poly::active_memo() != nullptr;
    std::vector<i64> key;
    const std::vector<poly::Constraint>* local = nullptr;
    if (memo) {
      // The rows in stored order: FM's output order follows input order.
      key = {static_cast<i64>(d.src_dim),    static_cast<i64>(d.dst_dim),
             static_cast<i64>(d.num_params), static_cast<i64>(src_base),
             static_cast<i64>(dst_base),     static_cast<i64>(d.poly.dims())};
      for (const poly::Constraint& c : d.poly.constraints()) {
        key.push_back(c.is_equality ? 1 : 0);
        key.push_back(c.expr.const_term());
        key.insert(key.end(), c.expr.coeffs().begin(), c.expr.coeffs().end());
      }
      if (const auto it = farkas_memo_.find(key); it != farkas_memo_.end())
        local = &it->second;
    }
    const bool hit = local != nullptr;
    std::vector<poly::Constraint> built;
    if (hit) {
      support::count(support::Counter::kFarkasMemoHits);
    } else {
      support::count(support::Counter::kFarkasBuilds);
      built = build_farkas_system(d, to_global.size(), src_base, dst_base);
      local = &built;
    }

    std::vector<poly::Constraint> rows;
    rows.reserve(local->size());
    for (const poly::Constraint& c : *local) {
      poly::AffineExpr e(num_unknowns_, c.expr.const_term());
      for (std::size_t j = 0; j < to_global.size(); ++j)
        e.set_coeff(to_global[j], c.expr.coeff(j));
      rows.push_back(poly::Constraint{std::move(e), c.is_equality});
    }
    if (memo && !hit) farkas_memo_.emplace(std::move(key), std::move(built));
    if (span.active()) {
      span.attr("hit", hit ? 1 : 0);
      span.attr("rows_kept", static_cast<i64>(rows.size()));
    }
    cached = std::move(rows);
    return *cached;
  }

  // The reduced legality + bounding system of dependence d over a
  // `num_local`-unknown space with u_q at q, w at w_index_, and the
  // source (target) block at src_base (dst_base).
  std::vector<poly::Constraint> build_farkas_system(const ddg::Dependence& d,
                                                    std::size_t num_local,
                                                    std::size_t src_base,
                                                    std::size_t dst_base) {
    const std::size_t ms = d.src_dim, mt = d.dst_dim, p = d.num_params;

    // Legality E1 = phi_dst(t) - phi_src(s).
    std::vector<ParamAffine> e1(ms + mt + p, ParamAffine(num_local));
    for (std::size_t k = 0; k < ms; ++k) e1[k].coeffs[src_base + k] = -1;
    for (std::size_t k = 0; k < mt; ++k) e1[ms + k].coeffs[dst_base + k] = 1;
    ParamAffine e1c(num_local);
    e1c.coeffs[dst_base + mt] += 1;   // c0_dst
    e1c.coeffs[src_base + ms] += -1;  // c0_src
    auto legality = farkas_constraints(d.poly, e1, e1c, num_local);

    // Bounding E2 = u.n + w - E1.
    std::vector<ParamAffine> e2(ms + mt + p, ParamAffine(num_local));
    for (std::size_t k = 0; k < ms; ++k) e2[k].coeffs[src_base + k] = 1;
    for (std::size_t k = 0; k < mt; ++k) e2[ms + k].coeffs[dst_base + k] = -1;
    for (std::size_t q = 0; q < p; ++q) e2[ms + mt + q].coeffs[q] = 1;
    ParamAffine e2c(num_local);
    e2c.coeffs[w_index_] = 1;
    e2c.coeffs[dst_base + mt] += -1;
    e2c.coeffs[src_base + ms] += 1;
    auto bounding = farkas_constraints(d.poly, e2, e2c, num_local);

    // Drop redundancy within this dependence's system to keep the ILP
    // small.
    poly::IntegerSet sys(num_local);
    for (auto& c : legality) sys.add_constraint(std::move(c));
    for (auto& c : bounding) sys.add_constraint(std::move(c));
    sys.remove_redundant();
    return sys.constraints();
  }

  // The sign-independent part of one level's ILP, built once per
  // find_hyperplane call and copied per orientation: coefficient bounds
  // plus the deduplicated Farkas rows, and, per unfinished statement, the
  // summed orthogonal-complement row v_s over the unknowns (empty for
  // finished and 0-dim statements).
  struct LevelSystem {
    lp::IlpProblem base;
    std::vector<IntVector> indep;
  };

  LevelSystem level_system(const std::vector<std::size_t>& active) {
    LevelSystem sys{lp::IlpProblem::all_nonneg(num_unknowns_), {}};
    lp::IlpProblem& ilp = sys.base;
    // Bounds.
    const std::size_t p = scop_.num_params();
    for (std::size_t q = 0; q < p; ++q) ilp.add_upper_bound(q, kUBound);
    ilp.add_upper_bound(w_index_, kWBound);
    for (std::size_t s = 0; s < scop_.num_statements(); ++s) {
      const std::size_t m = scop_.statement(s).dim();
      for (std::size_t k = 0; k < m; ++k)
        ilp.add_upper_bound(c_base_[s] + k, kCoeffBound);
      ilp.add_upper_bound(c_base_[s] + m, kShiftBound);
    }
    // Dependence constraints, deduplicated across dependences (different
    // depth cases of one access pair often linearize identically).
    std::set<std::pair<std::vector<i64>, std::pair<i64, bool>>> seen;
    for (const std::size_t dep_idx : active) {
      for (const poly::Constraint& c : constraints_for(dep_idx)) {
        if (!seen
                 .emplace(c.expr.coeffs(),
                          std::make_pair(c.expr.const_term(), c.is_equality))
                 .second)
          continue;
        if (c.is_equality)
          ilp.add_equality(c.expr.coeffs(), c.expr.const_term());
        else
          ilp.add_inequality(c.expr.coeffs(), c.expr.const_term());
      }
    }
    sys.indep.resize(scop_.num_statements());
    for (std::size_t s = 0; s < scop_.num_statements(); ++s) {
      const std::size_t m = scop_.statement(s).dim();
      if (h_[s].rows() >= m) continue;  // finished (or 0-dim)
      const IntMatrix comp = orthogonal_complement_rows(h_[s]);
      PF_CHECK(comp.rows() > 0);
      IntVector& row = sys.indep[s];
      row.assign(num_unknowns_, 0);
      for (std::size_t j = 0; j < comp.rows(); ++j)
        for (std::size_t k = 0; k < m; ++k)
          row[c_base_[s] + k] = checked_add(row[c_base_[s] + k], comp(j, k));
    }
    return sys;
  }

  // The linear-independence condition ("the new row has a nonzero
  // component in the orthogonal complement of the rows found so far") is a
  // disjunction; Pluto's encoding keeps only one branch, sum(M c) >= 1,
  // whose sign depends on the arbitrary orientation of the null-space
  // basis and can contradict legality (e.g. legality forcing c1 >= 4*c2
  // while the complement row came out as (-1, 4)). We first try the
  // default orientation, then enumerate per-statement sign flips (fewest
  // flips first) before giving up.
  std::optional<std::vector<poly::AffineExpr>> find_hyperplane(
      const std::vector<std::size_t>& active) {
    std::vector<std::size_t> unfinished;
    for (std::size_t s = 0; s < scop_.num_statements(); ++s)
      if (h_[s].rows() < scop_.statement(s).dim()) unfinished.push_back(s);

    const std::size_t k = unfinished.size();
    std::vector<std::uint64_t> combos;
    if (k <= 6) {
      for (std::uint64_t c = 0; c < (std::uint64_t{1} << k); ++c)
        combos.push_back(c);
      std::stable_sort(combos.begin(), combos.end(),
                       [](std::uint64_t a, std::uint64_t b) {
                         return __builtin_popcountll(a) <
                                __builtin_popcountll(b);
                       });
    } else {
      combos.push_back(0);                              // default
      for (std::size_t i = 0; i < k; ++i)
        combos.push_back(std::uint64_t{1} << i);        // single flips
      combos.push_back((std::uint64_t{1} << k) - 1);    // all flipped
    }
    const LevelSystem sys = level_system(active);
    bool first = true;
    for (const std::uint64_t combo : combos) {
      std::vector<int> sign(scop_.num_statements(), +1);
      for (std::size_t i = 0; i < k; ++i)
        if ((combo >> i) & 1) sign[unfinished[i]] = -1;
      if (auto hp = find_hyperplane_signed(sys, sign)) return hp;
      if (first) {
        // Cheap triage: if the system is infeasible even *without* any
        // independence constraint (sign 0 = omit), the dependences
        // themselves are the blocker and a cut is needed -- skip the
        // sign enumeration. Otherwise the LP certificate may still prove
        // that no orientation can succeed.
        first = false;
        const std::vector<int> none(scop_.num_statements(), 0);
        if (!find_hyperplane_signed(sys, none)) return std::nullopt;
        if (no_orientation_succeeds(sys, combos.size() - 1))
          return std::nullopt;
      }
    }
    return std::nullopt;
  }

  // Exact certificate that every orientation fails. At an integer point c
  // of the base system, v_s . c is an integer, so if its LP range over
  // the base system lies strictly inside (-1, 1) for some unfinished s,
  // v_s . c = 0 at every integer point: neither sign of v_s . c >= 1 is
  // satisfiable, whatever the other statements' signs. The enumeration
  // would only fail `skipped` more lexmins, so it is skipped instead; a
  // failed call never moves warm_point_, so schedules are unchanged.
  bool no_orientation_succeeds(const LevelSystem& sys, std::size_t skipped) {
    // "outcome" stays unset when a budget fault unwinds the certificate.
    support::TraceSpan span("sched", "orientation_certificate");
    for (std::size_t s = 0; s < scop_.num_statements(); ++s) {
      const IntVector& v = sys.indep[s];
      if (v.empty()) continue;
      const std::optional<Rational> hi = sys.base.relaxation_max(v);
      if (!hi || *hi >= 1) continue;
      IntVector neg(v.size());
      for (std::size_t j = 0; j < v.size(); ++j) neg[j] = checked_neg(v[j]);
      const std::optional<Rational> neg_lo = sys.base.relaxation_max(neg);
      if (!neg_lo || *neg_lo >= 1) continue;
      support::count(support::Counter::kSchedOrientationSkips);
      support::remark(
          "sched", "independence orientations skipped",
          {{"level", std::to_string(level_linear_.size())},
           {"stmt", scop_.statement(s).name()},
           {"lp_min", (-*neg_lo).to_string()},
           {"lp_max", hi->to_string()},
           {"orientations_skipped", std::to_string(skipped)}});
      span.attr("outcome", "skip");
      return true;
    }
    span.attr("outcome", "enumerate");
    return false;
  }

  std::optional<std::vector<poly::AffineExpr>> find_hyperplane_signed(
      const LevelSystem& sys, const std::vector<int>& sign) {
    lp::IlpProblem ilp = sys.base;
    // Linear independence for unfinished statements (sign[s] == 0 omits
    // the constraint -- used only for the infeasibility triage; a zero
    // row returned in that mode is rejected below).
    for (std::size_t s = 0; s < scop_.num_statements(); ++s) {
      if (sys.indep[s].empty() || sign[s] == 0) continue;
      IntVector row(num_unknowns_, 0);
      for (std::size_t j = 0; j < num_unknowns_; ++j)
        row[j] = checked_mul(sign[s], sys.indep[s][j]);
      ilp.add_inequality(std::move(row), -1);  // sign * sum >= 1
    }

    // Lexicographic objective: sum(u), then w, then all coefficients,
    // then a tie-break preferring earlier original iterators (so a free
    // choice keeps the source loop order and its spatial locality --
    // row-major innermost stride stays innermost).
    const std::size_t p = scop_.num_params();
    IntVector obj_u(num_unknowns_, 0), obj_w(num_unknowns_, 0),
        obj_c(num_unknowns_, 0), obj_order(num_unknowns_, 0);
    for (std::size_t q = 0; q < p; ++q) obj_u[q] = 1;
    obj_w[w_index_] = 1;
    for (std::size_t s = 0; s < scop_.num_statements(); ++s) {
      const std::size_t m = scop_.statement(s).dim();
      for (std::size_t k = 0; k <= m; ++k) obj_c[c_base_[s] + k] = 1;
      for (std::size_t k = 0; k < m; ++k)
        obj_order[c_base_[s] + k] = static_cast<i64>(k);
    }
    const lp::IlpResult r =
        ilp.lexmin({obj_u, obj_w, obj_c, obj_order},
                   warm_point_ ? &*warm_point_ : nullptr);
    if (r.status != lp::IlpStatus::kOptimal) return std::nullopt;
    warm_point_ = r.point;

    // Remember the winning Farkas objective (communication-volume bound
    // u.n + w) for the hyperplane's decision remark.
    last_u_sum_ = 0;
    for (std::size_t q = 0; q < p; ++q)
      last_u_sum_ = checked_add(last_u_sum_, r.point[q]);
    last_w_ = r.point[w_index_];

    std::vector<poly::AffineExpr> hp;
    for (std::size_t s = 0; s < scop_.num_statements(); ++s) {
      const ir::Statement& st = scop_.statement(s);
      const std::size_t m = st.dim();
      poly::AffineExpr row(m + scop_.num_params(), r.point[c_base_[s] + m]);
      for (std::size_t k = 0; k < m; ++k)
        row.set_coeff(k, r.point[c_base_[s] + k]);
      hp.push_back(std::move(row));
    }
    return hp;
  }

  // phi_dst - phi_src over the dependence polyhedron.
  poly::AffineExpr phi_diff(const ddg::Dependence& d,
                            const std::vector<poly::AffineExpr>& rows) const {
    return d.lift_dst(rows[d.dst]) - d.lift_src(rows[d.src]);
  }

  // Algorithm 2 (paper Section 4.2): at the outermost linear level, if the
  // found hyperplane carries a forward dependence between two different
  // (current) SCCs, cut precisely between those SCCs and report true
  // (hyperplane discarded).
  bool cut_for_outer_parallelism(const std::vector<std::size_t>& active,
                                 const std::vector<poly::AffineExpr>& hp) {
    refresh_current();
    // The paper's Algorithm 2 distributes one offending SCC pair per
    // iteration (cut, discard hyperplane, re-solve). An SCC pair is
    // offending iff
    //   (a) the found hyperplane carries some dependence of the pair
    //       (phi-diff max >= 1: the loop would be a forward-dependence,
    //       i.e. pipelined, loop), and
    //   (b) some dependence of the pair has *intrinsic* nonzero distance
    //       along this hyperplane direction (the shift-free phi-diff is
    //       not identically zero).
    // Without (b), staggered shifts of an unrelated legality fix would
    // make plain loop-independent dependences look carried and the pass
    // would over-distribute.
    struct PairState {
      bool carried = false;
      bool intrinsic = false;
    };
    std::map<std::pair<std::size_t, std::size_t>, PairState> pairs;
    for (const std::size_t dep_idx : active) {
      const ddg::Dependence& d = dg_.deps()[dep_idx];
      const std::size_t scc_s =
          static_cast<std::size_t>(cur_sccs_.scc_of[d.src]);
      const std::size_t scc_t =
          static_cast<std::size_t>(cur_sccs_.scc_of[d.dst]);
      if (scc_s == scc_t) continue;  // cannot distribute within an SCC
      PairState& st = pairs[{cur_pos_of_scc_[scc_s], cur_pos_of_scc_[scc_t]}];

      if (!st.carried) {
        const auto mx = d.poly.integer_max(phi_diff(d, hp));
        st.carried = mx.kind == poly::IntegerSet::Opt::kUnbounded ||
                     mx.kind == poly::IntegerSet::Opt::kUnknown ||
                     (mx.kind == poly::IntegerSet::Opt::kOk && mx.value >= 1);
      }
      if (!st.intrinsic) {
        poly::AffineExpr src_row = hp[d.src];
        poly::AffineExpr dst_row = hp[d.dst];
        src_row.set_const_term(0);
        dst_row.set_const_term(0);
        const poly::AffineExpr diff =
            d.lift_dst(dst_row) - d.lift_src(src_row);
        const auto mn = d.poly.integer_min(diff);
        const auto mx = d.poly.integer_max(diff);
        const bool both_zero = mn.kind == poly::IntegerSet::Opt::kOk &&
                               mn.value == 0 &&
                               mx.kind == poly::IntegerSet::Opt::kOk &&
                               mx.value == 0;
        st.intrinsic = !both_zero;
      }
    }
    for (const auto& [pair_pos, st] : pairs) {
      if (!st.carried || !st.intrinsic) continue;
      const std::size_t pos_t = pair_pos.second;
      PF_CHECK(pair_pos.first < pos_t);
      support::remark(
          "sched", "hyperplane sacrificed for outer parallelism",
          {{"scc_pos_src", std::to_string(pair_pos.first)},
           {"scc_pos_dst", std::to_string(pos_t)},
           {"parallelism", "preserved-by-distribution"}});
      cut_reason_ = "outer-parallelism";
      std::vector<i64> values(cur_order_.size(), 0);
      for (std::size_t pos = pos_t; pos < cur_order_.size(); ++pos)
        values[pos] = 1;
      apply_scalar_level(values);
      return true;
    }

    // Extension in the same spirit: an SCC whose *internal* dependence
    // (e.g. a reduction recurrence) is carried by the fused outermost
    // hyperplane serializes every statement fused with it. Distribution
    // cannot remove the recurrence, but isolating the SCC frees its own
    // hyperplane choice (a reduction can run its parallel dimension
    // outermost once its alignment constraints to neighbors are satisfied
    // by the cut) and keeps the rest of the partition coarse-grained
    // parallel. Only fires when the SCC actually shares a partition.
    for (const std::size_t dep_idx : active) {
      const ddg::Dependence& d = dg_.deps()[dep_idx];
      const std::size_t scc_s =
          static_cast<std::size_t>(cur_sccs_.scc_of[d.src]);
      if (static_cast<std::size_t>(cur_sccs_.scc_of[d.dst]) != scc_s)
        continue;
      // Shares a partition with another SCC?
      bool shared = false;
      for (std::size_t other = 0; other < scop_.num_statements() && !shared;
           ++other) {
        if (static_cast<std::size_t>(cur_sccs_.scc_of[other]) == scc_s)
          continue;
        shared = scalar_prefix_[other] == scalar_prefix_[d.src];
      }
      if (!shared) continue;
      const auto mx = d.poly.integer_max(phi_diff(d, hp));
      const bool carried = mx.kind == poly::IntegerSet::Opt::kUnbounded ||
                           mx.kind == poly::IntegerSet::Opt::kUnknown ||
                           (mx.kind == poly::IntegerSet::Opt::kOk &&
                            mx.value >= 1);
      if (!carried) continue;
      support::remark(
          "sched", "recurrence SCC isolated from fused partition",
          {{"scc_pos", std::to_string(cur_pos_of_scc_[scc_s])},
           {"parallelism", "preserved-for-neighbors"}});
      cut_reason_ = "recurrence-isolation";
      // Isolate the SCC: [0..pos) -> 0, pos -> 1, (pos..end) -> 2.
      const std::size_t pos = cur_pos_of_scc_[scc_s];
      std::vector<i64> values(cur_order_.size(), 0);
      for (std::size_t q = 0; q < cur_order_.size(); ++q)
        values[q] = q < pos ? 0 : (q == pos ? 1 : 2);
      apply_scalar_level(values);
      return true;
    }
    return false;
  }

  std::size_t count_satisfied_by(const std::vector<i64>& values,
                                 const std::vector<std::size_t>& active) const {
    PF_CHECK(values.size() == cur_order_.size());
    std::size_t count = 0;
    for (const std::size_t dep_idx : active) {
      const ddg::Dependence& d = dg_.deps()[dep_idx];
      const i64 vs = values[cur_pos_of_stmt(d.src)];
      const i64 vt = values[cur_pos_of_stmt(d.dst)];
      PF_CHECK_MSG(vs <= vt, "cut values violate precedence");
      if (vs < vt) ++count;
    }
    return count;
  }

  void apply_scalar_level(const std::vector<i64>& values) {
    PF_CHECK(values.size() == cur_order_.size());
    for (std::size_t pos = 1; pos < values.size(); ++pos)
      PF_CHECK_MSG(values[pos - 1] <= values[pos],
                   "cut values must be non-decreasing in pre-fusion order");
    const std::size_t level = level_linear_.size();
    for (std::size_t s = 0; s < scop_.num_statements(); ++s) {
      const ir::Statement& st = scop_.statement(s);
      const i64 v = values[cur_pos_of_stmt(s)];
      rows_[s].push_back(
          poly::AffineExpr::constant(st.dim() + scop_.num_params(), v));
      scalar_prefix_[s].push_back(v);
    }
    std::size_t newly_satisfied = 0;
    for (std::size_t i = 0; i < satisfied_.size(); ++i) {
      if (satisfied_[i]) continue;
      const ddg::Dependence& d = dg_.deps()[i];
      const i64 vs = values[cur_pos_of_stmt(d.src)];
      const i64 vt = values[cur_pos_of_stmt(d.dst)];
      if (vs < vt) {
        satisfied_[i] = true;
        satisfied_at_[i] = level;
        ++newly_satisfied;
      }
    }
    level_linear_.push_back(false);
    carried_at_.emplace_back();
    if (support::Tracer::remarks_on()) {
      const std::size_t partitions =
          static_cast<std::size_t>(values.back() - values.front()) + 1;
      std::vector<std::string> vals;
      for (const i64 v : values) vals.push_back(std::to_string(v));
      support::remark("sched", "scalar cut",
                      {{"level", std::to_string(level)},
                       {"reason", cut_reason_},
                       {"policy", policy_.name()},
                       {"partitions", std::to_string(partitions)},
                       {"values", pf::join(vals, " ")},
                       {"deps_satisfied", std::to_string(newly_satisfied)}});
    }
  }

  void record_linear_level(const std::vector<std::size_t>& active,
                           std::vector<poly::AffineExpr> hp) {
    const std::size_t level = level_linear_.size();
    std::vector<std::size_t> carried;
    for (const std::size_t dep_idx : active) {
      const ddg::Dependence& d = dg_.deps()[dep_idx];
      const poly::AffineExpr diff = phi_diff(d, hp);
      const auto mn = d.poly.integer_min(diff);
      PF_CHECK_MSG(mn.kind != poly::IntegerSet::Opt::kUnbounded,
                   "hyperplane violates legality (unbounded-below "
                   "dependence distance)");
      if (mn.kind == poly::IntegerSet::Opt::kOk) {
        PF_CHECK_MSG(mn.value >= 0, "hyperplane violates legality");
        if (mn.value >= 1) {
          satisfied_[dep_idx] = true;
          satisfied_at_[dep_idx] = level;
        }
      } else if (mn.kind == poly::IntegerSet::Opt::kEmpty) {
        // Vacuous dependence (possible for budget-assumed candidates
        // that are in truth empty): nothing to satisfy.
        satisfied_[dep_idx] = true;
        satisfied_at_[dep_idx] = level;
      }
      const auto mx = d.poly.integer_max(diff);
      const bool is_carried =
          mx.kind == poly::IntegerSet::Opt::kUnbounded ||
          mx.kind == poly::IntegerSet::Opt::kUnknown ||
          (mx.kind == poly::IntegerSet::Opt::kOk && mx.value >= 1);
      if (is_carried) carried.push_back(dep_idx);
    }
    // Update independence state.
    for (std::size_t s = 0; s < scop_.num_statements(); ++s) {
      const std::size_t m = scop_.statement(s).dim();
      if (h_[s].rows() >= m) continue;
      IntVector linear(m);
      bool nonzero = false;
      for (std::size_t k = 0; k < m; ++k) {
        linear[k] = hp[s].coeff(k);
        nonzero = nonzero || linear[k] != 0;
      }
      PF_CHECK_MSG(nonzero,
                   "independence constraint produced a zero row for an "
                   "unfinished statement");
      h_[s].append_row(linear);
    }
    if (support::Tracer::remarks_on()) {
      std::vector<std::string> rows;
      for (std::size_t s = 0; s < scop_.num_statements(); ++s)
        rows.push_back(scop_.statement(s).name() + ":" +
                       hp[s].to_string(scop_.space_names(scop_.statement(s))));
      support::remark(
          "sched", "hyperplane found",
          {{"level", std::to_string(level)},
           {"objective_u_sum", std::to_string(last_u_sum_)},
           {"objective_w", std::to_string(last_w_)},
           {"deps_carried", std::to_string(carried.size())},
           {"parallel", carried.empty() ? "yes" : "no"},
           {"outermost", seen_linear_level_ ? "no" : "yes"},
           {"rows", pf::join(rows, "; ")}});
    }
    for (std::size_t s = 0; s < scop_.num_statements(); ++s)
      rows_[s].push_back(std::move(hp[s]));
    level_linear_.push_back(true);
    carried_at_.push_back(std::move(carried));
    seen_linear_level_ = true;
  }

  const ir::Scop& scop_;
  const ddg::DependenceGraph& dg_;
  FusionPolicy& policy_;
  const SchedulerOptions& opts_;

  std::size_t num_unknowns_ = 0;
  std::size_t w_index_ = 0;
  std::vector<std::size_t> c_base_;

  std::vector<std::vector<poly::AffineExpr>> rows_;
  std::vector<bool> level_linear_;
  std::vector<std::vector<std::size_t>> carried_at_;
  std::vector<IntMatrix> h_;
  std::vector<std::vector<i64>> scalar_prefix_;
  std::vector<bool> satisfied_;
  std::vector<std::size_t> satisfied_at_;
  std::vector<std::optional<std::vector<poly::Constraint>>> dep_constraints_;
  // Dependence-local Farkas rows by dependence shape (constraints_for).
  std::map<std::vector<i64>, std::vector<poly::Constraint>> farkas_memo_;
  std::vector<std::size_t> active_cache_;
  bool seen_linear_level_ = false;

  // Decision-remark context: why the next scalar cut is being applied,
  // and the Farkas objective of the last accepted hyperplane.
  std::string cut_reason_ = "initial";
  i64 last_u_sum_ = 0;
  i64 last_w_ = 0;

  // Warm start across Pluto levels: the previous level's lexmin point.
  // Successive levels share most of their constraint system (bounds +
  // Farkas rows), so the old point often remains feasible and bounds the
  // new branch-and-bound; lexmin validates it and ignores stale points,
  // keeping results byte-identical (see lp/ilp.h).
  std::optional<IntVector> warm_point_;

  // Per-statement position in the policy's pre-fusion schedule.
  std::vector<std::size_t> stmt_pref_pos_;

  // Current SCC structure over the active dependences.
  ddg::SccResult cur_sccs_;
  std::vector<std::size_t> cur_order_;
  std::vector<std::size_t> cur_pos_of_scc_;
  std::vector<std::size_t> cur_scc_dim_;
};

// One remark per resulting fusion partition: which statements ended up
// fused and whether the partition's outermost loop stayed parallel -- the
// outcome Algorithm 2 trades hyperplanes for.
void remark_partition_outcomes(const ir::Scop& scop, const Schedule& sch) {
  if (!support::Tracer::remarks_on()) return;
  const std::vector<int> parts = sch.nest_partitions();
  std::size_t first_linear = SIZE_MAX;
  for (std::size_t l = 0; l < sch.level_linear.size(); ++l)
    if (sch.level_linear[l]) {
      first_linear = l;
      break;
    }
  std::map<int, std::vector<std::size_t>> groups;
  for (std::size_t s = 0; s < parts.size(); ++s) groups[parts[s]].push_back(s);
  for (const auto& [id, stmts] : groups) {
    std::vector<std::string> names;
    for (const std::size_t s : stmts) names.push_back(scop.statement(s).name());
    const bool parallel =
        first_linear != SIZE_MAX && sch.is_parallel_for(stmts, first_linear);
    support::remark("fusion", "fusion partition outcome",
                    {{"partition", std::to_string(id)},
                     {"statements", pf::join(names, " ")},
                     {"outer_parallelism", parallel ? "preserved" : "lost"}});
  }
}

}  // namespace

Schedule compute_schedule(const ir::Scop& scop,
                          const ddg::DependenceGraph& dg, FusionPolicy& policy,
                          const SchedulerOptions& options) {
  PF_CHECK_MSG(&dg.scop() == &scop, "dependence graph built for another scop");
  try {
    Schedule sch = Scheduler(scop, dg, policy, options).run();
    remark_partition_outcomes(scop, sch);
    return sch;
  } catch (const support::BudgetExceeded& e) {
    // Fusion-model faults belong to the model degradation chain
    // (fusion::compute_schedule_degrading); everything else degrades to
    // the always-legal identity schedule right here.
    if (e.site() == support::BudgetSite::kFusionModel) throw;
    support::count(support::Counter::kBudgetDowngrades);
    support::remark("budget", "schedule degraded to original statement order",
                    {{"policy", policy.name()},
                     {"site", e.site_name()},
                     {"cause", e.cause()}});
    support::BudgetSuspend suspend;
    Schedule fallback = identity_schedule(scop);
    annotate_dependences(fallback, dg);
    remark_partition_outcomes(scop, fallback);
    return fallback;
  } catch (const Error& e) {
    if (std::string(e.what()).find("stuck:") == std::string::npos) throw;
    // The greedy per-level search occasionally strands a dependence that
    // only a different earlier choice could have satisfied (no
    // backtracking, like Pluto). The original execution order is always
    // legal: degrade gracefully to the identity schedule instead of
    // failing.
    support::remark("sched", "scheduler stuck; fell back to identity schedule",
                    {{"policy", policy.name()}});
    Schedule fallback = identity_schedule(scop);
    annotate_dependences(fallback, dg);
    remark_partition_outcomes(scop, fallback);
    return fallback;
  }
}

}  // namespace pf::sched
