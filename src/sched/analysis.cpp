#include "sched/analysis.h"

#include <algorithm>
#include <functional>
#include <map>

#include "support/budget.h"

namespace pf::sched {

Schedule identity_schedule(const ir::Scop& scop) {
  const std::size_t n = scop.num_statements();
  std::size_t max_dim = 0;
  for (const ir::Statement& s : scop.statements())
    max_dim = std::max(max_dim, s.dim());
  const std::size_t num_levels = 2 * max_dim + 1;

  Schedule sch;
  sch.scop = &scop;
  sch.rows.assign(n, {});
  sch.level_linear.assign(num_levels, false);
  for (std::size_t k = 0; k < max_dim; ++k) sch.level_linear[2 * k + 1] = true;

  // Sibling positions: recursively scan statements (already in program
  // order) and assign ordinals to distinct constructs per nesting level.
  // Construct identity at depth d: loop_chain[d] if the statement is
  // deeper, else the statement itself (encoded as -1 - stmt_index).
  struct Frame {
    std::vector<std::size_t> stmts;
    std::size_t depth;
  };
  std::vector<std::vector<i64>> scalar_rows(n);  // per stmt: 2d+1 scalars

  const std::function<void(const std::vector<std::size_t>&, std::size_t)>
      assign = [&](const std::vector<std::size_t>& stmts, std::size_t depth) {
        std::map<long, i64> ordinal;  // construct key -> sibling index
        i64 next = 0;
        std::vector<std::pair<long, std::vector<std::size_t>>> groups;
        for (const std::size_t s : stmts) {
          const ir::Statement& st = scop.statement(s);
          const long key = st.dim() > depth
                               ? static_cast<long>(st.loop_chain()[depth])
                               : -1 - static_cast<long>(s);
          if (ordinal.find(key) == ordinal.end()) {
            ordinal[key] = next++;
            groups.emplace_back(key, std::vector<std::size_t>{});
          }
          groups.back().second.push_back(s);
          PF_CHECK_MSG(groups.back().first == key,
                       "statements of one loop are not contiguous");
          scalar_rows[s].push_back(ordinal[key]);
        }
        for (const auto& [key, group] : groups) {
          if (key >= 0) assign(group, depth + 1);  // a loop: recurse inside
        }
      };
  {
    std::vector<std::size_t> all(n);
    for (std::size_t s = 0; s < n; ++s) all[s] = s;
    assign(all, 0);
  }

  for (std::size_t s = 0; s < n; ++s) {
    const ir::Statement& st = scop.statement(s);
    const std::size_t dims = st.dim() + scop.num_params();
    auto& rows = sch.rows[s];
    for (std::size_t level = 0; level < num_levels; ++level) {
      if (level % 2 == 0) {
        const std::size_t k = level / 2;
        const i64 v =
            k < scalar_rows[s].size() ? scalar_rows[s][k] : 0;
        rows.push_back(poly::AffineExpr::constant(dims, v));
      } else {
        const std::size_t k = level / 2;
        rows.push_back(k < st.dim()
                           ? poly::AffineExpr::var(dims, k)
                           : poly::AffineExpr::constant(dims, 0));
      }
    }
  }
  return sch;
}

void annotate_dependences(Schedule& sch, const ddg::DependenceGraph& dg) {
  // Must-complete region: a conservative integer_min here would report a
  // dependence as never satisfied and fail the final legality check, so
  // annotation always runs exact (it is polynomial in practice).
  support::BudgetSuspend budget_suspend;
  const std::size_t nd = dg.deps().size();
  sch.satisfied_at.assign(nd, SIZE_MAX);
  sch.dep_endpoints.clear();
  sch.carried_at.assign(sch.num_levels(), {});
  for (const ddg::Dependence& d : dg.deps())
    sch.dep_endpoints.emplace_back(d.src, d.dst);

  for (std::size_t i = 0; i < nd; ++i) {
    const ddg::Dependence& d = dg.deps()[i];
    for (std::size_t l = 0; l < sch.num_levels(); ++l) {
      const poly::AffineExpr diff =
          d.lift_dst(sch.rows[d.dst][l]) - d.lift_src(sch.rows[d.src][l]);
      const auto mn = d.poly.integer_min(diff);
      PF_CHECK_MSG(mn.kind != poly::IntegerSet::Opt::kUnbounded &&
                       (mn.kind != poly::IntegerSet::Opt::kOk || mn.value >= 0),
                   "illegal schedule: dependence "
                       << dg.scop().statement(d.src).name() << " -> "
                       << dg.scop().statement(d.dst).name()
                       << " violated at level " << l);
      const auto mx = d.poly.integer_max(diff);
      const bool carried = mx.kind == poly::IntegerSet::Opt::kUnbounded ||
                           mx.kind == poly::IntegerSet::Opt::kUnknown ||
                           (mx.kind == poly::IntegerSet::Opt::kOk &&
                            mx.value >= 1);
      if (carried) sch.carried_at[l].push_back(i);
      // kEmpty: a vacuous polyhedron (possible for budget-assumed deps
      // that are in truth empty) constrains nothing -- satisfied.
      if (mn.kind == poly::IntegerSet::Opt::kEmpty ||
          (mn.kind == poly::IntegerSet::Opt::kOk && mn.value >= 1)) {
        sch.satisfied_at[i] = l;
        break;
      }
    }
    PF_CHECK_MSG(sch.satisfied_at[i] != SIZE_MAX,
                 "illegal schedule: dependence never satisfied");
  }
}

std::vector<std::size_t> permutable_bands(const Schedule& sch,
                                          const ddg::DependenceGraph& dg) {
  // Must-complete, like annotate_dependences: band detection is a
  // *checker* over the final schedule, not search work.
  support::BudgetSuspend budget_suspend;
  PF_CHECK_MSG(sch.satisfied_at.size() == dg.deps().size(),
               "schedule lacks dependence annotations (run the scheduler or "
               "annotate_dependences first)");
  std::vector<std::size_t> linear_levels;
  for (std::size_t l = 0; l < sch.num_levels(); ++l)
    if (sch.level_linear[l]) linear_levels.push_back(l);

  std::vector<std::size_t> band(linear_levels.size(), 0);
  std::size_t cur = 0;
  std::size_t band_start = 0;  // ordinal of the current band's first level
  for (std::size_t k = 1; k < linear_levels.size(); ++k) {
    bool brk = linear_levels[k] != linear_levels[k - 1] + 1;
    if (!brk) {
      // Any dependence satisfied inside the band so far must stay
      // non-negative at this deeper level.
      for (std::size_t i = 0; i < dg.deps().size() && !brk; ++i) {
        const std::size_t sat = sch.satisfied_at[i];
        if (sat < linear_levels[band_start] || sat >= linear_levels[k])
          continue;
        if (!sch.level_linear[sat]) continue;
        const ddg::Dependence& d = dg.deps()[i];
        const poly::AffineExpr diff =
            d.lift_dst(sch.rows[d.dst][linear_levels[k]]) -
            d.lift_src(sch.rows[d.src][linear_levels[k]]);
        const auto mn = d.poly.integer_min(diff);
        brk = !(mn.kind == poly::IntegerSet::Opt::kOk && mn.value >= 0) &&
              mn.kind != poly::IntegerSet::Opt::kEmpty;
      }
    }
    if (brk) {
      ++cur;
      band_start = k;
    }
    band[k] = cur;
  }
  return band;
}

}  // namespace pf::sched
