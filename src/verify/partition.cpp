// Check (c): the fusion partition is a valid topological order of the
// DDG's SCC condensation (the postcondition of the paper's Algorithms
// 1-2).
//
// The outermost fusion partition of a statement is its vector of scalar
// schedule values before the first linear level; two statements share an
// outermost loop nest iff those vectors are equal, and the nests execute
// in the lexicographic order of the vectors. Recomputed here directly
// from the schedule matrices (not Schedule::outer_partitions) and
// checked against the strongly connected components of the statement-
// level dependence graph:
//
//   * no SCC may be split across partitions (statements on a dependence
//     cycle must stay fused), and
//   * every dependence edge crossing partitions must point forward in
//     partition execution order (the cut sequence is a topological order
//     of the condensation).
//
// SCCs are computed with Tarjan's algorithm; the DDG's own sccs() uses
// Kosaraju -- a deliberately independent implementation, in the spirit
// of the whole subsystem.
#include <algorithm>
#include <map>

#include "ddg/graph.h"
#include "support/trace.h"
#include "verify/internal.h"

namespace pf::verify {

namespace {

// First position where the two scalar-value vectors differ (they do
// differ when called), mapped back to its schedule level.
std::size_t first_diff_level(const std::vector<i64>& a,
                             const std::vector<i64>& b,
                             const std::vector<std::size_t>& levels) {
  for (std::size_t k = 0; k < a.size(); ++k)
    if (a[k] != b[k]) return levels[k];
  return SIZE_MAX;
}

}  // namespace

Report check_partition(const ddg::DependenceGraph& dg,
                       const sched::Schedule& sch) {
  // Purely structural: no ILP solves needed.
  support::TraceSpan span("verify", "partition");
  Report report;
  const std::string problem = detail::structure_problem(dg, sch);
  if (!problem.empty()) {
    Finding f;
    f.kind = CheckKind::kMalformed;
    f.detail = problem;
    detail::add_finding(&report, std::move(f));
    return report;
  }
  const ir::Scop& scop = dg.scop();
  const std::size_t n = sch.num_statements();

  // Scalar prefix: every level before the first linear one.
  std::vector<std::size_t> prefix;
  for (std::size_t l = 0; l < sch.num_levels() && !sch.level_linear[l]; ++l)
    prefix.push_back(l);

  std::vector<std::vector<i64>> key(n);
  for (std::size_t s = 0; s < n; ++s) {
    for (const std::size_t l : prefix) {
      if (!sch.rows[s][l].is_constant()) {
        Finding f;
        f.kind = CheckKind::kMalformed;
        f.src = s;
        f.dst = s;
        f.level = l;
        f.detail = "scalar level " + std::to_string(l) + " of " +
                   scop.statement(s).name() + " is not a constant row";
        detail::add_finding(&report, std::move(f));
        return report;
      }
      key[s].push_back(sch.rows[s][l].const_term());
    }
  }

  // Dense partition ids in execution (lexicographic key) order.
  std::map<std::vector<i64>, int> id_of_key;
  for (std::size_t s = 0; s < n; ++s) id_of_key.emplace(key[s], 0);
  int next = 0;
  for (auto& [k, id] : id_of_key) id = next++;
  std::vector<int> part(n);
  for (std::size_t s = 0; s < n; ++s) part[s] = id_of_key.at(key[s]);

  const std::vector<ddg::Edge> edges = dg.stmt_edges();
  const ddg::SccResult sccs = ddg::tarjan_sccs(n, edges);

  // An SCC split across partitions means a dependence cycle was cut.
  for (const std::vector<std::size_t>& members : sccs.members) {
    ++report.partition_checks;
    for (std::size_t k = 1; k < members.size(); ++k) {
      if (part[members[k]] == part[members[0]]) continue;
      Finding f;
      f.kind = CheckKind::kPartition;
      f.src = members[0];
      f.dst = members[k];
      f.level = first_diff_level(key[members[0]], key[members[k]], prefix);
      f.detail = "SCC containing " + scop.statement(members[0]).name() +
                 " and " + scop.statement(members[k]).name() +
                 " is split across fusion partitions " +
                 std::to_string(part[members[0]]) + " and " +
                 std::to_string(part[members[k]]);
      detail::add_finding(&report, std::move(f));
      break;  // one finding per split SCC is enough
    }
  }

  // Every dependence edge crossing partitions must point forward.
  for (const ddg::Edge& e : edges) {
    if (part[e.first] == part[e.second]) continue;
    ++report.partition_checks;
    if (part[e.first] < part[e.second]) continue;
    Finding f;
    f.kind = CheckKind::kPartition;
    f.src = e.first;
    f.dst = e.second;
    f.level = first_diff_level(key[e.first], key[e.second], prefix);
    f.detail = "dependence " + scop.statement(e.first).name() + " -> " +
               scop.statement(e.second).name() +
               " points backward in partition order (" +
               std::to_string(part[e.first]) + " after " +
               std::to_string(part[e.second]) + ")";
    detail::add_finding(&report, std::move(f));
  }

  if (span.active()) {
    span.attr("partitions", static_cast<i64>(id_of_key.size()));
    span.attr("sccs", static_cast<i64>(sccs.num_sccs()));
    span.attr("violations", static_cast<i64>(report.findings.size()));
  }
  return report;
}

}  // namespace pf::verify
