// Figure 8: fusion partitioning achieved by the different models for the
// gemsfdtd UPMLupdateh-like routine. One row per SCC: its dimensionality
// and the partition (loop nest) it lands in under the icc-like baseline,
// smartfuse and wisefuse -- the same columns as the paper's figure, plus
// maxfuse for completeness.
#include <map>
#include <set>

#include "common.h"

int main() {
  using namespace pf;
  using bench::Strategy;

  const suite::Benchmark& b = suite::benchmark("gemsfdtd");
  const ir::Scop scop = suite::parse(b);
  const auto dg = ddg::DependenceGraph::analyze(scop);
  const auto sccs = dg.sccs();

  // Partition ids per SCC for each strategy.
  std::map<Strategy, std::vector<int>> scc_partition;
  std::map<Strategy, int> partition_count;
  for (const Strategy s :
       {Strategy::kBaseline, Strategy::kSmartfuse, Strategy::kWisefuse,
        Strategy::kMaxfuse}) {
    const bench::Variant v = bench::build_variant(b, s);
    const auto parts = v.schedule.nest_partitions();
    std::vector<int> per_scc(sccs.num_sccs(), -1);
    for (std::size_t st = 0; st < parts.size(); ++st)
      per_scc[static_cast<std::size_t>(sccs.scc_of[st])] = parts[st];
    scc_partition[s] = per_scc;
    std::set<int> distinct(parts.begin(), parts.end());
    partition_count[s] = static_cast<int>(distinct.size());
  }

  TextTable t({"SCC", "dim", "icc-like", "smartfuse", "wisefuse", "maxfuse"});
  for (std::size_t scc = 0; scc < sccs.num_sccs(); ++scc) {
    const std::size_t any_stmt = sccs.members[scc].front();
    t.add_row({std::to_string(scc),
               std::to_string(scop.statement(any_stmt).dim()),
               std::to_string(scc_partition[Strategy::kBaseline][scc]),
               std::to_string(scc_partition[Strategy::kSmartfuse][scc]),
               std::to_string(scc_partition[Strategy::kWisefuse][scc]),
               std::to_string(scc_partition[Strategy::kMaxfuse][scc])});
  }
  std::cout << "== Figure 8: fusion partitioning for gemsfdtd "
               "(UPMLupdateh-like) ==\n"
            << t.to_string() << "\n";
  std::cout << "partition counts: icc-like="
            << partition_count[Strategy::kBaseline]
            << " smartfuse=" << partition_count[Strategy::kSmartfuse]
            << " wisefuse=" << partition_count[Strategy::kWisefuse]
            << " maxfuse=" << partition_count[Strategy::kMaxfuse] << "\n";
  std::cout << "(paper: wisefuse minimizes the number of partitions; "
               "smartfuse fragments across interleaved dimensionalities)\n";
  return 0;
}
