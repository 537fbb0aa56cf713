// Ablation: which of wisefuse's ingredients (paper Section 4.1/4.2) does
// the work? For each benchmark, run wisefuse with one ingredient disabled
// at a time and report nest-partition counts and modeled 8-core cycles:
//   full      -- Algorithm 1 + RAR + dimensionality grouping + Algorithm 2
//   no-rar    -- input dependences ignored when ordering SCCs
//   no-dim    -- dimensionality check dropped from Heuristic 1
//   no-order  -- no reordering at all (DFS/topological order kept)
//   no-alg2   -- outer-parallelism pass disabled
#include <set>

#include "common.h"

int main() {
  using namespace pf;

  struct Config {
    const char* name;
    fusion::WisefuseOptions opts;
  };
  std::vector<Config> configs;
  configs.push_back({"full", {}});
  {
    fusion::WisefuseOptions o;
    o.use_rar = false;
    configs.push_back({"no-rar", o});
  }
  {
    fusion::WisefuseOptions o;
    o.require_same_dim = false;
    configs.push_back({"no-dim", o});
  }
  {
    fusion::WisefuseOptions o;
    o.reorder = false;
    configs.push_back({"no-order", o});
  }
  {
    fusion::WisefuseOptions o;
    o.enforce_outer_parallelism = false;
    configs.push_back({"no-alg2", o});
  }

  machine::MachineConfig cfg;

  TextTable parts_table({"Benchmark", "full", "no-rar", "no-dim", "no-order",
                         "no-alg2"});
  TextTable cycles({"Benchmark", "full", "no-rar", "no-dim", "no-order",
                    "no-alg2"});
  for (const suite::Benchmark& b : suite::all_benchmarks()) {
    std::vector<std::string> prow{b.name}, crow{b.name};
    double full_cycles = 0;
    for (const Config& c : configs) {
      auto scop = std::make_shared<ir::Scop>(suite::parse(b));
      const auto dg = ddg::DependenceGraph::analyze(*scop);
      auto policy = fusion::make_wisefuse(c.opts);
      const auto sch = sched::compute_schedule(*scop, dg, *policy);
      const auto ast = codegen::generate_ast(*scop, sch);
      exec::ArrayStore store(*scop, b.bench_params);
      suite::init_store(store);
      const auto report = machine::evaluate(*ast, store, cfg);
      const auto parts = sch.nest_partitions();
      const int np = static_cast<int>(
          std::set<int>(parts.begin(), parts.end()).size());
      prow.push_back(std::to_string(np));
      if (c.opts.use_rar && c.opts.require_same_dim && c.opts.reorder &&
          c.opts.enforce_outer_parallelism)
        full_cycles = report.modeled_cycles;
      crow.push_back(fmt_double(report.modeled_cycles / full_cycles, 2) + "x");
    }
    parts_table.add_row(prow);
    cycles.add_row(crow);
    std::cout << "... " << b.name << " done\n" << std::flush;
  }
  std::cout << "\n== Ablation: nest partition count per wisefuse variant ==\n"
            << parts_table.to_string();
  std::cout << "\n== Ablation: modeled cycles relative to full wisefuse "
               "(lower is better; 1.00x = full) ==\n"
            << cycles.to_string();
  return 0;
}
