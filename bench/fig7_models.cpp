// Figure 7 (the headline result) + Table 2.
//
// For every benchmark and every fusion strategy, evaluate the transformed
// program on the modeled 8-core Xeon (cache simulator + parallel cost
// model; DESIGN.md substitution #2) and print performance normalized to
// the icc-like baseline, with the geometric mean -- the same presentation
// as the paper's Figure 7. A second table reports single-thread JIT
// wall-clock (reuse only; this container has one core).
//
// Expected shape (paper Section 5.3): wisefuse >= smartfuse everywhere,
// with large gaps on the large programs and on the parallelism-conflict
// programs (advect, swim); parity on lu/tce; nofuse competitive on gemver.
#include "common.h"

int main() {
  using namespace pf;
  using bench::Strategy;

  // Table 2: the benchmark inventory.
  {
    TextTable t({"Benchmark", "Suite", "Category", "N (modeled run)"});
    for (const suite::Benchmark& b : suite::all_benchmarks())
      t.add_row({b.name, b.suite_name, b.category,
                 std::to_string(b.bench_params[0])});
    std::cout << "== Table 2: benchmark summary ==\n" << t.to_string() << "\n";
  }

  machine::MachineConfig cfg;  // 8-core Xeon E5-2650 model

  TextTable fig7({"Benchmark", "baseline", "wisefuse", "smartfuse", "nofuse",
                  "maxfuse"});
  TextTable cycles_table({"Benchmark", "baseline", "wisefuse", "smartfuse",
                          "nofuse", "maxfuse"});
  TextTable wall({"Benchmark", "baseline", "wisefuse", "smartfuse", "nofuse",
                  "maxfuse"});
  std::vector<std::vector<double>> perf_columns(bench::all_strategies().size());
  bool have_jit = true;

  for (const suite::Benchmark& b : suite::all_benchmarks()) {
    std::vector<std::string> row{b.name}, crow{b.name}, wrow{b.name};
    double baseline_cycles = 0;
    std::size_t column = 0;
    for (const Strategy s : bench::all_strategies()) {
      const bench::Variant v = bench::build_variant(b, s);
      const machine::ModelReport r = bench::model_variant(b, v, cfg);
      if (s == Strategy::kBaseline) baseline_cycles = r.modeled_cycles;
      const double normalized = baseline_cycles / r.modeled_cycles;
      perf_columns[column].push_back(normalized);
      row.push_back(fmt_double(normalized, 2));
      crow.push_back(fmt_double(r.modeled_cycles / 1e6, 1) + "M");
      if (const auto secs = bench::time_variant_jit(b, v))
        wrow.push_back(fmt_double(*secs * 1e3, 1) + "ms");
      else
        have_jit = false;
      ++column;
    }
    fig7.add_row(row);
    cycles_table.add_row(crow);
    if (have_jit) wall.add_row(wrow);
    std::cout << "... " << b.name << " done\n" << std::flush;
  }
  {
    std::vector<std::string> gm{"GM"};
    for (const auto& col : perf_columns)
      gm.push_back(fmt_double(bench::geometric_mean(col), 2));
    fig7.add_row(gm);
  }

  std::cout << "\n== Figure 7: performance normalized to the icc-like "
               "baseline (modeled 8-core Xeon) ==\n"
            << fig7.to_string();
  std::cout << "\n== Modeled cycles (absolute, millions) ==\n"
            << cycles_table.to_string();
  if (have_jit)
    std::cout << "\n== Single-thread JIT wall-clock (reuse only; median of 3) "
                 "==\n"
              << wall.to_string();
  std::cout << "\n== Solver work (pipeline-wide perf counters, JSON) ==\n"
            << support::current_metrics().to_json() << "\n";
  return 0;
}
