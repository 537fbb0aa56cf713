// Data reuse, measured: drive the cache simulator with the interpreter's
// access trace and compare miss counts of the original vs the wisefuse-
// transformed swim excerpt. This is the paper's core claim -- fusion
// turns cross-nest reuse into cache hits -- made visible per cache level.
#include <iostream>

#include "codegen/codegen.h"
#include "ddg/dependences.h"
#include "exec/storage.h"
#include "fusion/models.h"
#include "machine/perfmodel.h"
#include "sched/analysis.h"
#include "sched/pluto.h"
#include "suite/suite.h"
#include "support/strings.h"

int main() {
  using namespace pf;

  const suite::Benchmark& b = suite::benchmark("swim");
  const ir::Scop scop = suite::parse(b);
  const auto dg = ddg::DependenceGraph::analyze(scop);

  auto evaluate = [&](const sched::Schedule& sch) {
    const auto ast = codegen::generate_ast(scop, sch);
    exec::ArrayStore store(scop, b.bench_params);
    suite::init_store(store);
    return machine::evaluate(*ast, store);
  };

  sched::Schedule original = sched::identity_schedule(scop);
  sched::annotate_dependences(original, dg);
  const machine::ModelReport before = evaluate(original);

  auto policy = fusion::make_policy(fusion::FusionModel::kWisefuse);
  const machine::ModelReport after =
      evaluate(sched::compute_schedule(scop, dg, *policy));

  TextTable t({"metric", "original", "wisefuse", "change"});
  auto row = [&](const std::string& name, double a, double bv) {
    const double pct = a == 0 ? 0 : (bv - a) / a * 100.0;
    t.add_row({name, fmt_double(a, 0), fmt_double(bv, 0),
               fmt_double(pct, 1) + "%"});
  };
  row("accesses", static_cast<double>(before.cache.accesses),
      static_cast<double>(after.cache.accesses));
  for (std::size_t k = 0; k < before.cache.misses.size(); ++k)
    row(pf::concat("L", std::to_string(k + 1), " misses"),
        static_cast<double>(before.cache.misses[k]),
        static_cast<double>(after.cache.misses[k]));
  row("serial cycles", before.serial_cycles, after.serial_cycles);
  row("modeled 8-core cycles", before.modeled_cycles, after.modeled_cycles);

  std::cout << "swim (N = " << b.bench_params[0]
            << "), Xeon E5-2650 cache model:\n"
            << t.to_string();
  return 0;
}
