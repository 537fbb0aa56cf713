// Tests for the compute-fuel budget machinery (src/support/budget) and
// the degradation chain it drives: exhaustion and injection semantics,
// scope/suspend nesting, the deterministic task-splitting used by the
// parallel dependence phase, conservative solver answers under budget,
// and an end-to-end check that tiny budgets still yield correct code.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "analysis/reductions.h"
#include "codegen/codegen.h"
#include "ddg/dependences.h"
#include "exec/interp.h"
#include "frontend/parser.h"
#include "fusion/models.h"
#include "poly/set.h"
#include "poly/set_union.h"
#include "sched/analysis.h"
#include "sched/pluto.h"
#include "suite/suite.h"
#include "suite/synthetic.h"
#include "support/budget.h"
#include "support/metrics.h"
#include "support/threadpool.h"
#include "support/trace.h"
#include "verify/verify.h"

namespace pf::support {
namespace {

BudgetSpec fuel_spec(i64 fuel) {
  BudgetSpec spec;
  spec.fuel = fuel;
  return spec;
}

TEST(BudgetSite, NamesRoundTrip) {
  for (std::size_t i = 0; i < kNumBudgetSites; ++i) {
    const auto site = static_cast<BudgetSite>(i);
    const auto back = budget_site_from_string(to_string(site));
    ASSERT_TRUE(back.has_value()) << to_string(site);
    EXPECT_EQ(*back, site);
  }
  EXPECT_FALSE(budget_site_from_string("not_a_site").has_value());
  EXPECT_FALSE(budget_site_from_string("").has_value());
}

TEST(Budget, FuelExhaustionThrowsAtTheExactCharge) {
  Budget b(fuel_spec(3));
  b.charge(BudgetSite::kLpSolve);
  b.charge(BudgetSite::kLpSolve);
  b.charge(BudgetSite::kLpSolve);
  EXPECT_EQ(b.fuel_remaining(), 0);
  EXPECT_EQ(b.spent(), 3);
  EXPECT_EQ(b.faults(), 0);
  try {
    b.charge(BudgetSite::kFmeProject);
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.site(), BudgetSite::kFmeProject);
    EXPECT_EQ(e.kind(), BudgetExceeded::Kind::kFuel);
    EXPECT_FALSE(e.injected());
    EXPECT_STREQ(e.cause(), "fuel-exhausted");
    EXPECT_NE(std::string(e.what()).find("fuel exhausted"),
              std::string::npos);
  }
  EXPECT_EQ(b.faults(), 1);
  EXPECT_EQ(b.fuel_remaining(), 0);
}

TEST(Budget, MultiUnitChargeOverdraws) {
  Budget b(fuel_spec(5));
  b.charge(BudgetSite::kDepPair, 5);
  EXPECT_THROW(b.charge(BudgetSite::kDepPair, 1), BudgetExceeded);
  Budget c(fuel_spec(5));
  EXPECT_THROW(c.charge(BudgetSite::kDepPair, 6), BudgetExceeded);
}

TEST(Budget, UnlimitedSpecNeverThrows) {
  Budget b{BudgetSpec{}};
  EXPECT_FALSE(b.limited());
  for (int i = 0; i < 1000; ++i) b.charge(BudgetSite::kLpSolve);
  EXPECT_EQ(b.spent(), 1000);
  EXPECT_EQ(b.fuel_remaining(), -1);
}

TEST(Budget, ScopeInstallsAndRestores) {
  EXPECT_EQ(current_budget(), nullptr);
  budget_charge(BudgetSite::kLpSolve);  // no budget: must be a no-op
  EXPECT_FALSE(budget_limited());
  Budget b(fuel_spec(2));
  {
    BudgetScope scope(&b);
    EXPECT_EQ(current_budget(), &b);
    EXPECT_TRUE(budget_limited());
    budget_charge(BudgetSite::kLpSolve);
    EXPECT_EQ(b.spent(), 1);
    {
      BudgetSuspend suspend;
      EXPECT_EQ(current_budget(), nullptr);
      budget_charge(BudgetSite::kLpSolve);  // suspended: no spend
      EXPECT_EQ(b.spent(), 1);
    }
    EXPECT_EQ(current_budget(), &b);
  }
  EXPECT_EQ(current_budget(), nullptr);
}

TEST(Budget, InjectionFiresOnceAtItsOrdinal) {
  BudgetSpec spec;
  spec.injections.push_back({BudgetSite::kJitCc, 1});
  Budget b(spec);
  EXPECT_TRUE(b.limited());
  b.op(BudgetSite::kJitCc);  // ordinal 0: fine
  try {
    b.op(BudgetSite::kJitCc);  // ordinal 1: injected fault
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& e) {
    EXPECT_TRUE(e.injected());
    EXPECT_STREQ(e.cause(), "fault-injected");
    EXPECT_EQ(e.site(), BudgetSite::kJitCc);
  }
  b.op(BudgetSite::kJitCc);  // ordinal 2: single-shot, succeeds again
  b.op(BudgetSite::kLpSolve);  // other sites unaffected
  EXPECT_EQ(b.faults(), 1);
}

TEST(Budget, OpAtUsesTheCallerOrdinal) {
  BudgetSpec spec;
  spec.injections.push_back({BudgetSite::kDepPair, 7});
  Budget b(spec);
  b.op_at(BudgetSite::kDepPair, 6);
  EXPECT_THROW(b.op_at(BudgetSite::kDepPair, 7), BudgetExceeded);
  b.op_at(BudgetSite::kDepPair, 8);
  // op_at never advances the per-budget ordinal counter.
  b.op(BudgetSite::kDepPair);  // ordinal 0
}

TEST(Budget, DeadlineExpiresOnOps) {
  BudgetSpec spec;
  spec.deadline_ms = 0;
  Budget b(spec);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  try {
    b.op(BudgetSite::kPlutoLevel);
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.kind(), BudgetExceeded::Kind::kDeadline);
    EXPECT_STREQ(e.cause(), "deadline-expired");
  }
}

TEST(Budget, DeadlineExpiresOnChargesWithinAStride) {
  BudgetSpec spec;
  spec.deadline_ms = 0;
  Budget b(spec);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  // The clock is only read every 64 charges; well before 1000 the
  // deadline must have been noticed.
  EXPECT_THROW(
      {
        for (int i = 0; i < 1000; ++i) b.charge(BudgetSite::kLpSolve);
      },
      BudgetExceeded);
}

TEST(Budget, TaskSplitIsDeterministicAndAbsorbs) {
  Budget root(fuel_spec(100));
  const i64 allowance = root.task_allowance(4);
  EXPECT_EQ(allowance, 25);
  // Allowance is computed once, so it is independent of task order.
  Budget t0 = root.make_task_budget(allowance);
  Budget t1 = root.make_task_budget(allowance);
  t0.charge(BudgetSite::kDepPair, 10);
  EXPECT_THROW(t1.charge(BudgetSite::kDepPair, 26), BudgetExceeded);
  root.absorb(t0);
  root.absorb(t1);
  EXPECT_EQ(root.spent(), 36);          // 10 + 26 (spend counted pre-fault)
  EXPECT_EQ(root.faults(), 1);          // t1's exhaustion
  EXPECT_EQ(root.fuel_remaining(), 64); // saturating deduction
  // Unlimited root: allowance stays unlimited.
  Budget unlimited{BudgetSpec{}};
  EXPECT_EQ(unlimited.task_allowance(8), -1);
}

TEST(Budget, ParseInjectionAcceptsEverySite) {
  for (std::size_t i = 0; i < kNumBudgetSites; ++i) {
    const auto site = static_cast<BudgetSite>(i);
    const std::string text =
        std::string(to_string(site)) + ":fail-after=3";
    std::string err;
    const auto inj = parse_injection(text, &err);
    ASSERT_TRUE(inj.has_value()) << text << ": " << err;
    EXPECT_EQ(inj->site, site);
    EXPECT_EQ(inj->fail_at, 3);
  }
}

TEST(Budget, ParseInjectionRejectsMalformedSpecs) {
  std::string err;
  EXPECT_FALSE(parse_injection("lp_solve", &err).has_value());
  EXPECT_NE(err.find("expected SITE:fail-after=K"), std::string::npos);
  EXPECT_FALSE(parse_injection("warp_core:fail-after=1", &err).has_value());
  EXPECT_NE(err.find("unknown injection site"), std::string::npos);
  EXPECT_FALSE(parse_injection("lp_solve:fail=1", &err).has_value());
  EXPECT_NE(err.find("fail-after"), std::string::npos);
  EXPECT_FALSE(parse_injection("lp_solve:fail-after=-1", &err).has_value());
  EXPECT_NE(err.find("non-negative"), std::string::npos);
  EXPECT_FALSE(parse_injection("lp_solve:fail-after=x", &err).has_value());
  EXPECT_FALSE(parse_injection("", &err).has_value());
}

// An empty set that needs actual solving (no constant contradiction):
// x >= 1 and x <= 0.
poly::IntegerSet contradictory_set() {
  poly::IntegerSet s(1);
  const auto x = poly::AffineExpr::var(1, 0);
  s.add_constraint(poly::Constraint::ge(x, poly::AffineExpr::constant(1, 1)));
  s.add_constraint(poly::Constraint::le(x, poly::AffineExpr::constant(1, 0)));
  return s;
}

TEST(BudgetPoly, IsEmptyDegradesToConservativeFalse) {
  const poly::IntegerSet s = contradictory_set();
  EXPECT_TRUE(s.is_empty());  // exact answer, no budget
  Budget starved(fuel_spec(0));
  BudgetScope scope(&starved);
  // Out of fuel the emptiness proof cannot run; "maybe nonempty" is the
  // sound answer (a dependence gets assumed), and nothing throws.
  EXPECT_FALSE(s.is_empty());
  EXPECT_GT(starved.faults(), 0);
}

TEST(BudgetPoly, IsEmptyStaysExactWithAmpleFuel) {
  const poly::IntegerSet s = contradictory_set();
  Budget rich(fuel_spec(1000000));
  BudgetScope scope(&rich);
  EXPECT_TRUE(s.is_empty());
  EXPECT_GT(rich.spent(), 0);  // the proof was charged
}

TEST(BudgetPoly, IntegerMinDegradesToUnknown) {
  poly::IntegerSet s(1);
  const auto x = poly::AffineExpr::var(1, 0);
  s.add_constraint(poly::Constraint::ge(x, poly::AffineExpr::constant(1, 3)));
  s.add_constraint(poly::Constraint::le(x, poly::AffineExpr::constant(1, 9)));
  const auto exact = s.integer_min(x);
  ASSERT_EQ(exact.kind, poly::IntegerSet::Opt::kOk);
  EXPECT_EQ(exact.value, 3);
  Budget starved(fuel_spec(0));
  BudgetScope scope(&starved);
  const auto degraded = s.integer_min(x);
  EXPECT_EQ(degraded.kind, poly::IntegerSet::Opt::kUnknown);
}

TEST(BudgetPoly, SetUnionAlgebraBurnsFuel) {
  poly::IntegerSet box(1);
  const auto x = poly::AffineExpr::var(1, 0);
  box.add_constraint(poly::Constraint::ge(x, poly::AffineExpr::constant(1, 0)));
  box.add_constraint(poly::Constraint::le(x, poly::AffineExpr::constant(1, 9)));
  const poly::SetUnion u = poly::SetUnion::wrap(box);
  Budget b(fuel_spec(1000000));
  BudgetScope scope(&b);
  const poly::SetUnion diff = u.subtract(contradictory_set());
  (void)diff;
  EXPECT_GT(b.spent(), 0);
}

// ---- end-to-end: budgets across the real pipeline --------------------

exec::ArrayStore run_program(const ir::Scop& scop,
                             const codegen::AstNode& ast) {
  exec::ArrayStore store(scop, {7});
  for (std::size_t a = 0; a < store.num_arrays(); ++a) {
    const double salt = static_cast<double>(a + 1);
    store.fill(a, [&](const IntVector& idx) {
      double v = 0.5 + salt;
      for (std::size_t d = 0; d < idx.size(); ++d)
        v += 0.03 * static_cast<double>(idx[d]) *
             (1.0 + static_cast<double>(d));
      return v;
    });
  }
  exec::interpret(ast, store);
  return store;
}

// Under any fuel level -- including zero -- the budgeted pipeline must
// produce a verified schedule whose execution matches the original
// program bit-for-bit. Quality may degrade; correctness may not.
TEST(BudgetPipeline, TinyBudgetsStayCorrectOnRandomPrograms) {
  for (unsigned seed = 0; seed < 6; ++seed) {
    const std::string src = suite::synthetic_program(seed);
    SCOPED_TRACE(src);
    const ir::Scop scop = frontend::parse_scop(src);

    // Unbudgeted reference run.
    const auto exact_dg = ddg::DependenceGraph::analyze(scop);
    sched::Schedule ident = sched::identity_schedule(scop);
    sched::annotate_dependences(ident, exact_dg);
    const auto ref_ast = codegen::generate_ast(scop, ident);
    const exec::ArrayStore ref = run_program(scop, *ref_ast);

    for (const i64 fuel : {i64{0}, i64{50}, i64{500}}) {
      SCOPED_TRACE("fuel=" + std::to_string(fuel));
      Budget budget(fuel_spec(fuel));
      BudgetScope scope(&budget);
      const auto dg = ddg::DependenceGraph::analyze(scop);
      const sched::Schedule sch = fusion::compute_schedule_degrading(
          scop, dg, fusion::FusionModel::kWisefuse);
      for (const std::size_t lvl : sch.satisfied_at) EXPECT_NE(lvl, SIZE_MAX);
      const auto ast = codegen::generate_ast(scop, sch);
      {
        // The verifier suspends the budget internally; it must agree the
        // (possibly degraded) schedule is legal against the (possibly
        // over-approximated) dependences it was computed from.
        const verify::Report r = verify::run_all(scop, dg, sch, ast.get());
        EXPECT_TRUE(r.ok()) << r.to_string(&scop);
      }
      const exec::ArrayStore got = run_program(scop, *ast);
      EXPECT_EQ(exec::ArrayStore::max_abs_diff(ref, got), 0.0);
    }
  }
}

// Budgeted dependence analysis must not depend on the worker count:
// per-pair sub-budgets + serial merge make jobs=1 and jobs=8 identical.
TEST(BudgetPipeline, BudgetedAnalysisIsJobsInvariant) {
  const std::string src = suite::synthetic_program(3);
  const ir::Scop scop = frontend::parse_scop(src);
  const auto run_at = [&](std::size_t jobs, i64 fuel) {
    set_default_jobs(jobs);
    Budget budget(fuel_spec(fuel));
    BudgetScope scope(&budget);
    const auto dg = ddg::DependenceGraph::analyze(scop);
    return dg.to_string();
  };
  for (const i64 fuel : {i64{0}, i64{40}, i64{100000}}) {
    const std::string serial = run_at(1, fuel);
    const std::string parallel = run_at(8, fuel);
    EXPECT_EQ(serial, parallel) << "fuel=" << fuel;
  }
  set_default_jobs(0);  // restore the env/hardware default
}

TEST(BudgetPipeline, InjectedPairFaultIsJobsInvariant) {
  const std::string src = suite::synthetic_program(3);
  const ir::Scop scop = frontend::parse_scop(src);
  const auto run_at = [&](std::size_t jobs) {
    set_default_jobs(jobs);
    BudgetSpec spec;
    spec.injections.push_back({BudgetSite::kDepPair, 0});
    Budget budget(spec);
    BudgetScope scope(&budget);
    const auto dg = ddg::DependenceGraph::analyze(scop);
    return dg.to_string();
  };
  const std::string serial = run_at(1);
  const std::string parallel = run_at(8);
  EXPECT_EQ(serial, parallel);
  set_default_jobs(0);
  // The injected over-approximation must actually mark assumed deps.
  EXPECT_NE(serial.find("assumed"), std::string::npos);
}

// The fusion-model chain: a single injected wisefuse fault must land on
// smartfuse (single-shot injection -- the next model's op succeeds),
// and the result must still be a legal schedule.
TEST(BudgetPipeline, ModelChainDowngradesOnInjectedFault) {
  const ir::Scop scop = frontend::parse_scop(R"(
    scop p(N) {
      context N >= 4;
      array a[N]; array b[N];
      for (i = 0 .. N-1) { S1: a[i] = i * 1.0; }
      for (i = 0 .. N-1) { S2: b[i] = a[i] + 1.0; }
    })");
  const auto dg = ddg::DependenceGraph::analyze(scop);
  BudgetSpec spec;
  spec.injections.push_back({BudgetSite::kFusionModel, 0});
  Budget budget(spec);
  BudgetScope scope(&budget);
  fusion::FusionModel used = fusion::FusionModel::kWisefuse;
  const sched::Schedule sch = fusion::compute_schedule_degrading(
      scop, dg, fusion::FusionModel::kWisefuse, {}, &used);
  EXPECT_EQ(used, fusion::FusionModel::kSmartfuse);
  for (const std::size_t lvl : sch.satisfied_at) EXPECT_NE(lvl, SIZE_MAX);
}

TEST(BudgetPipeline, UnbudgetedChainMatchesPlainScheduler) {
  const std::string src = suite::synthetic_program(1);
  const ir::Scop scop = frontend::parse_scop(src);
  const auto dg = ddg::DependenceGraph::analyze(scop);
  const auto policy = fusion::make_policy(fusion::FusionModel::kWisefuse);
  const sched::Schedule plain = sched::compute_schedule(scop, dg, *policy);
  fusion::FusionModel used = fusion::FusionModel::kNofuse;
  const sched::Schedule chained = fusion::compute_schedule_degrading(
      scop, dg, fusion::FusionModel::kWisefuse, {}, &used);
  EXPECT_EQ(used, fusion::FusionModel::kWisefuse);
  EXPECT_EQ(plain.to_string(), chained.to_string());
}

// The outcomes of the orientation_certificate trace spans a run left,
// in order; a certificate unwound by a budget fault reports "unwound".
std::vector<std::string> certificate_outcomes(const Tracer& tracer) {
  std::vector<std::string> out;
  for (const TraceEvent& span : tracer.events()) {
    if (span.name != "orientation_certificate") continue;
    std::string outcome = "unwound";
    for (const auto& [key, value] : span.attrs)
      if (key == "outcome") outcome = value;
    out.push_back(outcome);
  }
  return out;
}

// A fuel sweep over gemver under wisefuse (reductions relaxed, as the CLI
// runs it) that includes the exact fuel level at which a Pluto level runs
// dry inside the independence-orientation certificate. Fuel spend is
// deterministic, so the smallest fuel at which the certificate completes,
// minus one, exhausts on the certificate's last LP charge. That level
// must degrade to a scalar cut; every schedule of the sweep must verify
// and execute like the original program.
TEST(BudgetPipeline, FuelSweepThroughOrientationCertificate) {
  const ir::Scop scop = suite::parse(suite::benchmark("gemver"));
  const auto dg = ddg::DependenceGraph::analyze(scop);
  sched::SchedulerOptions opts;
  opts.relaxed_deps = analysis::analyze_reductions(scop, dg).relaxable;
  ASSERT_FALSE(opts.relaxed_deps.empty());

  sched::Schedule ident = sched::identity_schedule(scop);
  sched::annotate_dependences(ident, dg);
  const exec::ArrayStore ref =
      run_program(scop, *codegen::generate_ast(scop, ident));

  struct Run {
    sched::Schedule sch;
    i64 skips = 0;
    i64 downgrades = 0;
    i64 spent = 0;
  };
  const auto schedule_with = [&](i64 fuel) {
    Budget budget(fuel_spec(fuel));
    BudgetScope scope(&budget);
    MetricsScope metrics;
    Run run;
    run.sch = fusion::compute_schedule_degrading(
        scop, dg, fusion::FusionModel::kWisefuse, opts);
    run.skips = metrics.registry().get(Counter::kSchedOrientationSkips);
    run.downgrades = metrics.registry().get(Counter::kBudgetDowngrades);
    run.spent = budget.spent();
    return run;
  };

  const Run full = schedule_with(i64{1} << 40);
  ASSERT_EQ(full.skips, 1);
  ASSERT_EQ(full.downgrades, 0);
  // Smallest fuel at which the certificate completes.
  i64 lo = 0, hi = full.spent;
  ASSERT_EQ(schedule_with(lo).skips, 0);
  while (hi - lo > 1) {
    const i64 mid = lo + (hi - lo) / 2;
    if (schedule_with(mid).skips > 0)
      hi = mid;
    else
      lo = mid;
  }
  const i64 inside = hi - 1;
  {
    // The certificate outcomes of one run, traced into a tracer of its own.
    const auto traced_run = [&](i64 fuel, Run* run) {
      Tracer tracer(/*spans=*/true, /*remarks=*/false);
      TracerScope scope(&tracer);
      *run = schedule_with(fuel);
      return certificate_outcomes(tracer);
    };
    Run dry, done;
    EXPECT_EQ(traced_run(inside, &dry), std::vector<std::string>{"unwound"});
    EXPECT_EQ(traced_run(hi, &done), std::vector<std::string>{"skip"});
    EXPECT_EQ(dry.skips, 0);
    EXPECT_GE(dry.downgrades, 1);
  }

  for (const i64 fuel :
       {i64{0}, inside / 2, inside, hi, (hi + full.spent) / 2, full.spent}) {
    SCOPED_TRACE("fuel=" + std::to_string(fuel));
    const sched::Schedule sch = schedule_with(fuel).sch;
    const auto ast = codegen::generate_ast(scop, sch);
    const verify::Report r = verify::run_all(scop, dg, sch, ast.get());
    EXPECT_TRUE(r.ok()) << r.to_string(&scop);
    // Relaxed reductions may reassociate floating-point sums (the CLI's
    // --validate contract); nothing else may change a value.
    const double tol = sch.relaxed_deps.empty() ? 0.0 : 1e-9;
    EXPECT_LE(exec::ArrayStore::max_abs_diff(ref, run_program(scop, *ast)),
              tol);
  }
  EXPECT_EQ(schedule_with(full.spent).sch.to_string(), full.sch.to_string());
}

}  // namespace
}  // namespace pf::support
