// Tests for src/analysis: value-based dataflow (ddg/dataflow.h) and
// the lints (run_lint). Negative tests inject one bug each -- an
// out-of-bounds write, a read of a never-written local-array cell, a
// fully dead local-array write -- and assert the exact structured
// finding (kind, statement, array, access, dim). A randomized test
// asserts every generator-produced program lints clean, mirroring the
// CLI acceptance bar.
#include <gtest/gtest.h>

#include <set>

#include "analysis/lint.h"
#include "analysis/locality.h"
#include "analysis/reductions.h"
#include "codegen/codegen.h"
#include "ddg/dataflow.h"
#include "ddg/dependences.h"
#include "exec/interp.h"
#include "frontend/parser.h"
#include "poly/set.h"
#include "sched/analysis.h"
#include "suite/suite.h"
#include "suite/synthetic.h"
#include "support/budget.h"
#include "support/metrics.h"
#include "support/threadpool.h"

namespace pf::analysis {
namespace {

using ddg::Dataflow;
using ddg::ReadCover;
using ddg::ValueFlow;

struct Linted {
  ir::Scop scop;
  ddg::DependenceGraph dg;
  LintReport report;

  explicit Linted(const std::string& src)
      : scop(frontend::parse_scop(src)),
        dg(ddg::DependenceGraph::analyze(scop)),
        report(run_lint(scop, dg)) {}
};

std::size_t array_id(const ir::Scop& scop, const std::string& name) {
  for (std::size_t i = 0; i < scop.arrays().size(); ++i)
    if (scop.arrays()[i].name == name) return i;
  ADD_FAILURE() << "no array named " << name;
  return SIZE_MAX;
}

// ---------------------------------------------------------------------------
// Value-based dataflow.
// ---------------------------------------------------------------------------

TEST(Dataflow, PipelineFlows) {
  Linted l(R"(scop pipeline(N) {
    context N >= 4;
    array a[N]; array b[N]; array c[N];
    for (i = 0 .. N-1) { S1: a[i] = i * 0.5; }
    for (i = 0 .. N-1) { S2: b[i] = a[i] * 2.0; }
    for (i = 0 .. N-1) { S3: c[i] = a[i] + b[i]; }
  })");
  const Dataflow df = *l.dg.dataflow();

  // Exactly the three producer/consumer value flows, no overwrites to
  // subtract: S1->S2 (a), S1->S3 (a), S2->S3 (b).
  ASSERT_EQ(df.flows.size(), 3u);
  for (const ValueFlow& f : df.flows) {
    EXPECT_FALSE(f.poly.is_empty());
    EXPECT_EQ(f.poly.dims(), f.src_dim + f.dst_dim + f.num_params);
  }
  EXPECT_EQ(df.flows[0].src, 0u);
  EXPECT_EQ(df.flows[0].dst, 1u);
  EXPECT_EQ(df.flows[1].src, 0u);
  EXPECT_EQ(df.flows[1].dst, 2u);
  EXPECT_EQ(df.flows[2].src, 1u);
  EXPECT_EQ(df.flows[2].dst, 2u);

  // Every read is covered by a write, so no read observes initial
  // array contents ...
  for (const ReadCover& rc : df.covers)
    EXPECT_TRUE(rc.uncovered.is_empty())
        << "S" << rc.stmt + 1 << " access " << rc.access;
  // ... and every written value is consumed (c is live-out: "unused"
  // under value flow, but never overwritten).
  EXPECT_TRUE(df.writes[0].unused.is_empty());
  EXPECT_TRUE(df.writes[1].unused.is_empty());
  EXPECT_FALSE(df.writes[2].unused.is_empty());
  EXPECT_TRUE(df.writes[2].killed.is_empty());
}

TEST(Dataflow, LastWriterSubtraction) {
  // S2 overwrites every cell S1 wrote, so only S2 feeds S3: the
  // memory-based flow S1->S3 must vanish under value-based dataflow.
  Linted l(R"(scop overwrite(N) {
    context N >= 4;
    array a[N]; array b[N];
    for (i = 0 .. N-1) { S1: a[i] = i * 1.0; }
    for (i = 0 .. N-1) { S2: a[i] = i * 2.0; }
    for (i = 0 .. N-1) { S3: b[i] = a[i]; }
  })");
  const Dataflow df = *l.dg.dataflow();
  for (const ValueFlow& f : df.flows)
    EXPECT_FALSE(f.src == 0 && f.dst == 2)
        << "killed memory flow S1->S3 survived subtraction";
  bool s2_feeds_s3 = false;
  for (const ValueFlow& f : df.flows)
    if (f.src == 1 && f.dst == 2) s2_feeds_s3 = true;
  EXPECT_TRUE(s2_feeds_s3);
  // S1's writes are all overwritten and never consumed.
  EXPECT_FALSE(df.writes[0].unused.is_empty());
  EXPECT_FALSE(df.writes[0].killed.is_empty());
}

TEST(Dataflow, PartialOverwriteSplitsFlow) {
  // S2 overwrites only the first half; S1 still feeds S3 on the second
  // half. The surviving flow is a proper subset -- SetUnion territory.
  Linted l(R"(scop half(N) {
    context N >= 8;
    array a[N]; array b[N];
    for (i = 0 .. N-1) { S1: a[i] = i * 1.0; }
    for (i = 0 .. N-5) { S2: a[i] = i * 2.0; }
    for (i = 0 .. N-1) { S3: b[i] = a[i]; }
  })");
  const Dataflow df = *l.dg.dataflow();
  bool s1_feeds_s3 = false;
  for (const ValueFlow& f : df.flows)
    if (f.src == 0 && f.dst == 2) {
      s1_feeds_s3 = true;
      // The flow lives only where S2 did not overwrite: src iterator
      // (dim 0) must exceed N-5 everywhere in the flow.
      for (const poly::IntegerSet& d : f.poly.disjuncts()) {
        const auto pt = d.sample_point();
        ASSERT_TRUE(pt.has_value());
        // Space is [s, t, N]: s = (*pt)[0], N = (*pt)[2].
        EXPECT_GT((*pt)[0], (*pt)[2] - 5);
      }
    }
  EXPECT_TRUE(s1_feeds_s3);
}

// ---------------------------------------------------------------------------
// One dataflow build per graph: the graph keeps the build only while the
// memo gate (poly::active_memo) is open.
// ---------------------------------------------------------------------------

// The three consumers in the CLI's order on one graph, counted in a
// fresh registry: {dataflow_builds, dataflow_memo_hits}.
std::pair<i64, i64> run_three_analyses(const suite::Benchmark& b,
                                       const ir::Scop& scop,
                                       const ddg::DependenceGraph& dg) {
  support::MetricsScope metrics;
  run_lint(scop, dg);
  analyze_locality(scop, dg, b.test_params);
  analyze_reductions_degrading(scop, dg);
  return {metrics.registry().get(support::Counter::kDataflowBuilds),
          metrics.registry().get(support::Counter::kDataflowMemoHits)};
}

// Without a request scope the gate is closed and each consumer builds
// its own; inside one the first build serves the other two.
TEST(DataflowMemo, OnlyARequestScopeShares) {
  const suite::Benchmark& b = suite::benchmark("swim");
  const ir::Scop scop = suite::parse(b);
  const ddg::DependenceGraph dg = ddg::DependenceGraph::analyze(scop);
  EXPECT_EQ(run_three_analyses(b, scop, dg), (std::pair<i64, i64>(3, 0)));
  poly::SolveCacheScope cache;
  EXPECT_EQ(run_three_analyses(b, scop, dg), (std::pair<i64, i64>(1, 2)));
  EXPECT_EQ(dg.dataflow().get(), dg.dataflow().get());
}

TEST(DataflowMemo, ConcurrentAskersShareOneBuild) {
  Linted l(R"(scop pipeline(N) {
    context N >= 4;
    array a[N]; array b[N]; array c[N];
    for (i = 0 .. N-1) { S1: a[i] = i * 0.5; }
    for (i = 0 .. N-1) { S2: b[i] = a[i] * 2.0; }
    for (i = 0 .. N-1) { S3: c[i] = a[i] + b[i]; }
  })");
  support::MetricsScope metrics;
  poly::SolveCacheScope cache;
  constexpr std::size_t kAskers = 8;
  std::vector<const Dataflow*> got(kAskers, nullptr);
  support::ThreadPool pool(4);
  pool.parallel_for(0, kAskers,
                    [&](std::size_t i) { got[i] = l.dg.dataflow().get(); });
  for (const Dataflow* df : got) EXPECT_EQ(df, got[0]);
  EXPECT_EQ(metrics.registry().get(support::Counter::kDataflowBuilds), 1);
  EXPECT_EQ(metrics.registry().get(support::Counter::kDataflowMemoHits),
            static_cast<i64>(kAskers) - 1);
}

// A graph serves the dataflow of its own scop, so every consumer refuses
// a graph built for another one.
TEST(DataflowMemo, MismatchedScopRaises) {
  const suite::Benchmark& b = suite::benchmark("gemver");
  const ir::Scop scop = suite::parse(b);
  const ir::Scop other = suite::parse(b);
  const ddg::DependenceGraph dg = ddg::DependenceGraph::analyze(scop);
  EXPECT_THROW(run_lint(other, dg), pf::Error);
  EXPECT_THROW(analyze_locality(other, dg, b.test_params), pf::Error);
  EXPECT_THROW(analyze_reductions(other, dg), pf::Error);
  EXPECT_THROW(analyze_reductions_degrading(other, dg), pf::Error);
}

// ---------------------------------------------------------------------------
// Negative lints: injected bugs, exact findings.
// ---------------------------------------------------------------------------

TEST(Lint, OutOfBoundsWrite) {
  // Loop runs to N inclusive; a has extent N (valid indices 0..N-1).
  Linted l(R"(scop oob(N) {
    context N >= 4;
    array a[N];
    for (i = 0 .. N) { S1: a[i] = i * 1.0; }
  })");
  ASSERT_EQ(l.report.num_errors(), 1u);
  const LintFinding* f = nullptr;
  for (const LintFinding& x : l.report.findings)
    if (x.severity == Severity::kError) f = &x;
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->kind, LintKind::kOutOfBounds);
  EXPECT_EQ(f->stmt, 0u);
  EXPECT_EQ(f->array, array_id(l.scop, "a"));
  EXPECT_EQ(f->access, 0u);  // the write
  EXPECT_EQ(f->dim, 0u);
  EXPECT_FALSE(l.report.ok());
}

TEST(Lint, OutOfBoundsReadBelowZero) {
  Linted l(R"(scop under(N) {
    context N >= 4;
    array a[N]; array b[N];
    for (i = 0 .. N-1) { S1: b[i] = a[i-1]; }
  })");
  ASSERT_EQ(l.report.num_errors(), 1u);
  const LintFinding& f = l.report.findings[0];
  EXPECT_EQ(f.kind, LintKind::kOutOfBounds);
  EXPECT_EQ(f.stmt, 0u);
  EXPECT_EQ(f.array, array_id(l.scop, "a"));
  EXPECT_EQ(f.access, 1u);  // first read
  EXPECT_EQ(f.dim, 0u);
}

TEST(Lint, UninitializedLocalRead) {
  // t[0] is read but never written (writes start at i = 1).
  Linted l(R"(scop uninit(N) {
    context N >= 4;
    local array t[N]; array b[N];
    for (i = 1 .. N-1) { S1: t[i] = i * 1.0; }
    for (i = 0 .. N-1) { S2: b[i] = t[i]; }
  })");
  const LintFinding* f = nullptr;
  for (const LintFinding& x : l.report.findings)
    if (x.kind == LintKind::kUninitRead) f = &x;
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_EQ(f->stmt, 1u);  // S2, the reader
  EXPECT_EQ(f->array, array_id(l.scop, "t"));
  EXPECT_EQ(f->access, 1u);
  EXPECT_FALSE(l.report.ok());
}

TEST(Lint, UncoveredReadOfGlobalArrayIsLiveIn) {
  // Identical shape, but t is a regular array: the uncovered read is
  // the scop's live-in set, not a bug.
  Linted l(R"(scop livein(N) {
    context N >= 4;
    array t[N]; array b[N];
    for (i = 1 .. N-1) { S1: t[i] = i * 1.0; }
    for (i = 0 .. N-1) { S2: b[i] = t[i]; }
  })");
  for (const LintFinding& x : l.report.findings)
    EXPECT_NE(x.kind, LintKind::kUninitRead);
  EXPECT_TRUE(l.report.ok());
}

TEST(Lint, DeadLocalWrite) {
  // Every write to t is unconsumed: local array, so all of them are
  // dead (no live-out role to excuse them).
  Linted l(R"(scop dead(N) {
    context N >= 4;
    local array t[N]; array b[N];
    for (i = 0 .. N-1) { S1: t[i] = i * 1.0; }
    for (i = 0 .. N-1) { S2: b[i] = i * 2.0; }
  })");
  const LintFinding* f = nullptr;
  for (const LintFinding& x : l.report.findings)
    if (x.kind == LintKind::kDeadWrite) f = &x;
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_EQ(f->stmt, 0u);
  EXPECT_EQ(f->array, array_id(l.scop, "t"));
  EXPECT_FALSE(l.report.ok());
}

TEST(Lint, OverwrittenGlobalWriteIsWarning) {
  // S1's writes are overwritten by S2 and never read: a classical dead
  // store on a regular array -- warning severity, lint still passes.
  Linted l(R"(scop shadow(N) {
    context N >= 4;
    array a[N];
    for (i = 0 .. N-1) { S1: a[i] = i * 1.0; }
    for (i = 0 .. N-1) { S2: a[i] = i * 2.0; }
  })");
  const LintFinding* f = nullptr;
  for (const LintFinding& x : l.report.findings)
    if (x.kind == LintKind::kDeadWrite) f = &x;
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kWarning);
  EXPECT_EQ(f->stmt, 0u);
  EXPECT_TRUE(l.report.ok());
}

TEST(Lint, FinalGlobalWriteIsNotDead) {
  // An un-overwritten, unread write to a regular array is the scop's
  // output -- no finding at all.
  Linted l(R"(scop out(N) {
    context N >= 4;
    array a[N];
    for (i = 0 .. N-1) { S1: a[i] = i * 1.0; }
  })");
  for (const LintFinding& x : l.report.findings)
    EXPECT_NE(x.kind, LintKind::kDeadWrite);
  EXPECT_TRUE(l.report.ok());
}

// ---------------------------------------------------------------------------
// Performance diagnostics (never affect ok()).
// ---------------------------------------------------------------------------

TEST(Lint, TransposedAccessPerfNote) {
  Linted l(R"(scop matmul(N) {
    context N >= 4;
    array A[N][N]; array B[N][N]; array C[N][N];
    for (i = 0 .. N-1) { for (j = 0 .. N-1) { for (k = 0 .. N-1) {
      S1: C[i][j] = C[i][j] + A[i][k] * B[k][j];
    } } }
  })");
  const LintFinding* f = nullptr;
  for (const LintFinding& x : l.report.findings)
    if (x.kind == LintKind::kNonContiguous) f = &x;
  ASSERT_NE(f, nullptr) << l.report.to_string(&l.scop);
  EXPECT_EQ(f->severity, Severity::kPerf);
  EXPECT_EQ(f->array, array_id(l.scop, "B"));  // B[k][j]: k innermost, dim 0
  EXPECT_EQ(f->dim, 0u);
  EXPECT_TRUE(l.report.ok());  // perf notes never fail a lint
}

TEST(Lint, FusionDistancePerfNote) {
  // Consumer reads a[i-2]: constant nonzero producer distance.
  Linted l(R"(scop shifted(N) {
    context N >= 4;
    array a[N]; array b[N];
    for (i = 0 .. N-1) { S1: a[i] = i * 1.0; }
    for (i = 2 .. N-1) { S2: b[i] = a[i-2]; }
  })");
  const LintFinding* f = nullptr;
  for (const LintFinding& x : l.report.findings)
    if (x.kind == LintKind::kFusionDistance) f = &x;
  ASSERT_NE(f, nullptr) << l.report.to_string(&l.scop);
  EXPECT_EQ(f->severity, Severity::kPerf);
  EXPECT_EQ(f->stmt, 0u);
  EXPECT_EQ(f->stmt2, 1u);
  EXPECT_TRUE(l.report.ok());
}

// ---------------------------------------------------------------------------
// Clean programs stay clean.
// ---------------------------------------------------------------------------

TEST(Lint, ReportCountsAndSummary) {
  Linted l(R"(scop clean(N) {
    context N >= 4;
    array a[N]; array b[N];
    for (i = 0 .. N-1) { S1: a[i] = i * 0.5; }
    for (i = 0 .. N-1) { S2: b[i] = a[i] * 2.0; }
  })");
  EXPECT_TRUE(l.report.ok());
  EXPECT_EQ(l.report.num_errors(), 0u);
  EXPECT_EQ(l.report.checked_accesses, 3u);
  EXPECT_EQ(l.report.value_flows, 1u);
  EXPECT_NE(l.report.summary().find("ok"), std::string::npos);
}

TEST(Lint, SyntheticProgramsLintClean) {
  // The generator only emits in-bounds accesses of regular (live-in /
  // live-out) arrays: no error-severity finding may ever fire. This is
  // the test-suite twin of the CLI bar "--lint=strict exits 0 on
  // generator output".
  for (unsigned seed = 0; seed < 12; ++seed) {
    Linted l(suite::synthetic_program(seed));
    EXPECT_TRUE(l.report.ok())
        << "seed " << seed << ":\n"
        << l.report.to_string(&l.scop) << "\n"
        << suite::synthetic_program(seed);
  }
}

// ---------------------------------------------------------------------------
// Locality analysis (--analyze): exact counts vs hand computation and vs
// a brute-force ground truth from actually running the program -- the
// interpreter's per-statement execution counts and the set of distinct
// cells its trace hook touches per array.
// ---------------------------------------------------------------------------

struct GroundTruth {
  std::vector<std::size_t> instances;  // per statement
  std::vector<i64> footprint;          // per array: distinct cells touched
  std::vector<i64> accesses;           // per array: dynamic accesses
};

GroundTruth interpret_ground_truth(const ir::Scop& scop,
                                   const ddg::DependenceGraph& dg,
                                   const IntVector& params) {
  sched::Schedule ident = sched::identity_schedule(scop);
  sched::annotate_dependences(ident, dg);
  const codegen::AstPtr ast = codegen::generate_ast(scop, ident);
  exec::ArrayStore store(scop, params);
  std::vector<std::set<i64>> cells(scop.arrays().size());
  GroundTruth gt;
  gt.footprint.assign(scop.arrays().size(), 0);
  gt.accesses.assign(scop.arrays().size(), 0);
  const exec::TraceHook hook = [&](std::size_t array, i64 idx, bool) {
    cells[array].insert(idx);
    ++gt.accesses[array];
  };
  const exec::InterpStats stats = exec::interpret(*ast, store, hook);
  gt.instances = stats.per_statement;
  for (std::size_t a = 0; a < cells.size(); ++a)
    gt.footprint[a] = static_cast<i64>(cells[a].size());
  return gt;
}

void expect_matches_ground_truth(const ir::Scop& scop,
                                 const ddg::DependenceGraph& dg,
                                 const IntVector& params,
                                 const std::string& label) {
  const LocalityReport rep = analyze_locality(scop, dg, params);
  const GroundTruth gt = interpret_ground_truth(scop, dg, params);
  ASSERT_TRUE(rep.context_satisfied) << label;
  ASSERT_EQ(rep.statements.size(), gt.instances.size()) << label;
  for (const StatementVolume& sv : rep.statements) {
    ASSERT_TRUE(sv.instances.is_exact())
        << label << " S" << sv.stmt + 1 << " -> " << sv.instances.to_string();
    EXPECT_EQ(sv.instances.value, static_cast<i64>(gt.instances[sv.stmt]))
        << label << " S" << sv.stmt + 1;
  }
  ASSERT_EQ(rep.arrays.size(), scop.arrays().size()) << label;
  for (const ArrayLocality& al : rep.arrays) {
    const std::string& name = scop.arrays()[al.array].name;
    ASSERT_TRUE(al.footprint.is_exact())
        << label << " " << name << " -> " << al.footprint.to_string();
    ASSERT_TRUE(al.accesses.is_exact()) << label << " " << name;
    ASSERT_TRUE(al.reuse.is_exact()) << label << " " << name;
    EXPECT_EQ(al.footprint.value, gt.footprint[al.array])
        << label << " footprint of " << name;
    EXPECT_EQ(al.accesses.value, gt.accesses[al.array])
        << label << " accesses of " << name;
    EXPECT_EQ(al.reuse.value, al.accesses.value - al.footprint.value)
        << label << " reuse of " << name;
  }
}

TEST(Locality, PipelineExactCounts) {
  Linted l(R"(scop pipeline(N) {
    context N >= 4;
    array a[N]; array b[N]; array c[N];
    for (i = 0 .. N-1) { S1: a[i] = i * 0.5; }
    for (i = 0 .. N-1) { S2: b[i] = a[i] * 2.0; }
    for (i = 0 .. N-1) { S3: c[i] = a[i] + b[i]; }
  })");
  const IntVector params{8};
  const LocalityReport rep = analyze_locality(l.scop, l.dg, params);

  ASSERT_EQ(rep.statements.size(), 3u);
  for (const StatementVolume& sv : rep.statements) {
    ASSERT_TRUE(sv.instances.is_exact());
    EXPECT_EQ(sv.instances.value, 8);
  }
  // a: written by S1, read by S2 and S3 -> 8 cells, 24 accesses.
  ASSERT_EQ(rep.arrays.size(), 3u);
  EXPECT_EQ(rep.arrays[0].footprint.value, 8);
  EXPECT_EQ(rep.arrays[0].accesses.value, 24);
  EXPECT_EQ(rep.arrays[0].reuse.value, 16);
  EXPECT_EQ(rep.arrays[1].accesses.value, 16);
  EXPECT_EQ(rep.arrays[2].reuse.value, 0);
  EXPECT_TRUE(rep.findings.empty());

  // Pairs: S1/S2 share a (8), S1/S3 share a (8), S2/S3 share a and b
  // (16), plus one self pair per statement (no cell is revisited by a
  // second instance here, so all three count 0).
  ASSERT_EQ(rep.pairs.size(), 6u);
  EXPECT_EQ(rep.shared_cells_or_negative(0, 1), 8);
  EXPECT_EQ(rep.shared_cells_or_negative(2, 0), 8);  // order-insensitive
  EXPECT_EQ(rep.shared_cells_or_negative(1, 2), 16);
  EXPECT_EQ(rep.shared_cells_or_negative(0, 0), 0);  // no self-reuse
  EXPECT_EQ(rep.shared_cells_or_negative(2, 2), 0);

  // And the whole report agrees with actually running the program.
  expect_matches_ground_truth(l.scop, l.dg, params, "pipeline");
}

TEST(Locality, SelfPairCountsReductionReuse) {
  // The self pair counts cells touched by two *distinct* instances of
  // the same statement: the accumulator cell of a reduction is
  // self-reuse (the reason fusing a reduction with its producer pays),
  // while streaming statements like the pipeline above count 0.
  Linted l(R"(scop dot(N) {
    context N >= 8;
    array x[N]; array s[1];
    S1: s[0] = 0.0;
    for (i = 0 .. N-1) { S2: s[0] = s[0] + x[i]; }
  })");
  const LocalityReport rep = analyze_locality(l.scop, l.dg, {8});
  // S2 revisits exactly the accumulator cell; x[i] is touched once per
  // instance. S1 has a single instance, so no pair of distinct ones.
  EXPECT_EQ(rep.shared_cells_or_negative(1, 1), 1);
  EXPECT_EQ(rep.shared_cells_or_negative(0, 0), 0);
  EXPECT_EQ(rep.shared_cells_or_negative(0, 1), 1);

  // 2-d anti-diagonal binning: hist[i+j] at N=8 has 15 bins, of which
  // the two corner bins (0 and 14) are touched by a single (i, j) --
  // 13 cells see at least two distinct instances.
  Linted h(R"(scop histo(N) {
    context N >= 8;
    array A[N][N]; array hist[2*N - 1];
    for (i = 0 .. N-1) { for (j = 0 .. N-1) {
      S1: hist[i + j] = hist[i + j] + A[i][j];
    } }
  })");
  const LocalityReport hrep = analyze_locality(h.scop, h.dg, {8});
  EXPECT_EQ(hrep.shared_cells_or_negative(0, 0), 13);
}

TEST(Locality, CountedFindingVolumes) {
  // Two injected defects with different volumes: every t-write is dead
  // (local array, never read -> volume N) and S3 reads u[0..3] before
  // any write (uninit volume 4).
  Linted l(R"(scop buggy(N) {
    context N >= 8;
    local array t[N]; local array u[N]; array b[N];
    for (i = 0 .. N-1) { S1: t[i] = i * 1.0; }
    for (i = 4 .. N-1) { S2: u[i] = i * 2.0; }
    for (i = 0 .. N-1) { S3: b[i] = u[i]; }
  })");
  const LocalityReport rep = analyze_locality(l.scop, l.dg, {8});
  // Expect a dead-write volume of 8 (S1 on t, plus S2's u-writes that
  // are consumed -- only t's are dead) and an uninit-read volume of 4
  // (S3 reads u[0..3]).
  const VolumeFinding* dead = nullptr;
  const VolumeFinding* uninit = nullptr;
  for (const VolumeFinding& f : rep.findings) {
    if (f.kind == VolumeFinding::kDeadWrite && f.stmt == 0) dead = &f;
    if (f.kind == VolumeFinding::kUninitRead) uninit = &f;
  }
  ASSERT_NE(dead, nullptr);
  EXPECT_EQ(dead->array, array_id(l.scop, "t"));
  ASSERT_TRUE(dead->volume.is_exact());
  EXPECT_EQ(dead->volume.value, 8);
  ASSERT_NE(uninit, nullptr);
  EXPECT_EQ(uninit->stmt, 2u);
  EXPECT_EQ(uninit->array, array_id(l.scop, "u"));
  ASSERT_TRUE(uninit->volume.is_exact());
  EXPECT_EQ(uninit->volume.value, 4);
  // Findings rank by volume, descending.
  for (std::size_t i = 1; i < rep.findings.size(); ++i) {
    if (rep.findings[i - 1].volume.is_exact() &&
        rep.findings[i].volume.is_exact()) {
      EXPECT_GE(rep.findings[i - 1].volume.value,
                rep.findings[i].volume.value);
    }
  }
}

TEST(Locality, StridedFootprintIsExactNotRationalShadow) {
  // a[2*i]: 8 iterations touch 8 distinct cells; the FM rational shadow
  // of the access relation would span 15.
  Linted l(R"(scop strided(N) {
    context N >= 8;
    array a[2*N]; array b[N];
    for (i = 0 .. N-1) { S1: a[2*i] = i * 1.0; }
    for (i = 0 .. N-1) { S2: b[i] = a[2*i]; }
  })");
  const LocalityReport rep = analyze_locality(l.scop, l.dg, {8});
  EXPECT_EQ(rep.arrays[array_id(l.scop, "a")].footprint.value, 8);
  EXPECT_EQ(rep.arrays[array_id(l.scop, "a")].accesses.value, 16);
  EXPECT_EQ(rep.shared_cells_or_negative(0, 1), 8);
  expect_matches_ground_truth(l.scop, l.dg, {8}, "strided");
}

TEST(Locality, BudgetDegradesToUnknownNeverWrong) {
  Linted l(R"(scop small(N) {
    context N >= 4;
    array a[N];
    for (i = 0 .. N-1) { S1: a[i] = i * 1.0; }
  })");
  support::BudgetSpec spec;
  spec.fuel = 0;
  support::Budget budget(spec);
  support::BudgetScope scope(&budget);
  const LocalityReport rep = analyze_locality(l.scop, l.dg, {8});
  ASSERT_EQ(rep.statements.size(), 1u);
  EXPECT_EQ(rep.statements[0].instances.kind, poly::Count::kUnknown);
  for (const ArrayLocality& al : rep.arrays) {
    EXPECT_NE(al.footprint.kind, poly::Count::kUnbounded);
    EXPECT_EQ(al.footprint.to_string(), "unknown");
  }
  EXPECT_EQ(rep.shared_cells_or_negative(0, 0), -1);
}

TEST(Locality, TceCountStepsIndependentOfN) {
  // tce's footprints and shared cells are counted on the images of its
  // access relations, so the counting work is the same at N = 14 as at
  // N = 140, and the pair counts follow their closed forms: a self pair
  // shares its two N^4 tensors and its N^2 coefficient matrix, and each
  // contraction hands an N^4 tensor to the next.
  const suite::Benchmark& b = suite::benchmark("tce");
  const ir::Scop scop = suite::parse(b);
  const ddg::DependenceGraph dg = ddg::DependenceGraph::analyze(scop);
  poly::SolveCacheScope cache;
  auto& stats = support::current_metrics();
  auto steps_at = [&](i64 n) {
    poly::clear_solve_cache();
    const i64 before = stats.get(support::Counter::kCountSteps);
    const LocalityReport rep = analyze_locality(scop, dg, {n});
    const i64 n2 = n * n;
    const i64 n4 = n2 * n2;
    EXPECT_EQ(rep.pairs.size(), 7u);
    for (const PairLocality& p : rep.pairs) {
      EXPECT_TRUE(p.t == p.s || p.t == p.s + 1) << p.s << "/" << p.t;
      EXPECT_EQ(p.shared_cells.to_string(),
                std::to_string(p.t == p.s ? 2 * n4 + n2 : n4))
          << "N=" << n << " S" << p.s + 1 << "/S" << p.t + 1;
    }
    return stats.get(support::Counter::kCountSteps) - before;
  };
  const i64 small = steps_at(14);
  EXPECT_GT(small, 0);
  EXPECT_EQ(steps_at(140), small);
}

TEST(Locality, BenchmarksMatchInterpretedGroundTruth) {
  // The acceptance differential: gemver, advect and swim at their test
  // parameters -- every count the analyzer reports must equal what an
  // actual run observes.
  for (const char* name : {"gemver", "advect", "swim"}) {
    const suite::Benchmark& b = suite::benchmark(name);
    const ir::Scop scop = suite::parse(b);
    const ddg::DependenceGraph dg = ddg::DependenceGraph::analyze(scop);
    expect_matches_ground_truth(scop, dg, b.test_params, b.name);
  }
}

TEST(Locality, SyntheticProgramsMatchInterpretedGroundTruth) {
  for (unsigned seed = 0; seed < 6; ++seed) {
    const ir::Scop scop = frontend::parse_scop(suite::synthetic_program(seed));
    const ddg::DependenceGraph dg = ddg::DependenceGraph::analyze(scop);
    IntVector params(scop.num_params(), 6);
    if (!scop.context().contains(params))
      params.assign(scop.num_params(), 16);
    expect_matches_ground_truth(scop, dg, params,
                                "synthetic seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace pf::analysis
