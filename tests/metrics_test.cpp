// Unit tests for the observability substrate: the metrics registry
// (counters, gauges, log-bucket histograms, scoped absorption), request
// context propagation into pool tasks, the tracer's buffer cap, and the
// flight recorder (ring recording, snapshots, async-signal-safe dumps).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <latch>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include "ddg/dependences.h"
#include "json_check.h"
#include "poly/memo.h"
#include "poly/set.h"
#include "support/budget.h"
#include "support/context.h"
#include "support/flightrec.h"
#include "support/metrics.h"
#include "support/threadpool.h"
#include "support/trace.h"
#include "suite/suite.h"

namespace pf::support {
namespace {

TEST(HistBuckets, Log2Boundaries) {
  // Non-positive values land in bucket 0.
  EXPECT_EQ(hist_bucket_index(-100), 0u);
  EXPECT_EQ(hist_bucket_index(0), 0u);
  // Bucket i >= 1 covers [2^(i-1), 2^i - 1].
  EXPECT_EQ(hist_bucket_index(1), 1u);
  EXPECT_EQ(hist_bucket_index(2), 2u);
  EXPECT_EQ(hist_bucket_index(3), 2u);
  EXPECT_EQ(hist_bucket_index(4), 3u);
  EXPECT_EQ(hist_bucket_index(7), 3u);
  EXPECT_EQ(hist_bucket_index(8), 4u);
  for (std::size_t b = 1; b + 1 < kHistBuckets; ++b) {
    const i64 lo = hist_bucket_lower_bound(b);
    EXPECT_EQ(hist_bucket_index(lo), b) << "lower bound of bucket " << b;
    EXPECT_EQ(hist_bucket_index(2 * lo - 1), b)
        << "upper bound of bucket " << b;
    EXPECT_EQ(hist_bucket_index(2 * lo), b + 1)
        << "first value past bucket " << b;
  }
  // The last bucket absorbs the whole tail.
  EXPECT_EQ(hist_bucket_index(INT64_MAX), kHistBuckets - 1);
}

TEST(MetricsRegistry, ObserveTracksCountSumMinMaxBuckets) {
  MetricsRegistry reg;
  const Hist h = Hist::kSimplexPivotsPerSolve;
  EXPECT_EQ(reg.hist_count(h), 0);
  EXPECT_EQ(reg.hist_min(h), 0);  // empty histogram reports 0, not sentinel
  EXPECT_EQ(reg.hist_max(h), 0);
  for (i64 v : {5, 1, 9, 0, 5}) reg.observe(h, v);
  EXPECT_EQ(reg.hist_count(h), 5);
  EXPECT_EQ(reg.hist_sum(h), 20);
  EXPECT_EQ(reg.hist_min(h), 0);
  EXPECT_EQ(reg.hist_max(h), 9);
  EXPECT_EQ(reg.hist_bucket(h, 0), 1);  // the 0
  EXPECT_EQ(reg.hist_bucket(h, 1), 1);  // the 1
  EXPECT_EQ(reg.hist_bucket(h, 3), 2);  // the two 5s
  EXPECT_EQ(reg.hist_bucket(h, 4), 1);  // the 9
}

TEST(MetricsRegistry, AbsorbMergesEverything) {
  MetricsRegistry parent, child;
  parent.add(Counter::kSimplexPivots, 10);
  child.add(Counter::kSimplexPivots, 32);
  parent.gauge_set(Gauge::kJobsConfigured, 2);
  child.gauge_set(Gauge::kJobsConfigured, 8);  // gauges merge by max
  parent.observe(Hist::kIlpNodesPerSolve, 3);
  child.observe(Hist::kIlpNodesPerSolve, 100);
  parent.add_phase_seconds("deps", 1.0);
  child.add_phase_seconds("deps", 0.5);
  child.add_phase_seconds("schedule", 2.0);

  parent.absorb(child);
  EXPECT_EQ(parent.get(Counter::kSimplexPivots), 42);
  EXPECT_EQ(parent.gauge(Gauge::kJobsConfigured), 8);
  EXPECT_EQ(parent.hist_count(Hist::kIlpNodesPerSolve), 2);
  EXPECT_EQ(parent.hist_sum(Hist::kIlpNodesPerSolve), 103);
  EXPECT_EQ(parent.hist_min(Hist::kIlpNodesPerSolve), 3);
  EXPECT_EQ(parent.hist_max(Hist::kIlpNodesPerSolve), 100);
  EXPECT_DOUBLE_EQ(parent.phase_seconds("deps"), 1.5);
  EXPECT_DOUBLE_EQ(parent.phase_seconds("schedule"), 2.0);
}

TEST(MetricsRegistry, AbsorbEmptyHistogramKeepsMinMax) {
  MetricsRegistry parent, child;
  parent.observe(Hist::kDepPairMicros, 7);
  parent.absorb(child);  // child never observed anything
  EXPECT_EQ(parent.hist_min(Hist::kDepPairMicros), 7);
  EXPECT_EQ(parent.hist_max(Hist::kDepPairMicros), 7);
  // And the mirror case: empty parent absorbs a filled child.
  MetricsRegistry parent2;
  parent2.absorb(parent);
  EXPECT_EQ(parent2.hist_min(Hist::kDepPairMicros), 7);
  EXPECT_EQ(parent2.hist_count(Hist::kDepPairMicros), 1);
}

TEST(MetricsRegistry, ResetZeroesAndEmptiesSentinels) {
  MetricsRegistry reg;
  reg.add(Counter::kIlpNodes, 3);
  reg.observe(Hist::kIlpNodesPerSolve, 12);
  reg.add_phase_seconds("parse", 0.1);
  reg.reset();
  EXPECT_EQ(reg.get(Counter::kIlpNodes), 0);
  EXPECT_EQ(reg.hist_count(Hist::kIlpNodesPerSolve), 0);
  EXPECT_EQ(reg.hist_min(Hist::kIlpNodesPerSolve), 0);
  EXPECT_DOUBLE_EQ(reg.phase_seconds("parse"), 0.0);
  // A fresh observation after reset re-establishes min/max from scratch.
  reg.observe(Hist::kIlpNodesPerSolve, 5);
  EXPECT_EQ(reg.hist_min(Hist::kIlpNodesPerSolve), 5);
  EXPECT_EQ(reg.hist_max(Hist::kIlpNodesPerSolve), 5);
}

TEST(MetricsScope, OwningScopeIsolatesAndAbsorbs) {
  MetricsScope outer;
  {
    MetricsScope inner;  // fresh registry
    count(Counter::kFmeRowsGenerated, 4);
    EXPECT_EQ(inner.registry().get(Counter::kFmeRowsGenerated), 4);
    EXPECT_EQ(outer.registry().get(Counter::kFmeRowsGenerated), 0);
  }
  // Scope close absorbed into the previously-current registry.
  EXPECT_EQ(outer.registry().get(Counter::kFmeRowsGenerated), 4);
}

TEST(MetricsScope, ConcurrentScopesStayIsolated) {
  std::atomic<bool> go{false};
  i64 counted[2] = {0, 0};
  i64 observed[2] = {0, 0};
  i64 max_seen[2] = {0, 0};
  auto work = [&](int slot, i64 n) {
    MetricsScope scope;
    while (!go.load()) std::this_thread::yield();
    for (i64 i = 0; i < n; ++i) {
      count(Counter::kDepPairsAnalyzed);
      observe(Hist::kDepPairMicros, i);
    }
    counted[slot] = scope.registry().get(Counter::kDepPairsAnalyzed);
    observed[slot] = scope.registry().hist_count(Hist::kDepPairMicros);
    max_seen[slot] = scope.registry().hist_max(Hist::kDepPairMicros);
  };
  std::thread ta(work, 0, 100), tb(work, 1, 37);
  go.store(true);
  ta.join();
  tb.join();
  EXPECT_EQ(counted[0], 100);
  EXPECT_EQ(counted[1], 37);
  EXPECT_EQ(observed[0], 100);
  EXPECT_EQ(observed[1], 37);
  EXPECT_EQ(max_seen[1], 36);
}

TEST(MetricsScope, AbsorbIsDeterministicAcrossThreadCounts) {
  // The same work split across 1 or 8 scoped workers must absorb to the
  // same deterministic JSON subtree (the contract --stats=json tests
  // enforce end to end on the real binary).
  auto run = [](std::size_t workers) {
    MetricsScope scope;
    ThreadPool pool(workers);
    pool.parallel_for(0, 64, [](std::size_t i) {
      count(Counter::kSimplexPivots, static_cast<i64>(i));
      observe(Hist::kSimplexPivotsPerSolve, static_cast<i64>(i % 11));
    });
    std::string json = scope.registry().to_json();
    // Mask the runtime subtree: gauges and wall-clock data may differ.
    const std::size_t runtime = json.find("\"runtime\"");
    return json.substr(0, runtime);
  };
  EXPECT_EQ(run(1), run(8));
}

TEST(MetricsScope, ThreadPoolWorkersReportIntoSubmitterScope) {
  MetricsScope scope;
  {
    ThreadPool pool(4);
    pool.parallel_for(0, 32, [](std::size_t) {
      count(Counter::kDepPolyhedraBuilt);
    });
  }
  EXPECT_EQ(scope.registry().get(Counter::kDepPolyhedraBuilt), 32);
}

TEST(MetricsScope, CurrentMetricsRoutesToInnermostScope) {
  MetricsScope scope;
  EXPECT_EQ(&current_metrics(), &scope.registry());
  current_metrics().add(Counter::kLintFindings, 3);
  EXPECT_EQ(scope.registry().get(Counter::kLintFindings), 3);
  current_metrics().add_phase_seconds("verify", 0.25);
  EXPECT_DOUBLE_EQ(scope.registry().phase_seconds("verify"), 0.25);
}

// A pool task runs inside its submitter's request: it reports into the
// submitter's registry, memoizes into the submitter's memo table, and
// starts with no budget (Budget is single-threaded).
TEST(RequestContext, PoolTaskJoinsSubmitterRequest) {
  Budget budget(BudgetSpec{});
  BudgetScope budget_scope(&budget);
  MetricsScope metrics;
  poly::SolveCacheScope cache_scope;
  poly::MemoTable* table = poly::active_memo();
  ASSERT_NE(table, nullptr);
  std::atomic<int> saw_budget{0};
  std::atomic<int> saw_table{0};
  {
    ThreadPool pool(4);
    pool.parallel_for(0, 16, [&](std::size_t i) {
      if (current_budget() != nullptr) ++saw_budget;
      if (poly::active_memo() == table) ++saw_table;
      count(Counter::kDepPairsAnalyzed);
      const poly::MemoTable::Key key("test", {static_cast<i64>(i)});
      poly::memoize(*table, key, Counter::kSolveCacheHits,
                    Counter::kSolveCacheMisses,
                    [i] { return poly::MemoTable::Value{i64(i), 0}; });
    });
  }
  EXPECT_EQ(saw_budget.load(), 0);
  EXPECT_EQ(saw_table.load(), 16);
  EXPECT_EQ(metrics.registry().get(Counter::kDepPairsAnalyzed), 16);
  EXPECT_EQ(metrics.registry().get(Counter::kSolveCacheMisses), 16);
  EXPECT_EQ(table->size(), 16u);
  // The submitting thread keeps its own budget.
  EXPECT_EQ(current_budget(), &budget);
}

// Threads asking for a key another thread is computing wait for its
// value instead of computing it again, so a key is computed exactly once.
TEST(RequestContext, MemoTableComputesEachKeyOnce) {
  MetricsScope metrics;
  poly::SolveCacheScope cache_scope;
  poly::MemoTable& table = *poly::active_memo();
  std::atomic<int> computed{0};
  {
    ThreadPool pool(4);
    pool.parallel_for(0, 64, [&](std::size_t i) {
      const poly::MemoTable::Key key("test", {static_cast<i64>(i % 4)});
      const poly::MemoTable::Value v = poly::memoize(
          table, key, Counter::kSolveCacheHits, Counter::kSolveCacheMisses,
          [&] {
            ++computed;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            return poly::MemoTable::Value{static_cast<i64>(i % 4), 7};
          });
      EXPECT_EQ(v[0], static_cast<i64>(i % 4));
      EXPECT_EQ(v[1], 7);
    });
  }
  EXPECT_EQ(computed.load(), 4);
  EXPECT_EQ(metrics.registry().get(Counter::kSolveCacheMisses), 4);
  EXPECT_EQ(metrics.registry().get(Counter::kSolveCacheHits), 60);
}

// Two concurrent requests, each under its own TracerScope at jobs=4: every
// remark and every dependence-pair span lands in the tracer of the request
// that caused it, the spans pool threads record included.
TEST(RequestContext, TracerScopeCoversDependenceWorkers) {
  struct Request {
    const char* program = nullptr;
    std::size_t statements = 0;
    int request_tid = -1;
    std::vector<TraceEvent> events;
  };
  Request requests[2];
  requests[0].program = "swim";
  requests[1].program = "gemver";
  std::latch start(2);
  const auto run = [&start](Request* r) {
    const ir::Scop scop = suite::parse(suite::benchmark(r->program));
    r->statements = scop.num_statements();
    Tracer tracer(/*spans=*/true, /*remarks=*/true);
    TracerScope tracer_scope(&tracer);
    MetricsScope metrics;
    poly::SolveCacheScope cache_scope;
    r->request_tid = flightrec::thread_index();
    start.arrive_and_wait();
    remark("request", r->program);
    ddg::AnalysisOptions options;
    options.jobs = 4;
    ddg::DependenceGraph::analyze(scop, options);
    r->events = tracer.events();
  };
  std::thread first(run, &requests[0]);
  std::thread second(run, &requests[1]);
  first.join();
  second.join();
  ASSERT_NE(requests[0].statements, requests[1].statements);
  for (const Request& r : requests) {
    SCOPED_TRACE(r.program);
    std::size_t pair_spans = 0;
    std::vector<std::string> remarks;
    for (const TraceEvent& e : r.events) {
      if (e.kind == flightrec::EventKind::kRemark) {
        remarks.push_back(e.name);
        if (e.name == "dependence analysis complete") {
          EXPECT_EQ(e.attrs.at(0),
                    TraceAttr("statements", std::to_string(r.statements)));
        }
      } else if (e.name == "analyze_pair") {
        ++pair_spans;
        EXPECT_NE(e.tid, r.request_tid);  // a pool thread recorded it
      }
    }
    EXPECT_EQ(remarks, (std::vector<std::string>{
                           r.program, "dependence analysis complete"}));
    EXPECT_EQ(pair_spans, r.statements * r.statements);
  }
}

TEST(MetricsJson, OutputIsValidJsonWithHostilePhaseNames) {
  MetricsRegistry reg;
  reg.add(Counter::kSimplexPivots, 7);
  reg.observe(Hist::kFmeRowsPerElimination, 12);
  reg.gauge_set(Gauge::kJobsConfigured, 99);
  reg.add_phase_seconds("ph\"ase\\with\nnasties", 0.5);
  const std::string json = reg.to_json();
  EXPECT_TRUE(testjson::valid(json)) << json;
  // The deterministic/runtime split: histograms outside, gauges inside.
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"runtime\""), std::string::npos);
  EXPECT_LT(json.find("\"fme_rows_per_elimination\""), json.find("\"runtime\""));
  EXPECT_GT(json.find("\"jobs_configured\""), json.find("\"runtime\""));
}

TEST(MetricsText, ReportsHistogramSummaries) {
  MetricsRegistry reg;
  for (i64 v : {1, 2, 4, 8, 16}) reg.observe(Hist::kIlpNodesPerSolve, v);
  const std::string text = reg.to_string();
  EXPECT_NE(text.find("hist ilp_nodes_per_solve"), std::string::npos);
  EXPECT_NE(text.find("count=5"), std::string::npos);
}

TEST(TracerCap, DropsBeyondMaxEventsAndCounts) {
  // Both channels on, as --trace=FILE sets them.
  Tracer tracer(/*spans=*/true, /*remarks=*/true, /*max_events=*/4);
  TracerScope tracer_scope(&tracer);
  {
    MetricsScope scope;
    for (int i = 0; i < 10; ++i) remark("test", "remark " + std::to_string(i));
    EXPECT_EQ(scope.registry().get(Counter::kTraceEventsDropped), 6);
  }
  EXPECT_EQ(tracer.events().size(), 4u);
  // The capped trace is still well-formed JSON.
  const std::string json = tracer.chrome_trace_json();
  EXPECT_TRUE(testjson::valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(FlightRec, RecordsAndSnapshotsInSequenceOrder) {
  flightrec::reset_for_test();
  record_event(flightrec::EventKind::kMark, "test", "first", 1);
  record_event(flightrec::EventKind::kMark, "test", "second", 3);
  record_event(flightrec::EventKind::kFault, "lp_solve", "fuel-exhausted", -1);
  const auto events = flightrec::snapshot();
  ASSERT_GE(events.size(), 3u);
  EXPECT_GE(flightrec::events_recorded(), 3u);
  EXPECT_GE(flightrec::recording_threads(), 1);
  // Snapshot is ordered by global sequence.
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  const auto& last = events[events.size() - 1];
  EXPECT_EQ(std::string(last.category), "lp_solve");
  EXPECT_EQ(std::string(last.name), "fuel-exhausted");
  EXPECT_EQ(last.kind, flightrec::EventKind::kFault);
  EXPECT_EQ(last.a, -1);
}

TEST(FlightRec, RingOverwritesKeepingLastEvents) {
  flightrec::reset_for_test();
  const std::size_t n = flightrec::kRingEvents + 50;
  for (std::size_t i = 0; i < n; ++i)
    record_event(flightrec::EventKind::kMark, "test", "overflow",
                 static_cast<i64>(i));
  const auto events = flightrec::snapshot();
  EXPECT_EQ(events.size(), flightrec::kRingEvents);
  EXPECT_EQ(flightrec::events_recorded(), n);
  // The retained window is the most recent kRingEvents observations.
  EXPECT_EQ(events.front().a, static_cast<i64>(n - flightrec::kRingEvents));
  EXPECT_EQ(events.back().a, static_cast<i64>(n - 1));
}

TEST(FlightRec, TruncatesOverlongStringsSafely) {
  flightrec::reset_for_test();
  const std::string long_cat(100, 'c');
  const std::string long_name(300, 'n');
  record_event(flightrec::EventKind::kMark, long_cat.c_str(),
               long_name.c_str());
  const auto events = flightrec::snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].category),
            std::string(flightrec::kEventCategoryBytes - 1, 'c'));
  EXPECT_EQ(std::string(events[0].name),
            std::string(flightrec::kEventNameBytes - 1, 'n'));
}

// A long-lived process that starts a thread pool per compile must keep
// recording: an exited thread's ring is taken over by the next thread,
// so the ring count follows peak concurrency and the newest event is
// retained.
TEST(FlightRec, ExitedThreadsRingsAreReused) {
  flightrec::reset_for_test();
  record_event(flightrec::EventKind::kMark, "test", "main");
  const int before = flightrec::recording_threads();
  const int kThreads = 300;  // more than the recorder's ring table holds
  for (int i = 0; i < kThreads; ++i)
    std::thread([i] {
      record_event(flightrec::EventKind::kMark, "test", "short-lived", i);
    }).join();
  EXPECT_LE(flightrec::recording_threads(), before + 1);
  const auto events = flightrec::snapshot();
  EXPECT_TRUE(std::any_of(events.begin(), events.end(),
                          [](const flightrec::Event& e) {
                            return std::string(e.name) == "short-lived" &&
                                   e.a == kThreads - 1;
                          }));

  // Four threads at a time take and return rings concurrently (the free
  // list is shared; tools/ci.sh runs this under ThreadSanitizer).
  for (int round = 0; round < 50; ++round) {
    std::vector<std::thread> batch;
    for (int k = 0; k < 4; ++k)
      batch.emplace_back([] {
        record_event(flightrec::EventKind::kMark, "test", "concurrent");
      });
    for (std::thread& t : batch) t.join();
  }
  EXPECT_LE(flightrec::recording_threads(), before + 4);
}

std::string dump_to_string(const char* cause) {
  // One file per process: ctest -j runs these tests concurrently.
  std::string path = ::testing::TempDir() + "flightrec_dump_test_" +
                     std::to_string(::getpid()) + ".json";
  EXPECT_TRUE(flightrec::write_diag_file(path, cause));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
  return ss.str();
}

TEST(FlightRec, DumpIsValidSelfContainedJson) {
  flightrec::reset_for_test();
  // Hostile bytes in event strings must come out JSON-escaped.
  record_event(flightrec::EventKind::kRemark, "fu\"sion",
               "quote\" back\\slash \x01 tab\t", 5);
  // The dump snapshots the dumping thread's request registry.
  std::string dump;
  {
    MetricsScope scope;
    scope.registry().add(Counter::kSimplexPivots, 123);
    scope.registry().observe(Hist::kSimplexPivotsPerSolve, 9);
    dump = dump_to_string("requested");
  }

  EXPECT_TRUE(testjson::valid(dump)) << dump;
  EXPECT_NE(dump.find("\"cause\": \"requested\""), std::string::npos);
  EXPECT_NE(dump.find("\"tool\": \"polyfuse\""), std::string::npos);
  EXPECT_NE(dump.find("quote\\\" back\\\\slash \\u0001 tab\\t"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("\"simplex_pivots\": 123"), std::string::npos);
  EXPECT_NE(dump.find("\"simplex_pivots_per_solve\""), std::string::npos);
}

TEST(FlightRec, DumpAlwaysCarriesMetrics) {
  // Even with every ring empty, a dump carries the metrics snapshot.
  flightrec::reset_for_test();
  const std::string dump = dump_to_string("requested");
  EXPECT_TRUE(testjson::valid(dump)) << dump;
  EXPECT_NE(dump.find("\"metrics\""), std::string::npos);
}

}  // namespace
}  // namespace pf::support
