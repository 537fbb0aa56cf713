// The exact-path differential: every paper program, under all five fusion
// models, goes through the CLI's request pipeline (tools/driver.h) twice
// in one process -- on the default path, and under
// lp::testing::ExactPathScope, the pipeline with no shortcut: every
// simplex solve runs on the kernel's BigInt cells, no lexmin takes a warm
// start and nothing is memoized. The --emit=sched schedule, the emitted C
// and the --lint, --analyze=json and --reductions=json reports must be
// byte-identical. The reports share one value-based dataflow build on the
// default path and build one each on the exact path. The POLYFUSE_JOBS
// environment of the ctest run sets the worker count of both runs.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "driver.h"
#include "lp/simplex.h"
#include "suite/suite.h"
#include "temp_dir.h"

namespace {

std::vector<std::string> suite_names() {
  std::vector<std::string> names;
  for (const pf::suite::Benchmark& b : pf::suite::all_benchmarks())
    names.push_back(b.name);
  return names;
}

constexpr const char* kModels[] = {"baseline", "wisefuse", "smartfuse",
                                   "nofuse", "maxfuse"};

struct Outputs {
  std::string sched;   // --emit=sched
  std::string c;       // --emit=c
  std::string report;  // --lint, --analyze=json and --reductions=json
  // From the --stats=json counters of the --emit=c run.
  long long fastlane_solves = -1;
  long long simplex_pivots = -1;
  long long warm_starts = -1;  // accepted plus rejected warm-start points
  long long memo_uses = -1;    // hits and misses of every memo
};

// One request's stdout; its stderr goes to `err`.
std::string run(const pf::cli::Options& o, std::string* err) {
  std::ostringstream out, e;
  const pf::cli::RequestResult r = pf::cli::run_request(o, out, e);
  EXPECT_EQ(r.rc, 0) << o.model << " --emit=" << o.emit << ": " << r.error;
  *err = e.str();
  return out.str();
}

long long counter(const std::string& stats_json, const std::string& name) {
  const std::string key = "\"" + name + "\": ";
  const std::size_t at = stats_json.find(key);
  if (at == std::string::npos) return -1;
  return std::stoll(stats_json.substr(at + key.size()));
}

Outputs run_model(const std::string& input, const char* model) {
  pf::cli::Options o;  // --emit=c
  o.input = input;
  o.model = model;
  pf::cli::Options sched = o;
  sched.emit = "sched";
  o.lint = true;
  o.analyze = o.analyze_json = true;
  o.reductions_report = o.reductions_json = true;
  o.stats = o.stats_json = true;
  Outputs got;
  std::string err;
  got.sched = run(sched, &err);
  got.c = run(o, &err);
  // stderr holds the report, then the one-line --stats=json object.
  const std::size_t stats_at = err.rfind('\n', err.size() - 2) + 1;
  got.report = err.substr(0, stats_at);
  const std::string stats = err.substr(stats_at);
  got.fastlane_solves = counter(stats, "fastlane_solves");
  got.simplex_pivots = counter(stats, "simplex_pivots");
  got.warm_starts = counter(stats, "fastlane_warm_hits") +
                    counter(stats, "fastlane_warm_misses");
  got.memo_uses = 0;
  for (const char* name : {"solve_cache_hits", "solve_cache_misses",
                           "count_cache_hits", "count_cache_misses",
                           "farkas_memo_hits", "dataflow_memo_hits"}) {
    const long long v = counter(stats, name);
    EXPECT_GE(v, 0) << name << " missing from --stats=json";
    got.memo_uses += v;
  }
  return got;
}

class ExactPath : public ::testing::TestWithParam<std::string> {};

TEST_P(ExactPath, SuiteMatchesDefault) {
  const pf::suite::Benchmark& b = pf::suite::benchmark(GetParam());
  const std::string input = pf::testtmp::path(b.name + ".pf");
  std::ofstream(input) << b.source;
  for (const char* model : kModels) {
    const Outputs fast = run_model(input, model);
    Outputs exact;
    {
      pf::lp::testing::ExactPathScope scope;
      exact = run_model(input, model);
    }
    EXPECT_FALSE(fast.sched.empty()) << model;
    EXPECT_FALSE(fast.report.empty()) << model;
    EXPECT_EQ(exact.sched, fast.sched) << model;
    EXPECT_EQ(exact.c, fast.c) << model;
    EXPECT_EQ(exact.report, fast.report) << model;
    // The runs took the two paths: the default one on int64 cells with
    // the memo on, the scoped one solving on BigInt cells only, never
    // warm-starting and never consulting a memo.
    EXPECT_GT(fast.fastlane_solves, 0) << model;
    EXPECT_GT(fast.memo_uses, 0) << model;
    EXPECT_EQ(exact.fastlane_solves, 0) << model;
    EXPECT_GT(exact.simplex_pivots, 0) << model;
    EXPECT_EQ(exact.warm_starts, 0) << model;
    EXPECT_EQ(exact.memo_uses, 0) << model;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, ExactPath, ::testing::ValuesIn(suite_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
