// Golden outputs for the paper suite, driven through the real binary:
//  * GoldenSchedule: the --emit=sched text of each of the ten Table 2
//    programs under all five models, with reduction relaxation on (the
//    default) and off (--no-reductions), against
//    tests/golden/sched/<program>.sched;
//  * GoldenC: the --emit=c program under all five models, against
//    tests/golden/c/<program>.c. Codegen prunes loop bounds with
//    IntegerSet::remove_redundant, so this pins that use of it too;
//  * FarkasMemo: the scheduler's Farkas-system memo (DESIGN.md "Farkas
//    systems by dependence shape") is used on the default path, and a
//    budget, which turns the memos off wherever it charges
//    (poly::active_memo), changes no schedule;
//  * DataflowMemo: --lint, --analyze and --reductions of one request read
//    one value-based dataflow build (DESIGN.md "Value-based dataflow once
//    per graph"), and under a budget the reductions build their own.
// Scheduler and solver speedups must leave these files untouched; a
// deliberate output change re-records them in the same commit.
//
// The POLYFUSE_JOBS environment of the ctest run reaches the pipeline
// (tools/ci.sh runs these at one and four workers). The same outputs on
// the solver's exact path are tests/exact_path_test.cpp.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "suite/suite.h"
#include "temp_dir.h"

namespace {

#ifndef POLYFUSE_CLI_PATH
#error "POLYFUSE_CLI_PATH must be defined by the build"
#endif

std::string temp_path(const std::string& name) {
  return pf::testtmp::path(name);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> suite_names() {
  std::vector<std::string> names;
  for (const pf::suite::Benchmark& b : pf::suite::all_benchmarks())
    names.push_back(b.name);
  return names;
}

constexpr const char* kModels[] = {"baseline", "wisefuse", "smartfuse",
                                   "nofuse", "maxfuse"};

// The CLI's output per argument list, each preceded by "## <args>".
std::string run_cli(const pf::suite::Benchmark& b, const std::string& emit,
                    const std::vector<std::string>& arg_lists) {
  const std::string input = temp_path(b.name + ".pf");
  std::ofstream(input) << b.source;
  const std::string out = temp_path("out");
  const std::string err = temp_path("err");
  std::string got;
  for (const std::string& args : arg_lists) {
    const std::string cmd = std::string(POLYFUSE_CLI_PATH) + " " + args +
                            " --emit=" + emit + " " + input + " > " + out +
                            " 2> " + err;
    const int rc = std::system(cmd.c_str());
    EXPECT_EQ(WEXITSTATUS(rc), 0) << args << "\n" << slurp(err);
    got += "## " + args + "\n" + slurp(out);
  }
  return got;
}

std::string golden(const std::string& file) {
  return slurp(std::string(POLYFUSE_GOLDEN_DIR) + "/" + file);
}

class GoldenSchedule : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenSchedule, MatchesRecorded) {
  const pf::suite::Benchmark& b = pf::suite::benchmark(GetParam());
  std::vector<std::string> arg_lists;
  for (const char* model : kModels)
    for (const char* extra : {"", " --no-reductions"})
      arg_lists.push_back(std::string("--model=") + model + extra);
  const std::string want = golden("sched/" + b.name + ".sched");
  ASSERT_FALSE(want.empty()) << "no golden file for " << b.name;
  EXPECT_EQ(run_cli(b, "sched", arg_lists), want);
}

INSTANTIATE_TEST_SUITE_P(Suite, GoldenSchedule,
                         ::testing::ValuesIn(suite_names()));

class GoldenC : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenC, MatchesRecorded) {
  const pf::suite::Benchmark& b = pf::suite::benchmark(GetParam());
  std::vector<std::string> arg_lists;
  for (const char* model : kModels)
    arg_lists.push_back(std::string("--model=") + model);
  const std::string want = golden("c/" + b.name + ".c");
  ASSERT_FALSE(want.empty()) << "no golden file for " << b.name;
  EXPECT_EQ(run_cli(b, "c", arg_lists), want);
}

INSTANTIATE_TEST_SUITE_P(Suite, GoldenC, ::testing::ValuesIn(suite_names()));

// A budget that never binds turns the Farkas memo off together with the
// charged solves' memo, and nothing else: the schedules of all five
// models must be the memoized run's, byte for byte. (The exact path,
// tests/exact_path_test.cpp, turns the memo off together with the int64
// cells and warm starts.)
constexpr const char* kNonBindingFuel = " --fuel=1000000000000";

class FarkasMemo : public ::testing::TestWithParam<std::string> {};

TEST_P(FarkasMemo, OffMatchesOn) {
  const pf::suite::Benchmark& b = pf::suite::benchmark(GetParam());
  for (const char* model : kModels) {
    const std::string args = std::string("--model=") + model;
    const std::string on = run_cli(b, "sched", {args});
    const std::string off = run_cli(b, "sched", {args + kNonBindingFuel});
    EXPECT_EQ(off.substr(off.find('\n')), on.substr(on.find('\n')))
        << model;
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, FarkasMemo,
                         ::testing::ValuesIn(suite_names()));

// The "name = value" counter lines of `--stats` for one CLI run.
std::map<std::string, long long> stats_counters(const pf::suite::Benchmark& b,
                                                const std::string& args) {
  const std::string input = temp_path(b.name + ".pf");
  std::ofstream(input) << b.source;
  const std::string err = temp_path("stats");
  const std::string cmd = std::string(POLYFUSE_CLI_PATH) + " --stats " + args +
                          " --emit=sched " + input + " > /dev/null 2> " + err;
  const int rc = std::system(cmd.c_str());
  EXPECT_EQ(WEXITSTATUS(rc), 0) << args << "\n" << slurp(err);
  std::map<std::string, long long> counters;
  std::istringstream lines(slurp(err));
  std::string name, eq;
  long long value = 0;
  for (std::string line; std::getline(lines, line);) {
    std::istringstream fields(line);
    if (fields >> name >> eq >> value && eq == "=") counters[name] = value;
  }
  return counters;
}

// swim repeats dependence shapes across statement pairs, so its default
// wisefuse run serves some Farkas systems from the memo.
TEST(FarkasMemo, SwimWisefuseHits) {
  auto c = stats_counters(pf::suite::benchmark("swim"), "--model=wisefuse");
  EXPECT_GT(c["farkas_memo_hits"], 0);
  EXPECT_GT(c["farkas_builds"], 0);
}

// A budget bypasses every memo wherever it charges, so fuel and --inject
// ordinals are spent per build: under a fuel limit that never binds, the
// Farkas memo serves nothing, and the solve memo serves only the
// budget-suspended bookkeeping (support::BudgetSuspend), a small part of
// what it serves in the unbudgeted run.
TEST(FarkasMemo, BudgetedRunsBypassMemo) {
  const pf::suite::Benchmark& b = pf::suite::benchmark("swim");
  auto on = stats_counters(b, "--model=wisefuse");
  auto fuel = stats_counters(b, std::string("--model=wisefuse") +
                                    kNonBindingFuel);
  EXPECT_EQ(fuel["farkas_memo_hits"], 0);
  EXPECT_EQ(fuel["farkas_builds"],
            on["farkas_builds"] + on["farkas_memo_hits"]);
  EXPECT_GT(on["farkas_memo_hits"], 0);
  const auto solve_memo = [](std::map<std::string, long long>& c) {
    return c["solve_cache_hits"] + c["solve_cache_misses"];
  };
  EXPECT_LT(10 * solve_memo(fuel), solve_memo(on));
  EXPECT_EQ(fuel["budget_exhaustions"], 0);
  EXPECT_GT(fuel["budget_fuel_fme_project"], 0);
}

constexpr const char* kAllReports = "--lint --analyze --reductions=json";

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size()))
    ++n;
  return n;
}

// Lint builds the dataflow; locality and reductions read that build.
TEST(DataflowMemo, OneBuildPerRequest) {
  const std::string trace = temp_path("dataflow-trace.json");
  auto c = stats_counters(pf::suite::benchmark("swim"),
                          std::string(kAllReports) + " --trace=" + trace);
  EXPECT_EQ(c["dataflow_builds"], 1);
  EXPECT_EQ(c["dataflow_memo_hits"], 2);
  EXPECT_EQ(count_of(slurp(trace), "\"name\": \"compute_dataflow\""), 1u);
}

// Lint and locality build under BudgetSuspend, so they share one build
// under any budget; the reductions build under the live budget, which
// closes the gate, so theirs stays charged and is kept by no one.
TEST(DataflowMemo, BudgetedReductionsBuildTheirOwn) {
  auto c = stats_counters(pf::suite::benchmark("swim"),
                          std::string(kAllReports) + kNonBindingFuel);
  EXPECT_EQ(c["dataflow_builds"], 2);
  EXPECT_EQ(c["dataflow_memo_hits"], 1);
  EXPECT_EQ(c["budget_exhaustions"], 0);
}

}  // namespace
