// Golden schedules for the paper suite: the --emit=sched text of each of
// the ten Table 2 programs under all five models, with reduction
// relaxation on (the default) and off (--no-reductions), compared byte for
// byte against tests/golden/sched/<program>.sched. Scheduler speedups must
// leave these files untouched; a deliberate schedule change re-records
// them in the same commit.
//
// The test drives the real binary, so the POLYFUSE_JOBS and
// POLYFUSE_NO_FASTLANE environment of the ctest run reaches the pipeline
// (tools/ci.sh runs it at one and four workers and with the fast lane
// off).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "suite/suite.h"

namespace {

#ifndef POLYFUSE_CLI_PATH
#error "POLYFUSE_CLI_PATH must be defined by the build"
#endif

// ctest -j runs one process per case, so temp names carry the pid.
std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "golden_" +
         std::to_string(::getpid()) + "_" + name;
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

class GoldenSchedule : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenSchedule, MatchesRecorded) {
  const pf::suite::Benchmark& b = pf::suite::benchmark(GetParam());
  const std::string input = temp_path(b.name + ".pf");
  std::ofstream(input) << b.source;
  const std::string out = temp_path("out");
  const std::string err = temp_path("err");

  std::string got;
  for (const char* model :
       {"baseline", "wisefuse", "smartfuse", "nofuse", "maxfuse"}) {
    for (const char* extra : {"", " --no-reductions"}) {
      const std::string args = std::string("--model=") + model + extra;
      const std::string cmd = std::string(POLYFUSE_CLI_PATH) + " " + args +
                              " --emit=sched " + input + " > " + out +
                              " 2> " + err;
      const int rc = std::system(cmd.c_str());
      ASSERT_EQ(WEXITSTATUS(rc), 0) << args << "\n" << slurp(err);
      got += "## " + args + "\n" + slurp(out);
    }
  }
  const std::string golden =
      slurp(std::string(POLYFUSE_GOLDEN_DIR) + "/" + b.name + ".sched");
  ASSERT_FALSE(golden.empty()) << "no golden file for " << b.name;
  EXPECT_EQ(got, golden);
}

INSTANTIATE_TEST_SUITE_P(Suite, GoldenSchedule,
                         ::testing::ValuesIn(suite_names()));

}  // namespace
