// CLI-level degradation-matrix tests (runs the real binary): every
// --inject site must recover with the documented remark and still emit
// verified, validated code; budgeted and injected runs must be
// byte-identical at every --jobs; malformed budget flags must be
// rejected; and unbudgeted runs must match a huge-fuel run exactly.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "json_check.h"
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

struct SplitResult {
  int exit_code;
  std::string out, err;
};

SplitResult run_cli(const std::string& args) {
  const std::string out_file = temp_path("stdout");
  const std::string err_file = temp_path("stderr");
  const std::string cmd = std::string(POLYFUSE_CLI_PATH) + " " + args +
                          " > " + out_file + " 2> " + err_file;
  const int rc = std::system(cmd.c_str());
  return SplitResult{WEXITSTATUS(rc), slurp(out_file), slurp(err_file)};
}

std::string write_program(const std::string& name, const std::string& text) {
  const std::string path = temp_path(name);
  std::ofstream out(path);
  out << text;
  return path;
}

const char* kPipeline = R"(
scop pipeline(N) {
  context N >= 4;
  array a[N]; array b[N]; array c[N];
  for (i = 0 .. N-1) { S1: a[i] = i * 0.5; }
  for (i = 0 .. N-1) { S2: b[i] = a[i] * 2.0; }
  for (i = 0 .. N-1) { S3: c[i] = a[i] + b[i]; }
}
)";

// The full set of correctness gates every degraded run must pass.
const std::string kChecks = " --verify=strict --validate --params=16 ";

// ---- degradation matrix: one injection per site ----------------------

struct SiteCase {
  const char* site;
  const char* remark;  // the recovery remark the site must produce
};

// Prints the case as its site, which names the ctest case; gtest would
// otherwise print the two pointers' raw bytes into the discovered name.
void PrintTo(const SiteCase& c, std::ostream* os) { *os << c.site; }

class InjectionMatrix : public ::testing::TestWithParam<SiteCase> {};

TEST_P(InjectionMatrix, RecoversWithRemarkAndStaysCorrect) {
  const SiteCase c = GetParam();
  const std::string path = write_program("p.pf", kPipeline);
  const SplitResult r =
      run_cli("--model=wisefuse --inject=" + std::string(c.site) +
              ":fail-after=0 --explain" + kChecks + path);
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.err.find(c.remark), std::string::npos)
      << "expected remark '" << c.remark << "' for site " << c.site
      << "; stderr:\n" << r.err;
  EXPECT_NE(r.err.find("fault-injected"), std::string::npos) << r.err;
  EXPECT_NE(r.out.find("void pf_kernel"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    Sites, InjectionMatrix,
    ::testing::Values(
        SiteCase{"lp_solve", "degraded"},
        SiteCase{"fme_project", "degraded"},
        SiteCase{"dep_pair", "dependence pair degraded to over-approximation"},
        SiteCase{"pluto_level", "pluto level degraded to scalar cut"},
        SiteCase{"fusion_model", "fusion model degraded"}));

// ---- determinism across --jobs ---------------------------------------

TEST(Robustness, InjectionIsByteIdenticalAcrossJobs) {
  const std::string path = write_program("p.pf", kPipeline);
  const std::string args = "--model=wisefuse --inject=dep_pair:fail-after=0 "
                           "--explain --emit=c " + path;
  const SplitResult serial = run_cli("--jobs=1 " + args);
  const SplitResult parallel = run_cli("--jobs=8 " + args);
  EXPECT_EQ(serial.exit_code, 0) << serial.err;
  EXPECT_EQ(serial.exit_code, parallel.exit_code);
  EXPECT_EQ(serial.out, parallel.out);
  EXPECT_EQ(serial.err, parallel.err);
}

TEST(Robustness, FuelIsByteIdenticalAcrossJobs) {
  const std::string path = write_program("p.pf", kPipeline);
  for (const char* fuel : {"0", "200", "1000"}) {
    const std::string args = std::string("--model=wisefuse --fuel=") + fuel +
                             " --explain --emit=c " + path;
    const SplitResult serial = run_cli("--jobs=1 " + args);
    const SplitResult parallel = run_cli("--jobs=8 " + args);
    EXPECT_EQ(serial.exit_code, 0) << "fuel=" << fuel << "\n" << serial.err;
    EXPECT_EQ(serial.out, parallel.out) << "fuel=" << fuel;
    EXPECT_EQ(serial.err, parallel.err) << "fuel=" << fuel;
  }
}

// ---- acceptance: tight budgets stay correct --------------------------

TEST(Robustness, Fuel1000OnPipelineDegradesButStaysCorrect) {
  const std::string path = write_program("p.pf", kPipeline);
  const SplitResult r =
      run_cli("--model=wisefuse --fuel=1000 --explain" + kChecks + path);
  EXPECT_EQ(r.exit_code, 0) << r.err;
  // The budget must actually bind on this input: at least one downgrade.
  EXPECT_NE(r.err.find("budget"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("degraded"), std::string::npos) << r.err;
  EXPECT_NE(r.out.find("void pf_kernel"), std::string::npos);
}

TEST(Robustness, ZeroFuelStillEmitsCorrectCode) {
  const std::string path = write_program("p.pf", kPipeline);
  const SplitResult r =
      run_cli("--model=wisefuse --fuel=0 --explain" + kChecks + path);
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("void pf_kernel"), std::string::npos);
}

TEST(Robustness, TimeBudgetRunsThePipeline) {
  const std::string path = write_program("p.pf", kPipeline);
  // A generous deadline: must not degrade anything on this tiny input,
  // and must not crash. (Deadline-triggered degradation is timing
  // dependent by design, so only the happy path is asserted.)
  const SplitResult r =
      run_cli("--model=wisefuse --time-budget=60000" + kChecks + path);
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("void pf_kernel"), std::string::npos);
}

TEST(Robustness, AssumedDependencesAreMarkedInDepsOutput) {
  const std::string path = write_program("p.pf", kPipeline);
  const SplitResult r = run_cli(
      "--inject=dep_pair:fail-after=0 --emit=deps " + path);
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("assumed"), std::string::npos) << r.out;
}

// ---- no budget flags => exactly the unbudgeted pipeline --------------

TEST(Robustness, HugeFuelMatchesUnbudgetedOutput) {
  const std::string path = write_program("p.pf", kPipeline);
  const std::string args = "--model=wisefuse --explain --emit=c " + path;
  const SplitResult plain = run_cli(args);
  const SplitResult budgeted = run_cli("--fuel=1000000000 " + args);
  EXPECT_EQ(plain.exit_code, 0) << plain.err;
  EXPECT_EQ(budgeted.exit_code, 0) << budgeted.err;
  EXPECT_EQ(plain.out, budgeted.out);
  // No downgrade may have happened with effectively unlimited fuel.
  EXPECT_EQ(budgeted.err.find("degraded"), std::string::npos) << budgeted.err;
}

// ---- malformed flags -------------------------------------------------

TEST(Robustness, MalformedBudgetFlagsAreRejected) {
  const std::string path = write_program("p.pf", kPipeline);
  for (const char* bad : {
           "--fuel=-1", "--fuel=abc", "--fuel=",
           "--time-budget=0", "--time-budget=x",
           "--inject=bogus",
           "--inject=warp_core:fail-after=1",
           "--inject=lp_solve:fail-after=-2",
           "--inject=lp_solve:fail=1",
       }) {
    const SplitResult r = run_cli(std::string(bad) + " " + path);
    EXPECT_EQ(r.exit_code, 2) << bad << ":\n" << r.err;
    EXPECT_NE(r.err.find("usage:"), std::string::npos) << bad;
  }
}

// ---- stats surface ---------------------------------------------------

TEST(Robustness, StatsJsonReportsBudgetCounters) {
  const std::string path = write_program("p.pf", kPipeline);
  const SplitResult r = run_cli(
      "--model=wisefuse --fuel=0 --stats=json --emit=c " + path);
  EXPECT_EQ(r.exit_code, 0) << r.err;
  const std::size_t brace = r.err.find('{');
  ASSERT_NE(brace, std::string::npos) << r.err;
  EXPECT_TRUE(pf::testjson::valid(r.err.substr(brace))) << r.err;
  for (const char* key :
       {"budget_exhaustions", "budget_downgrades", "budget_assumed_deps",
        "budget_fuel_dep_pair"}) {
    EXPECT_NE(r.err.find(key), std::string::npos) << key << "\n" << r.err;
  }
  // Zero fuel means the very first charge exhausted: nonzero counter.
  EXPECT_EQ(r.err.find("\"budget_exhaustions\": 0"), std::string::npos)
      << r.err;
}

TEST(Robustness, TinyFuelSweepNeverCrashesAnyModel) {
  const std::string path = write_program("p.pf", kPipeline);
  for (const char* model : {"wisefuse", "smartfuse", "nofuse", "maxfuse"}) {
    for (const char* fuel : {"0", "7", "63", "250"}) {
      const SplitResult r = run_cli(std::string("--model=") + model +
                                    " --fuel=" + fuel + kChecks + path);
      EXPECT_EQ(r.exit_code, 0)
          << "model=" << model << " fuel=" << fuel << "\n" << r.err;
    }
  }
}

}  // namespace
