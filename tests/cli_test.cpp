// Integration tests for the `polyfuse` command-line tool (runs the real
// binary; path injected by CMake).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli_modes.h"
#include "json_check.h"
#include "temp_dir.h"

namespace {

#ifndef POLYFUSE_CLI_PATH
#error "POLYFUSE_CLI_PATH must be defined by the build"
#endif

struct CmdResult {
  int exit_code;
  std::string output;  // stdout + stderr
};

// ctest -j runs many cli_test processes concurrently: each writes into
// its own scratch directory (temp_dir.h).
std::string temp_path(const std::string& name) {
  return pf::testtmp::path(name);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// `env` is prepended verbatim, e.g. "POLYFUSE_DIAG_DIR=/tmp/d".
CmdResult run_cli(const std::string& args, const std::string& env = "") {
  const std::string out_file = temp_path("out");
  const std::string cmd = (env.empty() ? "" : env + " ") +
                          std::string(POLYFUSE_CLI_PATH) + " " + args + " > " +
                          out_file + " 2>&1";
  const int rc = std::system(cmd.c_str());
  return CmdResult{WEXITSTATUS(rc), slurp(out_file)};
}

struct SplitResult {
  int exit_code;
  std::string out, err;
};

// Like run_cli but keeps stdout and stderr apart, so stderr-only channels
// (--explain) can be validated without the emitted program mixed in.
SplitResult run_cli_split(const std::string& args,
                          const std::string& env = "") {
  const std::string out_file = temp_path("stdout");
  const std::string err_file = temp_path("stderr");
  const std::string cmd = (env.empty() ? "" : env + " ") +
                          std::string(POLYFUSE_CLI_PATH) + " " + args + " > " +
                          out_file + " 2> " + err_file;
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

TEST(Cli, EmitsCWithOpenMP) {
  const std::string path = write_program("p.pf", kPipeline);
  const CmdResult r = run_cli("--model=wisefuse --emit=c " + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("void pf_kernel"), std::string::npos);
  EXPECT_NE(r.output.find("#pragma omp parallel for"), std::string::npos);
}

TEST(Cli, NoOpenmpFlag) {
  const std::string path = write_program("p.pf", kPipeline);
  const CmdResult r = run_cli("--emit=c --no-openmp " + path);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output.find("#pragma"), std::string::npos);
}

TEST(Cli, ValidateReportsOk) {
  const std::string path = write_program("p.pf", kPipeline);
  const CmdResult r = run_cli("--validate --emit=ast " + path);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("validation max |diff| = 0 (ok)"),
            std::string::npos);
}

TEST(Cli, ReportShowsPartitionsAndSchedules) {
  const std::string path = write_program("p.pf", kPipeline);
  const CmdResult r = run_cli("--report --emit=sched " + path);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("fusion partitions=1"), std::string::npos);
  EXPECT_NE(r.output.find("T_S1"), std::string::npos);
}

TEST(Cli, EmitDepsAndSource) {
  const std::string path = write_program("p.pf", kPipeline);
  EXPECT_NE(run_cli("--emit=deps " + path).output.find("flow"),
            std::string::npos);
  EXPECT_NE(run_cli("--emit=source " + path).output.find("scop pipeline"),
            std::string::npos);
}

TEST(Cli, TilingReportsBands) {
  const std::string mm = write_program("mm.pf", R"(
    scop mm(N) { context N >= 4;
      array A[N][N]; array B[N][N]; array C[N][N];
      for (i = 0 .. N-1) { for (j = 0 .. N-1) { for (k = 0 .. N-1) {
        S1: C[i][j] = C[i][j] + A[i][k]*B[k][j]; } } } })");
  const CmdResult r = run_cli("--tile=16 --emit=c " + mm);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("tiled 1 band(s) with size 16"), std::string::npos);
  EXPECT_NE(r.output.find("pf_floord"), std::string::npos);
}

TEST(Cli, MachineReport) {
  const std::string path = write_program("p.pf", kPipeline);
  const CmdResult r = run_cli("--machine-report --params=64 --emit=ast " + path);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("modeled cycles"), std::string::npos);
}

TEST(Cli, ErrorsAreClean) {
  EXPECT_NE(run_cli("/nonexistent.pf").exit_code, 0);
  EXPECT_NE(run_cli("").exit_code, 0);  // no input
  const std::string path = write_program("p.pf", kPipeline);
  EXPECT_NE(run_cli("--model=bogus " + path).exit_code, 0);
  EXPECT_NE(run_cli("--emit=bogus " + path).exit_code, 0);
  const std::string bad = write_program("bad.pf", "scop x(N) {");
  const CmdResult r = run_cli(bad);
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("parse error"), std::string::npos);
}

TEST(Cli, BaselineModelWorks) {
  const std::string path = write_program("p.pf", kPipeline);
  const CmdResult r = run_cli("--model=baseline --emit=sched " + path);
  EXPECT_EQ(r.exit_code, 0);
  // Identity: leading scalar positions 0,1,2.
  EXPECT_NE(r.output.find("T_S1 = (0, i, 0)"), std::string::npos);
  EXPECT_NE(r.output.find("T_S3 = (2, i, 0)"), std::string::npos);
}

TEST(Cli, JobsProduceByteIdenticalOutput) {
  const std::string path = write_program("p.pf", kPipeline);
  for (const char* emit : {"--emit=c", "--emit=deps", "--emit=sched"}) {
    const CmdResult serial =
        run_cli(std::string("--jobs=1 ") + emit + " " + path);
    const CmdResult parallel =
        run_cli(std::string("--jobs=4 ") + emit + " " + path);
    EXPECT_EQ(serial.exit_code, 0) << serial.output;
    EXPECT_EQ(parallel.exit_code, 0) << parallel.output;
    EXPECT_EQ(serial.output, parallel.output) << emit;
  }
  EXPECT_NE(run_cli("--jobs=0 " + path).exit_code, 0);
  EXPECT_NE(run_cli("--jobs=x " + path).exit_code, 0);
}

TEST(Cli, FastlaneProducesByteIdenticalOutput) {
  // The int64 fast lane serves every solve of this program at any job
  // count, and the output is byte-identical across them. The
  // differential against bignum cells (lp::testing::ExactPathScope) is
  // tests/exact_path_test.cpp, over the whole suite.
  const std::string path = write_program("p.pf", kPipeline);
  for (const char* emit : {"--emit=c", "--emit=deps", "--emit=sched"}) {
    const std::string base = std::string("--stats ") + emit + " " + path;
    const SplitResult serial = run_cli_split("--jobs=1 " + base);
    const SplitResult parallel = run_cli_split("--jobs=8 " + base);
    EXPECT_EQ(serial.exit_code, 0) << serial.err;
    EXPECT_EQ(parallel.exit_code, 0) << parallel.err;
    EXPECT_EQ(serial.out, parallel.out) << emit;
    for (const SplitResult* r : {&serial, &parallel}) {
      EXPECT_NE(r->err.find("fastlane_fallbacks = 0\n"), std::string::npos)
          << emit << "\n" << r->err;
      EXPECT_EQ(r->err.find("fastlane_solves = 0\n"), std::string::npos)
          << emit << "\n" << r->err;
    }
  }
}

TEST(Cli, NoFastlaneFlagIsAUsageError) {
  // Removed switches are unknown options: the solver has one production
  // path, only a request scope memoizes, a batch request runs once, and
  // only lp::testing::ExactPathScope forces bignum solves.
  const std::string path = write_program("p.pf", kPipeline);
  const struct {
    const char* flag;
    const char* message;
  } removed[] = {
      {"--no-fastlane", "unknown option '--no-fastlane'"},
      {"--no-solve-cache", "unknown option '--no-solve-cache'"},
      {"--batch-retries=1", "unknown option '--batch-retries=1'"},
      {"--inject=lp.fastlane:fail-after=0",
       "unknown injection site 'lp.fastlane'"},
  };
  for (const auto& [flag, message] : removed) {
    const CmdResult r = run_cli(std::string(flag) + " " + path);
    EXPECT_EQ(r.exit_code, 2) << flag << "\n" << r.output;
    EXPECT_NE(r.output.find(message), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
  }
}

TEST(Cli, RemovedEnvVarsAreIgnored) {
  // Flags are the only request configuration: each variable below once
  // mirrored a flag or switched something off, and now changes nothing.
  // --explain makes a changed budget, injection or tracer cap visible.
  const std::string path = write_program("p.pf", kPipeline);
  const std::string args = "--explain --emit=c " + path;
  const SplitResult clean = run_cli_split(args);
  ASSERT_EQ(clean.exit_code, 0) << clean.err;
  const std::string trace = temp_path("env_trace.json");
  const std::string cache = temp_path("env_cache");
  for (const std::string& env :
       {std::string("POLYFUSE_FUEL=0"),
        std::string("POLYFUSE_INJECT=fusion_model:fail-after=0"),
        "POLYFUSE_TRACE=" + trace, "POLYFUSE_CACHE_DIR=" + cache,
        std::string("POLYFUSE_CACHE_MAX_MB=-5"),
        std::string("POLYFUSE_TIME_BUDGET_MS=x"),
        std::string("POLYFUSE_TRACE_MAX_EVENTS=1"),
        std::string("POLYFUSE_NO_FLIGHTREC=1")}) {
    const std::string diag = temp_path("env_diag.json");
    const SplitResult r = run_cli_split("--diagnose=" + diag + " " + args, env);
    EXPECT_EQ(r.exit_code, 0) << env << "\n" << r.err;
    EXPECT_EQ(r.out, clean.out) << env;
    EXPECT_EQ(r.err, clean.err) << env;
    // The flight recorder stays on: the requested dump holds events.
    const std::string dump = slurp(diag);
    EXPECT_NE(dump.find("\"events_recorded\": "), std::string::npos) << env;
    EXPECT_EQ(dump.find("\"events_recorded\": 0,"), std::string::npos)
        << env;
  }
  EXPECT_FALSE(std::filesystem::exists(trace));
  EXPECT_FALSE(std::filesystem::exists(cache));
}

TEST(Cli, FastlaneCountersAppearInStats) {
  const std::string path = write_program("p.pf", kPipeline);
  const CmdResult r = run_cli("--stats --emit=sched " + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("fastlane_solves"), std::string::npos);
  EXPECT_NE(r.output.find("fastlane_rate"), std::string::npos);
  EXPECT_NE(r.output.find("fastlane_fallbacks"), std::string::npos);
}

TEST(Cli, StatsReportShowsSolverWork) {
  const std::string path = write_program("p.pf", kPipeline);
  const CmdResult r = run_cli("--stats --emit=c " + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("simplex_pivots"), std::string::npos);
  EXPECT_NE(r.output.find("solve_cache_hit_rate"), std::string::npos);
  EXPECT_NE(r.output.find("phase parse"), std::string::npos);
  EXPECT_NE(r.output.find("phase deps"), std::string::npos);

  const CmdResult j = run_cli("--stats=json --emit=sched " + path);
  EXPECT_EQ(j.exit_code, 0) << j.output;
  EXPECT_NE(j.output.find("\"counters\""), std::string::npos);
  EXPECT_NE(j.output.find("\"phase_seconds\""), std::string::npos);
}

TEST(Cli, TraceAndExplainEmitWellFormedJson) {
  const std::string path = write_program("p.pf", kPipeline);
  const std::string trace = temp_path("trace.json");
  const SplitResult r =
      run_cli_split("--trace=" + trace + " --explain=json " + path);
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_TRUE(pf::testjson::valid(r.err)) << r.err;
  EXPECT_NE(r.err.find("\"remarks\""), std::string::npos);
  EXPECT_NE(r.err.find("\"verdict\""), std::string::npos);

  const std::string tj = slurp(trace);
  EXPECT_TRUE(pf::testjson::valid(tj));
  EXPECT_NE(tj.find("\"traceEvents\""), std::string::npos);
  // Spans from every instrumented pipeline layer land in one trace.
  for (const char* cat :
       {"\"deps\"", "\"lp\"", "\"sched\"", "\"fusion\"", "\"phase\""})
    EXPECT_NE(tj.find(cat), std::string::npos) << cat;
}

TEST(Cli, ExplainIsByteIdenticalAcrossJobs) {
  const std::string path = write_program("p.pf", kPipeline);
  const SplitResult serial = run_cli_split("--jobs=1 --explain " + path);
  const SplitResult parallel = run_cli_split("--jobs=4 --explain " + path);
  EXPECT_EQ(serial.exit_code, 0) << serial.err;
  EXPECT_EQ(parallel.exit_code, 0) << parallel.err;
  EXPECT_FALSE(serial.err.empty());
  EXPECT_EQ(serial.err, parallel.err);
  // Every fusion candidate gets a remark naming the cost-model verdict.
  EXPECT_NE(serial.err.find("fusion candidate"), std::string::npos);
  EXPECT_NE(serial.err.find("verdict=fused"), std::string::npos);
  EXPECT_NE(serial.err.find("outer_parallelism="), std::string::npos);
}

TEST(Cli, VerifyStrictPassesUnderEveryModel) {
  const std::string path = write_program("p.pf", kPipeline);
  for (const char* model :
       {"nofuse", "smartfuse", "maxfuse", "wisefuse", "baseline"}) {
    const SplitResult r = run_cli_split(std::string("--verify=strict --model=") +
                                        model + " --emit=c " + path);
    EXPECT_EQ(r.exit_code, 0) << model << ": " << r.err;
    EXPECT_NE(r.err.find("verify: checked"), std::string::npos) << model;
    EXPECT_NE(r.err.find(": ok"), std::string::npos) << model;
    EXPECT_EQ(r.err.find("VIOLATION"), std::string::npos) << model;
  }
}

TEST(Cli, VerifyCoversTiledOutputAndSchedOnlyEmit) {
  const std::string mm = write_program("mm.pf", R"(
    scop mm(N) { context N >= 4;
      array A[N][N]; array B[N][N]; array C[N][N];
      for (i = 0 .. N-1) { for (j = 0 .. N-1) { for (k = 0 .. N-1) {
        S1: C[i][j] = C[i][j] + A[i][k]*B[k][j]; } } } })");
  const SplitResult tiled =
      run_cli_split("--verify=strict --tile=16 --emit=c " + mm);
  EXPECT_EQ(tiled.exit_code, 0) << tiled.err;
  EXPECT_NE(tiled.err.find("race check(s)"), std::string::npos) << tiled.err;
  EXPECT_NE(tiled.err.find(": ok"), std::string::npos) << tiled.err;
  // Tile + point loops both claim parallel, so races were really checked.
  EXPECT_EQ(tiled.err.find(" 0 race check(s)"), std::string::npos) << tiled.err;

  // --emit=sched verifies schedule-level checks (no AST -> no race check).
  const SplitResult sched = run_cli_split("--verify=strict --emit=sched " + mm);
  EXPECT_EQ(sched.exit_code, 0) << sched.err;
  EXPECT_NE(sched.err.find("verify: checked"), std::string::npos);

  // Pre-schedule emit modes have nothing to verify: usage error.
  const CmdResult deps = run_cli("--verify --emit=deps " + mm);
  EXPECT_EQ(deps.exit_code, 2);
  EXPECT_NE(deps.output.find("usage:"), std::string::npos);
}

TEST(Cli, VerifyCountsLandInStatsJson) {
  const std::string path = write_program("p.pf", kPipeline);
  const SplitResult r =
      run_cli_split("--verify --stats=json --emit=sched " + path);
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.err.find("\"verify_checked_deps\": 3"), std::string::npos)
      << r.err;
  EXPECT_NE(r.err.find("\"verify_violations\": 0"), std::string::npos);
  EXPECT_NE(r.err.find("\"verify_race_checks\""), std::string::npos);
  // The stats block (after the summary lines) must still be valid JSON.
  const std::size_t brace = r.err.find('{');
  ASSERT_NE(brace, std::string::npos);
  EXPECT_TRUE(pf::testjson::valid(r.err.substr(brace))) << r.err;
}

TEST(Cli, HelpDocumentsEveryOptionAndCheckMode) {
  // The option table (tools/cli_modes.h) is the single source of truth:
  // --help must render every flag, and README.md must mention every
  // program-checking mode, so the docs cannot drift from the binary.
  const CmdResult r = run_cli("--help");
  for (const pf::cli::OptionDoc& doc : pf::cli::kOptionDocs) {
    std::string flag = doc.flag;
    flag = flag.substr(0, flag.find_first_of("[="));
    EXPECT_NE(r.output.find(flag), std::string::npos)
        << flag << " missing from --help";
  }
  const std::string readme = slurp(POLYFUSE_README_PATH);
  ASSERT_FALSE(readme.empty()) << "README not found at " << POLYFUSE_README_PATH;
  for (const char* mode : pf::cli::kCheckModes) {
    EXPECT_NE(r.output.find(mode), std::string::npos)
        << mode << " missing from --help";
    EXPECT_NE(readme.find(mode), std::string::npos)
        << mode << " missing from README.md";
  }
}

TEST(Cli, LintStrictPassesOnEveryExample) {
  namespace fs = std::filesystem;
  std::size_t n = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(
           POLYFUSE_EXAMPLES_DIR)) {
    if (e.path().extension() != ".pf") continue;
    ++n;
    const SplitResult r =
        run_cli_split("--lint=strict --emit=sched " + e.path().string());
    EXPECT_EQ(r.exit_code, 0) << e.path() << ":\n" << r.err;
    EXPECT_NE(r.err.find("lint: checked"), std::string::npos) << e.path();
    EXPECT_EQ(r.err.find("lint: error"), std::string::npos)
        << e.path() << ":\n" << r.err;
  }
  EXPECT_GE(n, 2u) << "examples/ should hold at least matmul and pipeline";
}

TEST(Cli, LintStrictCatchesInjectedBugs) {
  struct Case {
    const char* name;
    const char* text;
    const char* expect;  // diagnostic substring
  };
  const Case cases[] = {
      {"oob.pf",
       "scop oob(N) { context N >= 4; array a[N];\n"
       "for (i = 0 .. N) { S1: a[i] = i * 1.0; } }",
       "error out-of-bounds S1 a (dim 0)"},
      {"uninit.pf",
       "scop uninit(N) { context N >= 4; local array t[N]; array b[N];\n"
       "for (i = 1 .. N-1) { S1: t[i] = i * 1.0; }\n"
       "for (i = 0 .. N-1) { S2: b[i] = t[i]; } }",
       "error uninitialized-read S2 t"},
      {"dead.pf",
       "scop dead(N) { context N >= 4; local array t[N]; array b[N];\n"
       "for (i = 0 .. N-1) { S1: t[i] = i * 1.0; }\n"
       "for (i = 0 .. N-1) { S2: b[i] = i * 2.0; } }",
       "error dead-write S1 t"},
  };
  for (const Case& c : cases) {
    const std::string path = write_program(c.name, c.text);
    // A strict failure dumps a diagnostic; keep it in the scratch dir.
    const SplitResult strict =
        run_cli_split("--lint=strict --emit=sched " + path,
                      "POLYFUSE_DIAG_DIR=" + pf::testtmp::dir());
    EXPECT_EQ(strict.exit_code, 1) << c.name << ":\n" << strict.err;
    EXPECT_NE(strict.err.find(c.expect), std::string::npos)
        << c.name << ":\n" << strict.err;
    // Non-strict mode reports the same finding but does not fail.
    const SplitResult lax = run_cli_split("--lint --emit=sched " + path);
    EXPECT_EQ(lax.exit_code, 0) << c.name << ":\n" << lax.err;
    EXPECT_NE(lax.err.find(c.expect), std::string::npos) << c.name;
  }
}

TEST(Cli, LintWorksWithEveryEmitMode) {
  // Unlike --verify (which needs a schedule), lint checks the *input*
  // program: it composes with every emit mode, including the
  // pre-schedule ones.
  const std::string path = write_program("p.pf", kPipeline);
  for (const char* emit :
       {"--emit=source", "--emit=deps", "--emit=sched", "--emit=c"}) {
    const SplitResult r =
        run_cli_split(std::string("--lint=strict ") + emit + " " + path);
    EXPECT_EQ(r.exit_code, 0) << emit << ":\n" << r.err;
    EXPECT_NE(r.err.find("lint: checked 6 access(es), 3 value flow(s): ok"),
              std::string::npos)
        << emit << ":\n" << r.err;
  }
}

TEST(Cli, LintRemarksByteIdenticalAcrossJobs) {
  const std::string path = write_program("p.pf", kPipeline);
  const SplitResult serial = run_cli_split("--jobs=1 --lint --explain " + path);
  const SplitResult parallel =
      run_cli_split("--jobs=4 --lint --explain " + path);
  EXPECT_EQ(serial.exit_code, 0) << serial.err;
  EXPECT_EQ(serial.err, parallel.err);
  EXPECT_NE(serial.err.find("[lint]"), std::string::npos) << serial.err;
}

TEST(Cli, LintCountsLandInStatsJson) {
  const std::string path = write_program("p.pf", kPipeline);
  const SplitResult r = run_cli_split("--lint --stats=json --emit=sched " + path);
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.err.find("\"lint_checked_accesses\": 6"), std::string::npos)
      << r.err;
  EXPECT_NE(r.err.find("\"lint_value_flows\": 3"), std::string::npos);
  EXPECT_NE(r.err.find("\"lint_errors\": 0"), std::string::npos);
  const std::size_t brace = r.err.find('{');
  ASSERT_NE(brace, std::string::npos);
  EXPECT_TRUE(pf::testjson::valid(r.err.substr(brace))) << r.err;
}

TEST(Cli, AnalyzeReportsExactCounts) {
  const std::string path = write_program("p.pf", kPipeline);
  const SplitResult r =
      run_cli_split("--analyze --params=8 --emit=sched " + path);
  EXPECT_EQ(r.exit_code, 0) << r.err;
  for (const char* line :
       {"analyze: params N=8", "analyze: statement S1: 8 instance(s)",
        "analyze: array a: footprint 8, accesses 24, reuse 16",
        "analyze: array c: footprint 8, accesses 8, reuse 0",
        "analyze: pair S1/S1: 0 shared cell(s)",
        "analyze: pair S1/S2: 8 shared cell(s)",
        "analyze: pair S2/S3: 16 shared cell(s)",
        "analyze: 3 statement(s), 3 array(s), 0 finding(s), 6 pair(s)"})
    EXPECT_NE(r.err.find(line), std::string::npos) << line << "\n" << r.err;
}

TEST(Cli, AnalyzeJsonIsValidAndByteIdenticalAcrossJobs) {
  const std::string path = write_program("p.pf", kPipeline);
  const std::string base = "--analyze=json --params=8 --emit=source " + path;
  const SplitResult serial = run_cli_split("--jobs=1 " + base);
  const SplitResult parallel = run_cli_split("--jobs=8 " + base);
  EXPECT_EQ(serial.exit_code, 0) << serial.err;
  EXPECT_EQ(parallel.exit_code, 0) << parallel.err;
  EXPECT_EQ(serial.err, parallel.err);
  EXPECT_TRUE(pf::testjson::valid(serial.err)) << serial.err;
  for (const char* want :
       {"\"analyze\"", "\"params\": {\"N\": 8}",
        "{\"name\": \"a\", \"footprint\": 8, \"accesses\": 24, \"reuse\": 16}",
        "{\"s\": \"S2\", \"t\": \"S3\", \"shared_cells\": 16}"})
    EXPECT_NE(serial.err.find(want), std::string::npos)
        << want << "\n" << serial.err;
}

TEST(Cli, AnalyzeWorksWithEveryEmitMode) {
  // Like --lint, --analyze inspects the *input* program and composes
  // with every emit mode, including the pre-schedule ones.
  const std::string path = write_program("p.pf", kPipeline);
  for (const char* emit :
       {"--emit=source", "--emit=deps", "--emit=sched", "--emit=c"}) {
    const SplitResult r =
        run_cli_split(std::string("--analyze ") + emit + " " + path);
    EXPECT_EQ(r.exit_code, 0) << emit << ":\n" << r.err;
    EXPECT_NE(
        r.err.find("analyze: 3 statement(s), 3 array(s), 0 finding(s)"),
        std::string::npos)
        << emit << ":\n" << r.err;
  }
}

TEST(Cli, AnalyzeCountsLandInDeterministicStats) {
  // The count_* counters and the steps histogram live in the
  // deterministic part of --stats=json (everything before "runtime"):
  // byte-identical at every --jobs.
  const std::string path = write_program("p.pf", kPipeline);
  const std::string base = "--analyze --stats=json --emit=sched " + path;
  const SplitResult serial = run_cli_split("--jobs=1 " + base);
  const SplitResult parallel = run_cli_split("--jobs=8 " + base);
  EXPECT_EQ(serial.exit_code, 0) << serial.err;
  const auto deterministic_part = [](const std::string& err) {
    const std::size_t runtime = err.find("\"runtime\"");
    EXPECT_NE(runtime, std::string::npos) << err;
    return err.substr(0, runtime);
  };
  const std::string det = deterministic_part(serial.err);
  EXPECT_EQ(det, deterministic_part(parallel.err));
  for (const char* c :
       {"\"count_solves\"", "\"count_steps\"", "\"count_cache_hits\"",
        "\"count_cache_misses\"", "\"count_unknowns\": 0",
        "\"count_steps_per_solve\""})
    EXPECT_NE(det.find(c), std::string::npos) << c << "\n" << det;
  // The wall-clock histogram is runtime-only.
  EXPECT_EQ(det.find("\"count_solve_us\""), std::string::npos);
  EXPECT_NE(serial.err.find("\"count_solve_us\""), std::string::npos);
}

TEST(Cli, AnalyzeFuelDegradesToStructuredUnknown) {
  // Out of fuel the counts must degrade to the structured "unknown" --
  // never a number -- and the run still succeeds end to end.
  const std::string path = write_program("p.pf", kPipeline);
  const SplitResult r =
      run_cli_split("--analyze=json --fuel=5 --emit=source " + path);
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_TRUE(pf::testjson::valid(r.err)) << r.err;
  EXPECT_NE(r.err.find("\"instances\": \"unknown\""), std::string::npos)
      << r.err;
  EXPECT_NE(r.err.find("\"shared_cells\": \"unknown\""), std::string::npos)
      << r.err;
}

TEST(Cli, AnalyzeFeedsExplainAndMachineReport) {
  const std::string path = write_program("p.pf", kPipeline);
  // The profitability oracle enriches wisefuse's candidate remarks with
  // exact shared-cell counts (S3 vs the fused {S1, S2}: 16 + 32 cells
  // at the default N=16).
  const SplitResult e =
      run_cli_split("--analyze --explain --emit=sched " + path);
  EXPECT_EQ(e.exit_code, 0) << e.err;
  EXPECT_NE(e.err.find("verdict=fused, shared_cells=48"), std::string::npos)
      << e.err;
  // Without --analyze no oracle is installed: remarks stay unchanged.
  const SplitResult plain = run_cli_split("--explain --emit=sched " + path);
  EXPECT_EQ(plain.err.find("shared_cells"), std::string::npos) << plain.err;
  // The machine report gains the counted compulsory-traffic floor:
  // 3 arrays x 16 cells x 8 bytes.
  const SplitResult m =
      run_cli_split("--analyze --machine-report --params=16 --emit=c " + path);
  EXPECT_EQ(m.exit_code, 0) << m.err;
  EXPECT_NE(m.err.find("counted footprint:    384 bytes"), std::string::npos)
      << m.err;
  const SplitResult m0 =
      run_cli_split("--machine-report --params=16 --emit=c " + path);
  EXPECT_EQ(m0.err.find("counted footprint"), std::string::npos) << m0.err;
}

TEST(Cli, AnalyzeCountsSurviveFastlaneFallback) {
  // The counting report is well-formed and byte-identical at any job
  // count. The differential against bignum cells is
  // ExactPath.SuiteMatchesDefault (tests/exact_path_test.cpp).
  const std::string path = write_program("p.pf", kPipeline);
  const std::string base = "--analyze=json --params=8 --emit=source " + path;
  const SplitResult serial = run_cli_split("--jobs=1 " + base);
  const SplitResult parallel = run_cli_split("--jobs=8 " + base);
  EXPECT_EQ(serial.exit_code, 0) << serial.err;
  EXPECT_EQ(parallel.exit_code, 0) << parallel.err;
  EXPECT_TRUE(pf::testjson::valid(serial.err)) << serial.err;
  EXPECT_EQ(serial.err, parallel.err);
}

// ---------------------------------------------------------------------------
// --reductions / --no-reductions (docs/reductions.md).
// ---------------------------------------------------------------------------

std::string example_path(const char* name) {
  return std::string(POLYFUSE_EXAMPLES_DIR) + "/" + name;
}

TEST(Cli, ReductionsReportByteIdenticalAcrossJobs) {
  const std::string base =
      "--reductions=json --emit=sched " + example_path("dotprod.pf");
  const SplitResult serial = run_cli_split("--jobs=1 " + base);
  const SplitResult parallel = run_cli_split("--jobs=8 " + base);
  EXPECT_EQ(serial.exit_code, 0) << serial.err;
  EXPECT_EQ(parallel.exit_code, 0) << parallel.err;
  EXPECT_EQ(serial.err, parallel.err);
  EXPECT_TRUE(pf::testjson::valid(serial.err)) << serial.err;
  for (const char* want :
       {"\"reductions\"", "\"scop\": \"dotprod\"", "\"degraded\": false",
        "\"stmt\": \"S2\"", "\"op\": \"+\"", "\"array\": \"s\"",
        "\"relaxable_dep_ids\""})
    EXPECT_NE(serial.err.find(want), std::string::npos)
        << want << "\n" << serial.err;

  // Text mode names the accumulator and the relaxable count.
  const SplitResult text = run_cli_split("--reductions --emit=sched " +
                                         example_path("dotprod.pf"));
  EXPECT_EQ(text.exit_code, 0) << text.err;
  EXPECT_NE(text.err.find("reductions: dotprod"), std::string::npos)
      << text.err;
  EXPECT_NE(text.err.find("relaxable dependences:"), std::string::npos)
      << text.err;
}

TEST(Cli, ReductionExamplesSurviveFullCliMatrix) {
  // The two reduction examples compose with every inspection mode.
  for (const char* example : {"dotprod.pf", "histogram.pf"}) {
    for (const char* mode :
         {"--analyze", "--lint", "--verify=strict --validate", "--explain",
          "--reductions"}) {
      const SplitResult r = run_cli_split(std::string(mode) + " --emit=c " +
                                          example_path(example));
      EXPECT_EQ(r.exit_code, 0) << example << " " << mode << ":\n" << r.err;
      EXPECT_NE(r.out.find("void pf_kernel"), std::string::npos)
          << example << " " << mode;
    }
  }
}

TEST(Cli, NoReductionsKeepsAccumulationSerial) {
  // The dot-product accumulation parallelizes only via the relaxed
  // self-dependence: with the pass on, the emitted C carries an OpenMP
  // reduction clause; --no-reductions falls back to the classic serial
  // loop (and still verifies).
  const SplitResult on = run_cli_split("--verify=strict --emit=c " +
                                       example_path("dotprod.pf"));
  EXPECT_EQ(on.exit_code, 0) << on.err;
  EXPECT_NE(on.out.find("reduction(+:"), std::string::npos) << on.out;

  const SplitResult off = run_cli_split(
      "--no-reductions --verify=strict --emit=c " + example_path("dotprod.pf"));
  EXPECT_EQ(off.exit_code, 0) << off.err;
  EXPECT_EQ(off.out.find("reduction("), std::string::npos) << off.out;
}

TEST(Cli, ReductionInjectionDegradesGracefully) {
  // An injected fault at analysis.reductions empties the analysis --
  // nothing relaxed, no clause -- but the pipeline still emits a correct
  // serial kernel, verifies strictly, and reports the degradation.
  const SplitResult r = run_cli_split(
      "--inject=analysis.reductions:fail-after=0 --reductions --explain "
      "--verify=strict --emit=c " +
      example_path("dotprod.pf"));
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("void pf_kernel"), std::string::npos);
  EXPECT_EQ(r.out.find("reduction("), std::string::npos) << r.out;
  EXPECT_NE(r.err.find("(degraded: budget exhausted; nothing claimed)"),
            std::string::npos)
      << r.err;
  EXPECT_NE(r.err.find("reduction analysis degraded"), std::string::npos)
      << r.err;
  EXPECT_NE(r.err.find("fault-injected"), std::string::npos) << r.err;
}

TEST(Cli, ReductionCountersLandInDeterministicStats) {
  const std::string base =
      "--verify --stats=json --emit=c " + example_path("dotprod.pf");
  const SplitResult serial = run_cli_split("--jobs=1 " + base);
  const SplitResult parallel = run_cli_split("--jobs=8 " + base);
  EXPECT_EQ(serial.exit_code, 0) << serial.err;
  const auto deterministic_part = [](const std::string& err) {
    const std::size_t runtime = err.find("\"runtime\"");
    EXPECT_NE(runtime, std::string::npos) << err;
    return err.substr(0, runtime);
  };
  const std::string det = deterministic_part(serial.err);
  EXPECT_EQ(det, deterministic_part(parallel.err));
  for (const char* c :
       {"\"reduction_statements\": 1", "\"reduction_relaxed_deps\": 3",
        "\"reduction_priv_arrays\": 0", "\"reduction_clauses\": 1",
        "\"verify_reduction_checks\"", "\"verify_reduction_waivers\""})
    EXPECT_NE(det.find(c), std::string::npos) << c << "\n" << det;
}

TEST(Cli, MalformedProgramsProduceLocatedDiagnostics) {
  struct Case {
    const char* name;
    const char* text;
    const char* expect;
  };
  const Case cases[] = {
      {"unterminated.pf",
       "scop u(N) { context N >= 4; array a[N];\n"
       "for (i = 0 .. N-1) { S1: a[i] = 1.0 } }",
       "parse error at"},
      {"nonaffine.pf",
       "scop u(N) { context N >= 4; array a[N*N];\n"
       "for (i = 0 .. N-1) { for (j = 0 .. N-1) {\n"
       "S1: a[i*j] = 1.0; } } }",
       "parse error at"},
      {"hugeint.pf",
       "scop u(N) { context N >= 99999999999999999999; array a[N];\n"
       "for (i = 0 .. N-1) { S1: a[i] = 1.0; } }",
       "lex error at"},
  };
  for (const Case& c : cases) {
    const std::string path = write_program(c.name, c.text);
    const CmdResult r = run_cli(path);
    EXPECT_EQ(r.exit_code, 1) << c.name << ": " << r.output;
    EXPECT_NE(r.output.find(c.expect), std::string::npos)
        << c.name << ": " << r.output;
    // A user input error is not an internal invariant failure: no source
    // locations of the compiler itself, no bare stdlib exceptions.
    EXPECT_EQ(r.output.find("check failed"), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find("stoll"), std::string::npos) << r.output;
  }
}

TEST(Cli, StatsJsonHistogramsDeterministicAcrossJobs) {
  // The determinism contract of docs/observability.md: everything outside
  // the "runtime" subtree of --stats=json is byte-identical at every
  // --jobs, solve-cache hit/miss totals included (the memo table solves
  // each key once and makes concurrent askers wait for it). The
  // histograms of per-solve work live in the deterministic part.
  const std::string path = write_program("p.pf", kPipeline);
  const std::string base = "--stats=json --emit=sched " + path;
  const SplitResult serial = run_cli_split("--jobs=1 " + base);
  const SplitResult parallel = run_cli_split("--jobs=8 " + base);
  EXPECT_EQ(serial.exit_code, 0) << serial.err;
  EXPECT_EQ(parallel.exit_code, 0) << parallel.err;
  const auto deterministic_part = [](const std::string& err) {
    const std::size_t runtime = err.find("\"runtime\"");
    EXPECT_NE(runtime, std::string::npos) << err;
    return err.substr(0, runtime);
  };
  EXPECT_EQ(deterministic_part(serial.err), deterministic_part(parallel.err));
  // Every histogram the registry defines is present.
  for (const char* h :
       {"\"simplex_pivots_per_solve\"", "\"ilp_nodes_per_solve\"",
        "\"fme_rows_per_elimination\"", "\"simplex_solve_us\"",
        "\"ilp_solve_us\"", "\"dep_pair_us\""})
    EXPECT_NE(serial.err.find(h), std::string::npos) << h;
  EXPECT_TRUE(pf::testjson::valid(
      serial.err.substr(0, serial.err.find_last_of('}') + 1)))
      << serial.err;
}

// The polyfuse-diag.*.json files a run directed at `dir` left behind.
std::vector<std::string> diag_files_in(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.path().filename().string().rfind("polyfuse-diag.", 0) == 0)
      out.push_back(e.path().string());
  return out;
}

std::string make_diag_dir(const std::string& name) {
  const std::string dir = temp_path(name);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(Cli, HardInjectionLeavesParseableCrashDiagnostic) {
  // --inject=SITE:abort-after=K kills the run with SIGABRT at a
  // deterministic operation; the crash handler must leave a parseable
  // flight-recorder dump with recent events and a metrics snapshot.
  const std::string path = write_program("p.pf", kPipeline);
  const std::string dir = make_diag_dir("crashdiag");
  const CmdResult r = run_cli("--inject=lp_solve:abort-after=0 " + path,
                              "POLYFUSE_DIAG_DIR=" + dir);
  EXPECT_NE(r.exit_code, 0);
  const auto diags = diag_files_in(dir);
  ASSERT_EQ(diags.size(), 1u) << r.output;
  const std::string dump = slurp(diags[0]);
  EXPECT_TRUE(pf::testjson::valid(dump)) << dump;
  EXPECT_NE(dump.find("\"cause\": \"signal:SIGABRT\""), std::string::npos);
  // The hard injection's own breadcrumb is the last recorded event.
  EXPECT_NE(dump.find("\"abort-injected\""), std::string::npos) << dump;
  // Recent spans/phases and the metrics snapshot are all present.
  EXPECT_NE(dump.find("\"events\""), std::string::npos);
  EXPECT_NE(dump.find("\"parse\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"metrics\""), std::string::npos);
  EXPECT_NE(dump.find("\"simplex_pivots\""), std::string::npos);
  EXPECT_NE(dump.find("\"invocation\""), std::string::npos);
}

TEST(Cli, ConcurrentHardAbortsLeaveOneParseableDump) {
  // Every dependence pair has its own sub-budget, so at --jobs=4 the
  // first solve of each pair aborts: several workers die at once. The
  // threads that lose the race to write the dump must wait for the
  // winner instead of killing the process mid-write. Repeated because
  // the race does not show on every run.
  const std::string path = write_program("p.pf", kPipeline);
  for (int run = 0; run < 20; ++run) {
    const std::string dir = make_diag_dir("concurrentdiag" +
                                          std::to_string(run));
    const CmdResult r =
        run_cli("--jobs=4 --inject=lp_solve:abort-after=0 " + path,
                "POLYFUSE_DIAG_DIR=" + dir);
    EXPECT_NE(r.exit_code, 0);
    const auto diags = diag_files_in(dir);
    ASSERT_EQ(diags.size(), 1u) << "run " << run << ": " << r.output;
    const std::string dump = slurp(diags[0]);
    ASSERT_TRUE(pf::testjson::valid(dump)) << "run " << run << ": " << dump;
    EXPECT_NE(dump.find("\"cause\": \"signal:SIGABRT\""), std::string::npos);
    std::filesystem::remove_all(dir);
  }
}

TEST(Cli, DiagnoseFlagWritesReportOnNormalExit) {
  const std::string path = write_program("p.pf", kPipeline);
  const std::string diag = temp_path("diagnose.json");
  const CmdResult r = run_cli("--diagnose=" + diag + " --emit=sched " + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const std::string dump = slurp(diag);
  ASSERT_FALSE(dump.empty());
  EXPECT_TRUE(pf::testjson::valid(dump)) << dump;
  EXPECT_NE(dump.find("\"cause\": \"requested\""), std::string::npos);
  EXPECT_NE(dump.find("\"events\""), std::string::npos);
  EXPECT_NE(dump.find("\"metrics\""), std::string::npos);
}

TEST(Cli, StrictLintFailureStillPrintsStatsAndDumpsDiag) {
  // Early-exit paths owe the user their requested outputs: a strict lint
  // failure exits 1 but --stats must still report, and a crash-style
  // diagnostic records why the run was rejected.
  const std::string bad = write_program(
      "oobstats.pf",
      "scop oob(N) { context N >= 4; array a[N];\n"
      "for (i = 0 .. N) { S1: a[i] = i * 1.0; } }");
  const std::string dir = make_diag_dir("lintdiag");
  const std::string out_file = temp_path("lintout");
  const std::string cmd = "POLYFUSE_DIAG_DIR=" + dir + " " +
                          std::string(POLYFUSE_CLI_PATH) +
                          " --lint=strict --stats --emit=sched " + bad +
                          " > " + out_file + " 2>&1";
  const int rc = std::system(cmd.c_str());
  const std::string output = slurp(out_file);
  EXPECT_EQ(WEXITSTATUS(rc), 1) << output;
  EXPECT_NE(output.find("compile pipeline stats:"), std::string::npos)
      << output;
  EXPECT_NE(output.find("lint_errors = 1"), std::string::npos) << output;
  const auto diags = diag_files_in(dir);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(slurp(diags[0]).find("\"cause\": \"lint-strict-failure\""),
            std::string::npos);
}

TEST(Cli, MalformedNumericOptionsExitWithUsage) {
  const std::string path = write_program("p.pf", kPipeline);
  for (const char* bad :
       {"--tile=abc", "--tile=32xyz", "--tile=", "--tile=0",
        "--params=1,x", "--jobs=99999999999999999999"}) {
    const CmdResult r = run_cli(std::string(bad) + " " + path);
    EXPECT_EQ(r.exit_code, 2) << bad << ": " << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos) << bad;
  }
}

}  // namespace
