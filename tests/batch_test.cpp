// Integration tests for the crash-safe batch driver and the persistent
// disk cache, against the real binary (tools/batch.cpp, docs/service.md):
// directory and manifest ingestion, jobs-invariant byte-identical
// reports, warm-vs-cold cache identity, one run per request, fork-isolated
// crash containment and cache-corruption immunity.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>

namespace {

namespace fs = std::filesystem;

#ifndef POLYFUSE_CLI_PATH
#error "POLYFUSE_CLI_PATH must be defined by the build"
#endif
#ifndef POLYFUSE_EXAMPLES_DIR
#error "POLYFUSE_EXAMPLES_DIR must be defined by the build"
#endif

struct CmdResult {
  int exit_code;
  std::string out, err;
};

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Every test gets its own scratch tree (ctest -j runs suites in
// parallel against one TempDir).
class BatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            ("batch_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    fs::create_directories(root_ / "in");
    for (const char* name : {"pipeline.pf", "matmul.pf", "dotprod.pf"})
      fs::copy_file(fs::path(POLYFUSE_EXAMPLES_DIR) / name,
                    root_ / "in" / name);
  }
  void TearDown() override { fs::remove_all(root_); }

  CmdResult run(const std::string& args, const std::string& env = "") {
    const fs::path out_file = root_ / "cmd.out";
    const fs::path err_file = root_ / "cmd.err";
    const std::string cmd = (env.empty() ? "" : env + " ") +
                            std::string(POLYFUSE_CLI_PATH) + " " + args +
                            " > " + out_file.string() + " 2> " +
                            err_file.string();
    const int rc = std::system(cmd.c_str());
    return CmdResult{WEXITSTATUS(rc), slurp(out_file), slurp(err_file)};
  }

  std::string in() const { return (root_ / "in").string(); }
  fs::path path(const std::string& rel) const { return root_ / rel; }

  fs::path root_;
};

TEST_F(BatchTest, DirectoryBatchCompilesEverything) {
  const CmdResult r = run("--batch=" + in() + " --batch-out=" +
                          path("out").string() + " --batch-report=" +
                          path("r.json").string());
  EXPECT_EQ(r.exit_code, 0) << r.err;
  const std::string report = slurp(path("r.json"));
  EXPECT_NE(report.find("\"schema\": \"polyfuse-batch-report-v2\""),
            std::string::npos);
  EXPECT_NE(report.find("\"total\": 3, \"ok\": 3"), std::string::npos);
  for (const char* stem : {"pipeline", "matmul", "dotprod"}) {
    EXPECT_TRUE(fs::exists(path("out") / (std::string(stem) + ".out")));
    // Each .out is the same program single mode emits.
    const CmdResult single =
        run((fs::path(in()) / (std::string(stem) + ".pf")).string());
    EXPECT_EQ(single.exit_code, 0);
    EXPECT_EQ(slurp(path("out") / (std::string(stem) + ".out")), single.out)
        << stem;
  }
}

TEST_F(BatchTest, ManifestBatchResolvesRelativePaths) {
  {
    std::ofstream m(path("list.txt"));
    m << "# comment line\n\nin/matmul.pf\nin/pipeline.pf\n";
  }
  const CmdResult r = run("--batch=" + path("list.txt").string() +
                          " --batch-out=" + path("out").string() +
                          " --batch-report=" + path("r.json").string());
  EXPECT_EQ(r.exit_code, 0) << r.err;
  const std::string report = slurp(path("r.json"));
  // Manifest order is preserved.
  EXPECT_LT(report.find("matmul"), report.find("pipeline"));
  EXPECT_NE(report.find("\"total\": 2, \"ok\": 2"), std::string::npos);
}

TEST_F(BatchTest, ReportIsByteIdenticalAtAnyJobs) {
  for (const char* jobs : {"1", "2", "7"}) {
    const CmdResult r =
        run("--batch=" + in() + " --batch-out=" + path("o" + std::string(jobs)).string() +
            " --batch-report=" + path("r" + std::string(jobs) + ".json").string() +
            " --jobs=" + jobs);
    ASSERT_EQ(r.exit_code, 0) << r.err;
  }
  const std::string r1 = slurp(path("r1.json"));
  EXPECT_EQ(r1, slurp(path("r2.json")));
  EXPECT_EQ(r1, slurp(path("r7.json")));
  // The emitted programs match too.
  EXPECT_EQ(slurp(path("o1") / "pipeline.out"),
            slurp(path("o7") / "pipeline.out"));
}

TEST_F(BatchTest, WarmCacheRerunIsByteIdentical) {
  const std::string common = "--batch=" + in() + " --cache-dir=" +
                             path("cache").string() + " --batch-report=";
  const CmdResult cold = run(common + path("rc.json").string() +
                             " --batch-out=" + path("oc").string());
  ASSERT_EQ(cold.exit_code, 0) << cold.err;
  ASSERT_FALSE(fs::is_empty(path("cache")));
  const CmdResult warm = run(common + path("rw.json").string() +
                             " --batch-out=" + path("ow").string());
  ASSERT_EQ(warm.exit_code, 0) << warm.err;
  for (const char* stem : {"pipeline", "matmul", "dotprod"}) {
    EXPECT_EQ(slurp(path("oc") / (std::string(stem) + ".out")),
              slurp(path("ow") / (std::string(stem) + ".out")))
        << stem;
  }
  EXPECT_EQ(slurp(path("rc.json")), slurp(path("rw.json")));
}

TEST_F(BatchTest, WarmRunServesSolvesFromDisk) {
  // Single-request mode shares the cache plumbing; --stats exposes the
  // counters. Cold run populates; warm run must serve from disk and cut
  // the ILP solve count by at least half (the PR acceptance bar).
  const std::string args = "--cache-dir=" + path("cache").string() +
                           " --stats " +
                           (fs::path(in()) / "matmul.pf").string();
  const CmdResult cold = run(args);
  ASSERT_EQ(cold.exit_code, 0);
  const CmdResult warm = run(args);
  ASSERT_EQ(warm.exit_code, 0);
  EXPECT_EQ(cold.out, warm.out);

  using i64 = long long;
  auto counter = [](const std::string& stats, const std::string& name) {
    const std::size_t pos = stats.find(name + " = ");
    EXPECT_NE(pos, std::string::npos) << name;
    if (pos == std::string::npos) return i64{-1};
    return static_cast<i64>(
        std::strtoll(stats.c_str() + pos + name.size() + 3, nullptr, 10));
  };
  const i64 cold_solves = counter(cold.err, "ilp_solves");
  const i64 warm_solves = counter(warm.err, "ilp_solves");
  const i64 warm_hits = counter(warm.err, "diskcache_hits");
  EXPECT_GT(cold_solves, 0);
  EXPECT_GT(warm_hits, 0);
  EXPECT_LE(warm_solves * 2, cold_solves)
      << "warm run must eliminate >= 50% of ILP solves (cold="
      << cold_solves << ", warm=" << warm_solves << ")";
}

TEST_F(BatchTest, CorruptedCacheNeverAltersOutput) {
  const std::string cache = path("cache").string();
  const std::string input = (fs::path(in()) / "pipeline.pf").string();
  const CmdResult clean = run(input);
  ASSERT_EQ(clean.exit_code, 0);

  // Populate, then corrupt every entry: truncate half, bit-flip the rest.
  ASSERT_EQ(run("--cache-dir=" + cache + " " + input).exit_code, 0);
  bool flip = false;
  for (const auto& e : fs::directory_iterator(cache)) {
    if (!e.is_regular_file() || e.path().extension() != ".pfc") continue;
    if ((flip = !flip)) {
      std::string bytes = slurp(e.path());
      ASSERT_FALSE(bytes.empty());
      bytes[bytes.size() / 2] ^= 0x40;
      std::ofstream out(e.path(), std::ios::binary | std::ios::trunc);
      out << bytes;
    } else {
      fs::resize_file(e.path(), fs::file_size(e.path()) / 3);
    }
  }
  const CmdResult poisoned = run("--cache-dir=" + cache + " " + input);
  EXPECT_EQ(poisoned.exit_code, 0);
  EXPECT_EQ(poisoned.out, clean.out)
      << "corrupted cache entries must never alter emitted output";
}

// Each request runs exactly once: a parse error and an injected fault are
// two failed entries, in both executors, with nothing retried.
TEST_F(BatchTest, FailedRequestsRunOnce) {
  {
    // Sorts first, so the injected fault hits dotprod (request #1).
    std::ofstream bad(path("in") / "broken.pf");
    bad << "scop broken(N) { this is not a program";
  }
  for (const char* mode : {"", " --batch-isolate"}) {
    SCOPED_TRACE(mode);
    const CmdResult r = run("--batch=" + in() + " --batch-out=" +
                            path("out").string() + " --batch-report=" +
                            path("r.json").string() + mode +
                            " --inject=batch.request:fail-after=1");
    EXPECT_EQ(r.exit_code, 3) << r.err;
    const std::string report = slurp(path("r.json"));
    EXPECT_NE(report.find("\"schema\": \"polyfuse-batch-report-v2\""),
              std::string::npos)
        << report;
    EXPECT_NE(report.find("\"total\": 4, \"ok\": 2, \"degraded\": 0, "
                          "\"failed\": 2}"),
              std::string::npos)
        << report;
    EXPECT_NE(report.find("injected fault (batch.request op #1)"),
              std::string::npos)
        << report;
    EXPECT_NE(slurp(path("out") / "broken.err").find("polyfuse: "),
              std::string::npos);
    EXPECT_EQ(report.find("attempts"), std::string::npos) << report;
    EXPECT_EQ(report.find("retried"), std::string::npos) << report;
  }
}

// Every request's --stats carries the request's own gauges: one inner
// worker and the flight-recorder threads.
TEST_F(BatchTest, RequestStatsCarryGauges) {
  const CmdResult r = run("--batch=" + in() + " --batch-out=" +
                          path("out").string() + " --batch-report=" +
                          path("r.json").string() +
                          " --jobs=2 --stats --emit=sched");
  EXPECT_EQ(r.exit_code, 0) << r.err;
  for (const char* stem : {"dotprod", "matmul", "pipeline"}) {
    const std::string err = slurp(path("out") / (std::string(stem) + ".err"));
    EXPECT_NE(err.find("gauge jobs_configured = 1\n"), std::string::npos)
        << stem << "\n" << err;
    EXPECT_NE(err.find("gauge flightrec_threads = "), std::string::npos)
        << stem << "\n" << err;
  }
}

TEST_F(BatchTest, IsolatedCrashIsContained) {
  // Hard abort in request #1; the other requests must complete, the
  // crashed one gets a diagnostic, and the batch exits 3.
  const CmdResult r = run("--batch=" + in() + " --batch-out=" +
                          path("out").string() + " --batch-report=" +
                          path("r.json").string() +
                          " --batch-isolate --jobs=2"
                          " --inject=batch.request:abort-after=1");
  EXPECT_EQ(r.exit_code, 3) << r.err;
  const std::string report = slurp(path("r.json"));
  EXPECT_NE(report.find("crashed with signal"), std::string::npos);
  EXPECT_NE(report.find("\"diag\": "), std::string::npos);
  EXPECT_NE(report.find("\"ok\": 2"), std::string::npos);
  EXPECT_NE(report.find("\"failed\": 1"), std::string::npos);
  // The child's flight-recorder diagnostic landed next to the outputs.
  bool has_diag = false;
  for (const auto& e : fs::directory_iterator(path("out")))
    if (e.path().string().find(".diag.json") != std::string::npos)
      has_diag = true;
  EXPECT_TRUE(has_diag);
  // Two healthy outputs exist.
  int outs = 0;
  for (const auto& e : fs::directory_iterator(path("out")))
    if (e.path().extension() == ".out") ++outs;
  EXPECT_EQ(outs, 2);
}

TEST_F(BatchTest, IsolatedCrashDumpCarriesRequestCounters) {
  // A hard abort at the sixth LP solve of every request: each child's
  // crash dump must snapshot the crashed request's own metrics registry.
  const CmdResult r = run("--batch=" + in() + " --batch-out=" +
                          path("out").string() + " --batch-report=" +
                          path("r.json").string() +
                          " --batch-isolate --inject=lp_solve:abort-after=5");
  EXPECT_EQ(r.exit_code, 3) << r.err;
  int dumps = 0;
  for (const auto& e : fs::directory_iterator(path("out"))) {
    if (e.path().string().find(".diag.json") == std::string::npos) continue;
    ++dumps;
    const std::string dump = slurp(e.path());
    const std::string key = "\"simplex_pivots\": ";
    const std::size_t at = dump.find(key);
    ASSERT_NE(at, std::string::npos) << dump;
    EXPECT_GT(std::stoll(dump.substr(at + key.size())), 0)
        << e.path().string();
  }
  EXPECT_EQ(dumps, 3);
}

// Concurrent in-process requests that fail strict lint each leave their
// own <stem>.diag.json, with their own cause and counters, and each
// <stem>.err names its own file.
TEST_F(BatchTest, ConcurrentFatalDiagnosticsStaySeparate) {
  fs::remove_all(path("in"));
  fs::create_directories(path("in"));
  const std::pair<const char*, const char*> programs[] = {
      {"oob",
       "scop oob(N) { context N >= 4; array a[N];\n"
       "for (i = 0 .. N) { S1: a[i] = i * 1.0; } }"},
      {"uninit",
       "scop uninit(N) { context N >= 4; local array t[N]; array b[N];\n"
       "for (i = 1 .. N-1) { S1: t[i] = i * 1.0; }\n"
       "for (i = 0 .. N-1) { S2: b[i] = t[i]; } }"},
      {"dead",
       "scop dead(N) { context N >= 4; local array t[N]; array b[N];\n"
       "for (i = 0 .. N-1) { S1: t[i] = i * 1.0; }\n"
       "for (i = 0 .. N-1) { S2: b[i] = i * 2.0; } }"},
  };
  for (const auto& [stem, text] : programs)
    std::ofstream(path("in") / (std::string(stem) + ".pf")) << text;
  const CmdResult r = run("--batch=" + in() + " --batch-out=" +
                              path("out").string() + " --batch-report=" +
                              path("r.json").string() +
                              " --lint=strict --emit=sched --jobs=3",
                          "POLYFUSE_DIAG_DIR=" + root_.string());
  EXPECT_EQ(r.exit_code, 3) << r.err;
  // The per-request count the lint summary line reports: "checked N".
  auto checked = [](const std::string& text, const std::string& key) {
    const std::size_t at = text.find(key);
    return at == std::string::npos ? -1
                                   : std::stoll(text.substr(at + key.size()));
  };
  std::set<long long> seen;
  for (const auto& [stem, text] : programs) {
    SCOPED_TRACE(stem);
    const fs::path diag = path("out") / (std::string(stem) + ".diag.json");
    const std::string err = slurp(path("out") / (std::string(stem) + ".err"));
    EXPECT_NE(err.find("polyfuse: diagnostic written to " + diag.string()),
              std::string::npos)
        << err;
    ASSERT_TRUE(fs::exists(diag));
    const std::string dump = slurp(diag);
    EXPECT_NE(dump.find("\"cause\": \"lint-strict-failure\""),
              std::string::npos);
    const long long accesses = checked(err, "lint: checked ");
    ASSERT_GT(accesses, 0) << err;
    EXPECT_EQ(checked(dump, "\"lint_checked_accesses\": "), accesses);
    EXPECT_EQ(checked(dump, "\"lint_errors\": "), 1);
    seen.insert(accesses);
  }
  // Three programs of different sizes: three different counts.
  EXPECT_EQ(seen.size(), 3u);
  // Nothing went to the process-wide path.
  for (const auto& e : fs::directory_iterator(root_))
    EXPECT_EQ(e.path().filename().string().find("polyfuse-diag."),
              std::string::npos)
        << e.path();
}

// --explain and --stats land in each request's <stem>.err, recorded by
// the request's own tracer and registry: concurrent requests never mix,
// and each file equals what a single run of that input prints.
TEST_F(BatchTest, ConcurrentExplainMatchesSingleRequests) {
  const std::string flags = " --analyze --explain --emit=sched";
  for (const char* jobs : {"1", "4"}) {
    const std::string out = std::string("out") + jobs;
    const CmdResult r =
        run("--batch=" + in() + " --batch-out=" + path(out).string() +
            " --batch-report=" + path(out + ".json").string() +
            " --jobs=" + jobs + flags);
    EXPECT_EQ(r.exit_code, 0) << r.err;
  }
  for (const char* stem : {"dotprod", "matmul", "pipeline"}) {
    SCOPED_TRACE(stem);
    const std::string err = slurp(path("out1") / (std::string(stem) + ".err"));
    EXPECT_NE(err.find("[fusion]"), std::string::npos) << err;
    EXPECT_EQ(slurp(path("out4") / (std::string(stem) + ".err")), err);
    const CmdResult single =
        run((fs::path(in()) / (std::string(stem) + ".pf")).string() + flags);
    EXPECT_EQ(single.exit_code, 0) << single.err;
    EXPECT_EQ(single.err, err);
  }

  // The deterministic part of --stats=json, likewise.
  const CmdResult r = run("--batch=" + in() + " --batch-out=" +
                          path("stats").string() + " --batch-report=" +
                          path("stats.json").string() +
                          " --jobs=4 --stats=json --emit=sched");
  EXPECT_EQ(r.exit_code, 0) << r.err;
  const auto deterministic = [](const std::string& json) {
    return json.substr(0, json.find("\"runtime\""));
  };
  for (const char* stem : {"dotprod", "matmul", "pipeline"}) {
    SCOPED_TRACE(stem);
    const std::string err =
        slurp(path("stats") / (std::string(stem) + ".err"));
    EXPECT_NE(err.find("\"simplex_pivots\""), std::string::npos) << err;
    const CmdResult single =
        run((fs::path(in()) / (std::string(stem) + ".pf")).string() +
            " --stats=json --emit=sched");
    EXPECT_EQ(deterministic(single.err), deterministic(err));
  }
}

TEST_F(BatchTest, BudgetExhaustionDegradesNotFails) {
  const CmdResult r = run("--batch=" + in() + " --batch-out=" +
                          path("out").string() + " --batch-report=" +
                          path("r.json").string() + " --fuel=300");
  EXPECT_EQ(r.exit_code, 0) << r.err;
  const std::string report = slurp(path("r.json"));
  EXPECT_NE(report.find("\"status\": \"degraded\""), std::string::npos);
  EXPECT_NE(report.find("\"failed\": 0"), std::string::npos);
}

TEST_F(BatchTest, FlagValidation) {
  // --batch with a positional input is a contradiction.
  EXPECT_EQ(run("--batch=" + in() + " " +
                (fs::path(in()) / "pipeline.pf").string())
                .exit_code,
            2);
  // Batch-only flags without --batch.
  EXPECT_EQ(run("--batch-isolate " + (fs::path(in()) / "pipeline.pf").string())
                .exit_code,
            2);
  // One FILE argument cannot name a file per request.
  EXPECT_EQ(run("--batch=" + in() + " --trace=" + path("t.json").string())
                .exit_code,
            2);
  EXPECT_EQ(
      run("--batch=" + in() + " --diagnose=" + path("d.json").string())
          .exit_code,
      2);
  // Missing batch source.
  EXPECT_EQ(run("--batch=" + path("nope").string()).exit_code, 2);
}

TEST_F(BatchTest, StemCollisionsGetSuffixes) {
  fs::create_directories(path("m"));
  fs::copy_file(fs::path(in()) / "matmul.pf", path("m") / "matmul.pf");
  {
    std::ofstream m(path("list.txt"));
    m << "in/matmul.pf\nm/matmul.pf\n";
  }
  const CmdResult r = run("--batch=" + path("list.txt").string() +
                          " --batch-out=" + path("out").string() +
                          " --batch-report=" + path("r.json").string());
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_TRUE(fs::exists(path("out") / "matmul.out"));
  EXPECT_TRUE(fs::exists(path("out") / "matmul-2.out"));
}

}  // namespace
