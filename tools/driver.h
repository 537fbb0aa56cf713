// The polyfuse CLI driver: option parsing plus the single-request
// pipeline, factored out of main() so the batch driver (tools/batch.h)
// can run many requests in one process -- or in forked children -- with
// per-request fault isolation (docs/service.md).
//
// run_request() is the one request path: a single-input run and every
// batch request go through it exactly once. It never exits the process
// and never lets an exception escape; every failure (unreadable input,
// parse error, budget exhaustion the degradation chain could not absorb)
// comes back as a RequestResult. Process-wide knobs (worker pool size,
// the persistent disk cache) are applied once by apply_process_config();
// everything else -- budget, metrics registry and gauges, memo table,
// tracer -- is per-request state, so nothing process-wide grows from one
// request to the next.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "support/budget.h"
#include "support/linalg.h"

namespace pf::cli {

struct Options {
  std::string model = "wisefuse";
  std::string emit = "c";
  bool tile = false;
  i64 tile_size = 32;
  bool openmp = true;
  bool validate = false;
  bool verify = false;
  bool verify_strict = false;
  bool lint = false;
  bool lint_strict = false;
  bool analyze = false;
  bool analyze_json = false;
  bool reductions_report = false;
  bool reductions_json = false;
  bool no_reductions = false;
  bool machine_report = false;
  bool report = false;
  std::size_t jobs = 0;  // 0 = default (POLYFUSE_JOBS / hardware)
  bool stats = false;
  bool stats_json = false;
  bool explain = false;
  bool explain_json = false;
  std::string trace_file;     // empty = tracing off
  std::string diagnose_file;  // empty = no on-exit diagnostic dump
  i64 fuel = -1;            // < 0 = unlimited
  i64 time_budget_ms = -1;  // < 0 = unlimited
  std::vector<support::Injection> injections;
  IntVector params;
  std::string input;

  // Batch mode (tools/batch.h, docs/service.md).
  std::string batch;         // directory or manifest file; empty = single
  std::string batch_out;     // per-request output directory
  std::string batch_report;  // JSON report file; empty = stdout summary only
  bool batch_isolate = false;
  // Where this request's fatal diagnostic goes; empty = the process path
  // (polyfuse-diag.<pid>.json). The batch driver sets <stem>.diag.json.
  std::string diag_file;

  // Persistent on-disk solve/count cache (src/support/diskcache.h).
  std::string cache_dir;   // empty = disabled
  i64 cache_max_mb = 256;  // LRU size cap
};

/// Print --help (rendered from tools/cli_modes.h) and exit: 0 without an
/// error message, 2 with one.
[[noreturn]] void usage(const std::string& error = "");

/// Parse argv; flags are the only request configuration. Invalid input exits
/// through usage(); the returned Options are fully validated -- model and
/// emit names, flag combinations, numeric ranges.
Options parse_args(int argc, char** argv);

/// Apply the process-wide knobs: the worker-pool default and the
/// persistent disk cache (configured from --cache-dir, with the
/// diskcache.* injection table installed). Call exactly once, before any
/// request runs.
void apply_process_config(const Options& o);

/// Outcome of one compile request.
struct RequestResult {
  int rc = 0;            // process-exit-style code; 0 = success
  bool degraded = false; // a budget fault was absorbed by the degradation
                         // chain (the output is still valid, just coarser)
  std::string error;     // one-line failure message when rc != 0
};

/// Run one compile request: emitted output to `out`, reports, --stats,
/// --explain and messages to `err`. Installs the request's own budget,
/// tracer, metrics scope (with the jobs_configured gauge) and solve-cache
/// scope, the only memo table anything is memoized in; catches every
/// exception. A budget that escapes every recovery boundary also writes
/// the budget-exceeded:<site> fatal diagnostic, to Options::diag_file when
/// set. Never calls exit() (except when a --trace/--diagnose file cannot
/// be written) and never throws.
RequestResult run_request(const Options& o, std::ostream& out,
                          std::ostream& err);

/// The subset of `injections` the thread-local Budget should enforce.
/// diskcache.* sites are enforced inside support/diskcache (an
/// injection-only budget would bypass the solve cache and make them
/// unreachable), and batch.request is enforced by the batch driver.
std::vector<support::Injection> budget_injections(
    const std::vector<support::Injection>& injections);

}  // namespace pf::cli
