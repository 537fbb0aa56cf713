// The polyfuse CLI driver: option parsing plus the single-request
// pipeline, factored out of main() so the batch driver (tools/batch.h)
// can run many requests in one process -- or in forked children -- with
// per-request fault isolation (docs/service.md).
//
// The split matters for isolation: run_request() never exits the process
// and never lets an exception escape; every failure (unreadable input,
// parse error, budget exhaustion the degradation chain could not absorb)
// comes back as a RequestResult. Process-wide knobs (worker pool size,
// solve cache, the persistent disk cache) are applied once by
// apply_process_config(); everything else -- budget, metrics registry,
// memo table, tracer -- is per-request state.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "support/budget.h"
#include "support/linalg.h"
#include "support/trace.h"

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
  std::size_t trace_max_events = support::Tracer::kDefaultMaxEvents;
  std::string diagnose_file;  // empty = no on-exit diagnostic dump
  bool solve_cache = true;
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
  i64 batch_retries = 1;  // extra attempts for a failed request

  // Persistent on-disk solve/count cache (src/support/diskcache.h).
  std::string cache_dir;   // empty = disabled
  i64 cache_max_mb = 256;  // LRU size cap
};

/// Print --help (rendered from tools/cli_modes.h) and exit: 0 without an
/// error message, 2 with one.
[[noreturn]] void usage(const std::string& error = "");

/// Parse argv (with the POLYFUSE_* env fallbacks). Invalid input exits
/// through usage(); the returned Options are fully validated -- model and
/// emit names, flag combinations, numeric ranges.
Options parse_args(int argc, char** argv);

/// Apply the process-wide knobs: worker-pool default, solve cache on/off,
/// metrics gauges, and the persistent disk cache (configured
/// from --cache-dir, with the diskcache.* injection table installed).
/// Call exactly once, before any request runs.
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
/// tracer, metrics scope and private solve-cache scope; catches every
/// exception. Never calls exit() and never throws.
RequestResult run_request(const Options& o, std::ostream& out,
                          std::ostream& err);

/// Classic single-input mode: stdout/stderr, --stats/--explain/--trace/
/// --diagnose side outputs, process exit code.
int run_single(const Options& o);

/// The subset of `injections` the thread-local Budget should enforce.
/// diskcache.* sites are enforced inside support/diskcache (an
/// injection-only budget would bypass the solve cache and make them
/// unreachable), and batch.request is enforced by the batch driver.
std::vector<support::Injection> budget_injections(
    const std::vector<support::Injection>& injections);

}  // namespace pf::cli
