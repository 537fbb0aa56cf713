// Crash-safe batch compile driver (docs/service.md).
//
// polyfuse --batch=DIR|MANIFEST ingests many .pf programs and compiles
// each as an independent, fault-isolated request:
//
//  * Requests are discovered deterministically (sorted *.pf scan of a
//    directory, or the lines of a manifest file) and scheduled across
//    --jobs workers; each request runs with jobs=1 inside, its own
//    budget/metrics/solve-cache scope, and writes <stem>.out/<stem>.err
//    under --batch-out. A request's fatal diagnostic (strict verify/lint
//    failure, escaped budget) goes to <stem>.diag.json there too.
//  * Each request runs exactly once, through cli::run_request. A request
//    that exhausts its --fuel/--time-budget degrades through the PR-5
//    chain and is reported "degraded", not failed; a request that fails
//    is reported "failed" (a rerun would fail the same way). Under
//    --batch-isolate each request runs in a forked child, so a hard
//    crash (--inject=SITE:abort-after=K) is contained: the child's crash
//    diagnostic lands in <stem>.diag.json and the batch carries on.
//  * The --batch-report JSON is byte-identical at any --jobs: requests
//    are listed in sorted input order and the report carries no timing,
//    pid or cache-hit fields.
//
// Exit code: 0 when every request succeeded (possibly degraded), 3 when
// at least one request failed, 2 for setup errors (unreadable batch
// dir/manifest, uncreatable output dir).
#pragma once

#include "driver.h"

namespace pf::cli {

int run_batch(const Options& o);

}  // namespace pf::cli
