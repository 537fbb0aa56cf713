// polyfuse: command-line source-to-source polyhedral loop optimizer.
//
//   polyfuse [options] <input.pf | ->
//   polyfuse --batch=DIR|MANIFEST [--batch-out=DIR] [--batch-report=FILE]
//
// The full option reference lives in tools/cli_modes.h (rendered by
// --help); the one request path, cli::run_request, is tools/driver.cpp,
// and the crash-safe batch driver that runs it per request is
// tools/batch.cpp (docs/service.md).
//
// Example:
//   polyfuse --model=wisefuse --emit=c --tile=32 kernel.pf > kernel.c
#include <exception>
#include <iostream>

#include "batch.h"
#include "driver.h"
#include "support/error.h"
#include "support/flightrec.h"

int main(int argc, char** argv) {
  using namespace pf;
  // Hook fatal signals before any real work: a crash anywhere in the
  // pipeline (including a --inject=SITE:abort-after=K hard fault) leaves
  // polyfuse-diag.<pid>.json behind. Near-zero cost when nothing dies.
  support::flightrec::install_crash_handler();
  support::flightrec::set_invocation(argc, argv);
  try {
    const cli::Options o = cli::parse_args(argc, argv);
    cli::apply_process_config(o);
    return o.batch.empty() ? cli::run_request(o, std::cout, std::cerr).rc
                           : cli::run_batch(o);
  } catch (const pf::Error& e) {
    std::cerr << "polyfuse: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    // e.g. malformed numeric option values (std::stol).
    std::cerr << "polyfuse: " << e.what() << "\n";
    return 1;
  }
}
