// Single source of truth for the polyfuse CLI option list.
//
// usage() renders --help from this table, and cli_test asserts that the
// rendered help and README.md mention every flag (and every check mode
// in kCheckModes), so the three places a mode is documented -- help
// text, README, docs -- cannot silently drift when one is added.
#pragma once

#include <cstddef>

namespace pf::cli {

struct OptionDoc {
  const char* flag;  // as shown in --help, e.g. "--verify[=strict]"
  const char* help;  // description; '\n' starts an indented continuation
};

inline constexpr OptionDoc kOptionDocs[] = {
    {"--model=NAME", "wisefuse | smartfuse | nofuse | maxfuse | baseline"},
    {"--emit=WHAT", "c | ast | sched | deps | source"},
    {"--tile[=SIZE]", "tile permutable bands (default 32)"},
    {"--no-openmp", "omit OpenMP pragmas"},
    {"--params=V1,V2", "parameter values (for --validate / --machine-report)"},
    {"--validate", "check transformed output == original output"},
    {"--verify[=strict]",
     "static legality + OpenMP race + fusion-order checks\n"
     "on the transformed program (strict: exit 1 on any\n"
     "violation); see docs/verification.md"},
    {"--lint[=strict]",
     "value-based dataflow lints on the input program:\n"
     "out-of-bounds accesses, uninitialized local-array\n"
     "reads, dead writes, fusion/locality diagnostics\n"
     "(strict: exit 1 on any correctness finding); see\n"
     "docs/analysis.md"},
    {"--analyze[=json]",
     "exact-count locality report of the input program at\n"
     "the --params values: statement instance counts, array\n"
     "footprint/reuse volumes, counted dead-write and\n"
     "uninitialized-read findings, per-pair shared cells;\n"
     "feeds the --explain fusion profitability remarks and\n"
     "the --machine-report compulsory-traffic floor; counts\n"
     "degrade to a structured \"unknown\" under --fuel; see\n"
     "docs/analysis.md"},
    {"--reductions[=json]",
     "reduction/privatization report of the input program:\n"
     "associative reduction statements (+, *, min, max),\n"
     "relaxable self-dependences, privatizable arrays;\n"
     "deterministic at every --jobs; see docs/reductions.md"},
    {"--no-reductions",
     "do not relax reduction self-dependences during\n"
     "scheduling (classic behavior); see docs/reductions.md"},
    {"--machine-report", "modeled cache/parallelism report"},
    {"--report", "fusion & parallelism summary"},
    {"--jobs=N", "worker threads for dependence analysis"},
    {"--stats[=json]",
     "print pipeline perf counters + histograms to stderr\n"
     "(with --batch: per request, to <stem>.err)"},
    {"--trace=FILE",
     "write Chrome trace-event JSON; single request only"},
    {"--diagnose=FILE",
     "write the flight-recorder diagnostic JSON (recent\n"
     "spans/remarks/faults + metrics snapshot) on exit; the\n"
     "same report a crash or budget exhaustion dumps to\n"
     "polyfuse-diag.<pid>.json -- see docs/observability.md;\n"
     "single request only"},
    {"--explain[=json]",
     "print scheduler/fusion decision remarks to stderr\n"
     "(with --batch: per request, to <stem>.err)"},
    {"--fuel=N",
     "compute-fuel budget: abort solver work after N units\n"
     "and degrade gracefully; see docs/robustness.md"},
    {"--time-budget=MS",
     "wall-clock budget for solver work, in milliseconds"},
    {"--inject=S:fail-after=K",
     "deterministically fail the K-th operation at site S\n"
     "(lp_solve, fme_project, dep_pair, pluto_level,\n"
     "fusion_model, jit_cc, count_set, analysis.reductions,\n"
     "diskcache.read, diskcache.write, batch.request);\n"
     "repeatable, for testing the degradation chain;\n"
     "batch.request fails batch request K; S:abort-after=K\n"
     "instead aborts the process (tests the crash-diagnostic\n"
     "path)"},
    {"--batch=PATH",
     "batch mode: compile every *.pf under directory PATH\n"
     "(or every line of manifest file PATH) as independent\n"
     "fault-isolated requests across --jobs workers; per-\n"
     "request output lands in --batch-out; one request\n"
     "crashing or exhausting its budget never takes down the\n"
     "rest -- see docs/service.md"},
    {"--batch-out=DIR",
     "directory for per-request outputs (<stem>.out,\n"
     "<stem>.err, crash diagnostics); default: alongside the\n"
     "batch report or the working directory"},
    {"--batch-report=FILE",
     "write the batch JSON report (schema in docs/service.md)\n"
     "to FILE; byte-identical at any --jobs"},
    {"--batch-isolate",
     "run each batch request in a forked child process, so a\n"
     "hard crash (e.g. --inject=SITE:abort-after=K) is\n"
     "contained to that request and reported with its crash\n"
     "diagnostic while the rest of the batch completes"},
    {"--cache-dir=DIR",
     "persistent on-disk solve/count cache directory:\n"
     "crash-safe, checksummed, content-addressed; corrupt\n"
     "entries are quarantined misses, never wrong answers\n"
     "-- see docs/service.md"},
    {"--cache-max-mb=N",
     "size cap for --cache-dir in megabytes; an LRU sweep\n"
     "keeps the directory under it (default 256)"},
};

/// The program-checking modes every user-facing document must mention.
inline constexpr const char* kCheckModes[] = {"--validate", "--verify",
                                              "--lint"};

}  // namespace pf::cli
