#include "driver.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>

#include "analysis/lint.h"
#include "analysis/locality.h"
#include "analysis/reductions.h"
#include "cli_modes.h"
#include "codegen/cemit.h"
#include "codegen/codegen.h"
#include "codegen/tiling.h"
#include "ddg/dependences.h"
#include "exec/interp.h"
#include "frontend/parser.h"
#include "fusion/models.h"
#include "machine/perfmodel.h"
#include "poly/set.h"
#include "sched/analysis.h"
#include "sched/pluto.h"
#include "support/budget.h"
#include "support/context.h"
#include "support/diskcache.h"
#include "support/flightrec.h"
#include "support/metrics.h"
#include "support/threadpool.h"
#include "support/trace.h"
#include "verify/verify.h"

namespace pf::cli {

using namespace pf;

void usage(const std::string& error) {
  if (!error.empty()) std::cerr << "polyfuse: " << error << "\n";
  std::cerr << "usage: polyfuse [options] <input.pf | ->\n";
  // Rendered from the one option table (tools/cli_modes.h) so --help,
  // README and docs cannot drift; cli_test asserts the coverage.
  constexpr std::size_t kHelpCol = 20;
  for (const cli::OptionDoc& d : cli::kOptionDocs) {
    std::string line = "  ";
    line += d.flag;
    if (line.size() + 2 > kHelpCol) line += "  ";
    else line.append(kHelpCol - line.size(), ' ');
    std::istringstream help(d.help);
    std::string part;
    bool first = true;
    while (std::getline(help, part)) {
      if (first)
        std::cerr << line << part << "\n";
      else
        std::cerr << std::string(kHelpCol, ' ') << part << "\n";
      first = false;
    }
  }
  std::exit(error.empty() ? 0 : 2);
}

namespace {

// Parse the numeric payload of `--flag=VALUE` options. Anything that is
// not a plain (optionally signed) decimal integer -- empty, trailing
// garbage, out of i64 range -- exits through usage() instead of throwing
// out of std::stoll.
i64 parse_int_option(const std::string& flag, const std::string& text) {
  std::size_t consumed = 0;
  i64 v = 0;
  try {
    v = std::stoll(text, &consumed);
  } catch (const std::exception&) {
    usage(flag + " expects an integer, got '" + text + "'");
  }
  if (consumed != text.size())
    usage(flag + " expects an integer, got '" + text + "'");
  return v;
}

}  // namespace

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    if (arg == "--help" || arg == "-h") usage();
    else if (arg.rfind("--model=", 0) == 0) o.model = value_of("--model=");
    else if (arg.rfind("--emit=", 0) == 0) o.emit = value_of("--emit=");
    else if (arg == "--tile") o.tile = true;
    else if (arg.rfind("--tile=", 0) == 0) {
      o.tile = true;
      o.tile_size = parse_int_option("--tile", value_of("--tile="));
      if (o.tile_size < 1) usage("--tile size must be >= 1");
    } else if (arg == "--no-openmp") o.openmp = false;
    else if (arg.rfind("--jobs=", 0) == 0) {
      const i64 v = parse_int_option("--jobs", value_of("--jobs="));
      if (v < 1) usage("--jobs must be >= 1");
      o.jobs = static_cast<std::size_t>(v);
    } else if (arg == "--stats") o.stats = true;
    else if (arg == "--stats=json") {
      o.stats = true;
      o.stats_json = true;
    } else if (arg == "--explain") o.explain = true;
    else if (arg == "--explain=json") {
      o.explain = true;
      o.explain_json = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      o.trace_file = value_of("--trace=");
      if (o.trace_file.empty()) usage("--trace expects a file name");
    } else if (arg.rfind("--diagnose=", 0) == 0) {
      o.diagnose_file = value_of("--diagnose=");
      if (o.diagnose_file.empty()) usage("--diagnose expects a file name");
    } else if (arg.rfind("--fuel=", 0) == 0) {
      o.fuel = parse_int_option("--fuel", value_of("--fuel="));
      if (o.fuel < 0) usage("--fuel must be >= 0");
    } else if (arg.rfind("--time-budget=", 0) == 0) {
      o.time_budget_ms =
          parse_int_option("--time-budget", value_of("--time-budget="));
      if (o.time_budget_ms < 1) usage("--time-budget must be >= 1 (ms)");
    } else if (arg.rfind("--inject=", 0) == 0) {
      std::string err;
      const auto inj = support::parse_injection(value_of("--inject="), &err);
      if (!inj) usage("--inject: " + err);
      o.injections.push_back(*inj);
    }
    else if (arg == "--validate") o.validate = true;
    else if (arg == "--verify") o.verify = true;
    else if (arg == "--verify=strict") {
      o.verify = true;
      o.verify_strict = true;
    }
    else if (arg == "--lint") o.lint = true;
    else if (arg == "--lint=strict") {
      o.lint = true;
      o.lint_strict = true;
    }
    else if (arg == "--analyze") o.analyze = true;
    else if (arg == "--analyze=json") {
      o.analyze = true;
      o.analyze_json = true;
    }
    else if (arg == "--reductions") o.reductions_report = true;
    else if (arg == "--reductions=json") {
      o.reductions_report = true;
      o.reductions_json = true;
    }
    else if (arg == "--no-reductions") o.no_reductions = true;
    else if (arg == "--machine-report") o.machine_report = true;
    else if (arg == "--report") o.report = true;
    else if (arg.rfind("--params=", 0) == 0) {
      std::stringstream ss(value_of("--params="));
      std::string tok;
      while (std::getline(ss, tok, ','))
        o.params.push_back(parse_int_option("--params", tok));
    } else if (arg.rfind("--batch=", 0) == 0) {
      o.batch = value_of("--batch=");
      if (o.batch.empty()) usage("--batch expects a directory or manifest");
    } else if (arg.rfind("--batch-out=", 0) == 0) {
      o.batch_out = value_of("--batch-out=");
      if (o.batch_out.empty()) usage("--batch-out expects a directory");
    } else if (arg.rfind("--batch-report=", 0) == 0) {
      o.batch_report = value_of("--batch-report=");
      if (o.batch_report.empty()) usage("--batch-report expects a file name");
    } else if (arg == "--batch-isolate") {
      o.batch_isolate = true;
    } else if (arg.rfind("--cache-dir=", 0) == 0) {
      o.cache_dir = value_of("--cache-dir=");
      if (o.cache_dir.empty()) usage("--cache-dir expects a directory");
    } else if (arg.rfind("--cache-max-mb=", 0) == 0) {
      o.cache_max_mb =
          parse_int_option("--cache-max-mb", value_of("--cache-max-mb="));
      if (o.cache_max_mb < 1) usage("--cache-max-mb must be >= 1");
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      usage("unknown option '" + arg + "'");
    } else if (o.input.empty()) {
      o.input = arg;
    } else {
      usage("multiple inputs given");
    }
  }
  // Validate names here, not mid-pipeline: batch requests must never hit
  // a usage() exit after parse time.
  static constexpr const char* kModels[] = {"wisefuse", "smartfuse", "nofuse",
                                            "maxfuse", "baseline"};
  if (std::find_if(std::begin(kModels), std::end(kModels),
                   [&](const char* m) { return o.model == m; }) ==
      std::end(kModels))
    usage("unknown model '" + o.model + "'");
  static constexpr const char* kEmits[] = {"c", "ast", "sched", "deps",
                                           "source"};
  if (std::find_if(std::begin(kEmits), std::end(kEmits),
                   [&](const char* e) { return o.emit == e; }) ==
      std::end(kEmits))
    usage("unknown --emit '" + o.emit + "'");

  if (o.batch.empty()) {
    if (o.input.empty()) usage("no input file");
    if (o.batch_isolate) usage("--batch-isolate needs --batch");
    if (!o.batch_out.empty()) usage("--batch-out needs --batch");
    if (!o.batch_report.empty()) usage("--batch-report needs --batch");
  } else {
    if (!o.input.empty())
      usage("--batch and an input file are mutually exclusive");
    // --stats and --explain land in each request's <stem>.err; one FILE
    // argument cannot name a file per request.
    if (!o.trace_file.empty() || !o.diagnose_file.empty())
      usage("--trace/--diagnose write one file; use them on a single "
            "request, not with --batch");
  }
  if (o.verify && (o.emit == "source" || o.emit == "deps"))
    usage("--verify needs a schedule; use --emit=c, ast or sched");
  return o;
}

std::vector<support::Injection> budget_injections(
    const std::vector<support::Injection>& injections) {
  std::vector<support::Injection> out;
  for (const support::Injection& inj : injections)
    if (inj.site != support::BudgetSite::kDiskcacheRead &&
        inj.site != support::BudgetSite::kDiskcacheWrite &&
        inj.site != support::BudgetSite::kBatchRequest)
      out.push_back(inj);
  return out;
}

void apply_process_config(const Options& o) {
  if (o.jobs != 0) support::set_default_jobs(o.jobs);

  if (!o.cache_dir.empty()) {
    if (!support::diskcache::configure(o.cache_dir, o.cache_max_mb))
      std::cerr << "polyfuse: cannot use cache directory '" << o.cache_dir
                << "'; persistent cache disabled\n";
    support::diskcache::set_injections(o.injections);
  }
}

namespace {

std::string read_input(const std::string& path) {
  if (path == "-") {
    std::stringstream ss;
    ss << std::cin.rdbuf();
    return ss.str();
  }
  std::ifstream in(path);
  if (!in) throw pf::Error("cannot open '" + path + "'");
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void default_params(const ir::Scop& scop, IntVector* params) {
  if (!params->empty()) {
    if (params->size() != scop.num_params())
      throw pf::Error("program has " + std::to_string(scop.num_params()) +
                      " parameter(s); --params gave " +
                      std::to_string(params->size()));
    return;
  }
  // Pick a small value satisfying the context.
  for (i64 guess : {16, 32, 64, 128, 256}) {
    IntVector cand(scop.num_params(), guess);
    if (scop.context().contains(cand)) {
      *params = cand;
      return;
    }
  }
  throw pf::Error("could not guess parameter values; use --params");
}

// run_request calls this once, after the pipeline returned or unwound:
// stats report, the --explain remark log, the --trace Chrome trace file
// and the --diagnose flight-recorder dump all fire no matter which --emit
// short-circuit returned or which error ended the pipeline. Stats and
// remarks come from the request's own registry and tracer, so a batch
// request reports only itself (--trace/--diagnose are single-request).
void finish_outputs(const Options& o, std::ostream& err) {
  support::gauge_set(support::Gauge::kFlightrecThreads,
                     support::flightrec::recording_threads());
  if (o.stats) {
    if (o.stats_json)
      err << support::current_metrics().to_json() << "\n";
    else
      err << support::current_metrics().to_string();
  }
  const support::Tracer* tracer = support::current_context().tracer;
  if (o.explain) {
    if (o.explain_json)
      err << tracer->remarks_json() << "\n";
    else
      err << tracer->remarks_text();
  }
  if (!o.trace_file.empty()) {
    std::ofstream out(o.trace_file);
    if (!out) {
      err << "polyfuse: cannot write trace file '" << o.trace_file << "'\n";
      std::exit(2);
    }
    out << tracer->chrome_trace_json() << "\n";
  }
  if (!o.diagnose_file.empty() &&
      !support::flightrec::write_diag_file(o.diagnose_file, "requested")) {
    err << "polyfuse: cannot write diagnostic file '" << o.diagnose_file
        << "'\n";
    std::exit(2);
  }
}

// Fatal-path diagnostic: budget exhaustion and strict verify/lint
// failures dump the same flight-recorder report a crash would, to the
// request's diag_file (a batch request's <stem>.diag.json), else to
// polyfuse-diag.<pid>.json (or POLYFUSE_DIAG_DIR). Independent of
// --diagnose=FILE, which always writes its own "requested" dump on exit.
void dump_fatal_diag(const Options& o, const std::string& cause,
                     std::ostream& err) {
  const std::string path = o.diag_file.empty()
                               ? support::flightrec::default_diag_path()
                               : o.diag_file;
  if (support::flightrec::write_diag_file(path, cause.c_str()))
    err << "polyfuse: diagnostic written to " << path << "\n";
  else
    err << "polyfuse: cannot write diagnostic file '" << path << "'\n";
}

// Static verification of the transformed program (src/verify): prints
// every finding plus a one-line summary to `err`. Returns the exit code
// contribution: 1 when --verify=strict saw a violation, else 0.
int run_verify(const Options& o, const ir::Scop& scop,
               const ddg::DependenceGraph& dg, const sched::Schedule& sch,
               const codegen::AstNode* ast, std::ostream& err) {
  support::PhaseTimer timer("verify");
  const verify::Report report = verify::run_all(scop, dg, sch, ast);
  err << report.to_string(&scop);
  if (!report.ok() && o.verify_strict) {
    dump_fatal_diag(o, "verify-strict-failure", err);
    return 1;
  }
  return 0;
}

// Static lint of the input program (src/analysis): prints every finding
// plus a one-line summary to `err`. Returns the exit code contribution:
// 1 when --lint=strict saw a correctness (error-severity) finding.
int run_lint_mode(const Options& o, const ir::Scop& scop,
                  const ddg::DependenceGraph& dg, std::ostream& err) {
  support::PhaseTimer timer("lint");
  const analysis::LintReport report = analysis::run_lint(scop, dg);
  err << report.to_string(&scop);
  if (!report.ok() && o.lint_strict) {
    dump_fatal_diag(o, "lint-strict-failure", err);
    return 1;
  }
  return 0;
}

// Exact-count locality analysis of the input program (src/analysis):
// prints the counted report to `err`. The report outlives this call so
// the fusion remarks (as their profitability oracle) and the machine
// report can consume it.
analysis::LocalityReport run_analyze_mode(const Options& o,
                                          const ir::Scop& scop,
                                          const ddg::DependenceGraph& dg,
                                          std::ostream& err) {
  support::PhaseTimer timer("analyze");
  IntVector params = o.params;
  default_params(scop, &params);
  analysis::LocalityReport report =
      analysis::analyze_locality(scop, dg, params);
  if (o.analyze_json)
    err << report.to_json(scop) << "\n";
  else
    err << report.to_string(scop);
  return report;
}

int run_pipeline(const Options& o, std::ostream& out, std::ostream& err) {
  std::optional<ir::Scop> parsed;
  {
    support::PhaseTimer timer("parse");
    parsed = frontend::parse_scop(read_input(o.input));
  }
  const ir::Scop& scop = *parsed;

  if (o.emit == "source" && !o.lint && !o.analyze) {
    out << scop.to_string();
    return 0;
  }

  ddg::AnalysisOptions aopts;
  aopts.jobs = o.jobs;
  std::optional<ddg::DependenceGraph> analyzed;
  {
    support::PhaseTimer timer("deps");
    analyzed = ddg::DependenceGraph::analyze(scop, aopts);
  }
  const ddg::DependenceGraph& dg = *analyzed;

  // Lint the *input* program (pre-transformation), any --emit mode.
  const int lint_rc = o.lint ? run_lint_mode(o, scop, dg, err) : 0;

  // Counted locality analysis of the input program, any --emit mode.
  // The report is also the fusion profitability oracle, so the schedule
  // phase's decision remarks carry exact shared-cell counts.
  std::optional<analysis::LocalityReport> locality;
  fusion::ProfitabilityOracle oracle;
  if (o.analyze) {
    locality = run_analyze_mode(o, scop, dg, err);
    oracle = [&locality](std::size_t s, std::size_t t) {
      return locality->shared_cells_or_negative(s, t);
    };
  }

  // Reduction/privatization analysis of the input program (src/analysis,
  // docs/reductions.md): runs when the report is requested or when the
  // scheduler will consume the relaxable set (any transforming model,
  // unless --no-reductions). Degrades to an empty -- claim-nothing --
  // result under --fuel, so a budget can suppress relaxation but never
  // cause an unsound one.
  const bool will_schedule =
      o.emit != "source" && o.emit != "deps" && o.model != "baseline";
  std::optional<analysis::ReductionInfo> reductions;
  if (o.reductions_report || (will_schedule && !o.no_reductions)) {
    support::PhaseTimer timer("reductions");
    reductions = analysis::analyze_reductions_degrading(scop, dg);
    if (o.reductions_report) {
      if (o.reductions_json)
        err << analysis::render_reductions_json(scop, dg, *reductions);
      else
        err << analysis::render_reductions_text(scop, dg, *reductions);
    }
  }

  if (o.emit == "source") {
    out << scop.to_string();
    return lint_rc;
  }
  if (o.emit == "deps") {
    out << dg.to_string();
    return lint_rc;
  }

  sched::Schedule sch;
  {
    support::PhaseTimer timer("schedule");
    if (o.model == "baseline") {
      sch = sched::identity_schedule(scop);
      sched::annotate_dependences(sch, dg);
    } else {
      fusion::FusionModel model = fusion::FusionModel::kWisefuse;
      if (o.model == "wisefuse")
        model = fusion::FusionModel::kWisefuse;
      else if (o.model == "smartfuse")
        model = fusion::FusionModel::kSmartfuse;
      else if (o.model == "nofuse")
        model = fusion::FusionModel::kNofuse;
      else if (o.model == "maxfuse")
        model = fusion::FusionModel::kMaxfuse;
      else  // parse_args validated the name already
        throw pf::Error("unknown model '" + o.model + "'");
      // The degradation chain is a no-op without a budget: the first
      // attempt is exactly make_policy + compute_schedule.
      sched::SchedulerOptions sopts;
      if (reductions && !o.no_reductions)
        sopts.relaxed_deps = reductions->relaxable;
      sch = fusion::compute_schedule_degrading(scop, dg, model, sopts,
                                               nullptr, oracle);
    }
  }

  if (o.report) {
    const auto parts = sch.nest_partitions();
    std::set<int> distinct(parts.begin(), parts.end());
    err << "polyfuse: model=" << o.model << " statements="
        << scop.num_statements() << " dependences=" << dg.deps().size()
        << " (+" << dg.rar_deps().size() << " RAR) fusion partitions="
        << distinct.size() << "\n";
    for (std::size_t s = 0; s < scop.num_statements(); ++s)
      err << "  " << sch.statement_to_string(s) << "\n";
  }

  if (o.emit == "sched") {
    // No AST at this point: legality + partition checks only.
    const int rc = o.verify ? run_verify(o, scop, dg, sch, nullptr, err) : 0;
    out << sch.to_string();
    return std::max(rc, lint_rc);
  }

  codegen::AstPtr ast;
  {
    support::PhaseTimer timer("codegen");
    ast = codegen::generate_ast(scop, sch);
    if (o.tile) {
      codegen::TilingOptions topts;
      topts.tile_size = o.tile_size;
      const std::size_t bands = codegen::tile_ast(*ast, sch, dg, topts);
      err << "polyfuse: tiled " << bands << " band(s) with size "
          << o.tile_size << "\n";
    }
  }

  // Verify the final AST (post-tiling: tile loops inherit the point
  // loop's level and parallel claim, so the race check covers them too).
  const int verify_rc =
      o.verify ? run_verify(o, scop, dg, sch, ast.get(), err) : 0;

  if (o.validate || o.machine_report) {
    IntVector params = o.params;
    default_params(scop, &params);
    if (o.validate) {
      support::PhaseTimer timer("validate");
      sched::Schedule ident = sched::identity_schedule(scop);
      sched::annotate_dependences(ident, dg);
      const auto orig = codegen::generate_ast(scop, ident);
      exec::ArrayStore a(scop, params), b(scop, params);
      auto init = [](exec::ArrayStore& s) {
        for (std::size_t arr = 0; arr < s.num_arrays(); ++arr) {
          const double salt = static_cast<double>(arr + 1);
          s.fill(arr, [&](const IntVector& idx) {
            double v = 1.0 + 0.2 * salt;
            for (std::size_t d = 0; d < idx.size(); ++d)
              v += 0.01 * static_cast<double>(idx[d]) / salt;
            if (idx.size() == 2 && idx[0] == idx[1]) v += 50.0;
            return v;
          });
        }
      };
      init(a);
      init(b);
      exec::interpret(*orig, a);
      exec::interpret(*ast, b);
      const double diff = exec::ArrayStore::max_abs_diff(a, b);
      // A schedule with relaxed reduction dependences may legitimately
      // reassociate floating-point accumulation (the same contract as
      // `#pragma omp reduction`), so exact equality is demanded only of
      // schedules that relaxed nothing. Integer-valued data commutes
      // exactly; see tests/reductions_test.cpp for that stronger check.
      const double tol = sch.relaxed_deps.empty() ? 0.0 : 1e-9;
      const bool ok = diff <= tol;
      err << "polyfuse: validation max |diff| = " << diff
          << (!ok             ? " (MISMATCH)"
              : diff == 0.0   ? " (ok)"
                              : " (ok, reduction reassociation)")
          << "\n";
      if (!ok) return 1;
    }
    if (o.machine_report) {
      support::PhaseTimer timer("machine-report");
      exec::ArrayStore store(scop, params);
      // With --analyze, feed the exact per-array footprints in so the
      // report includes the counted compulsory-traffic floor.
      machine::FootprintHints hints;
      const machine::FootprintHints* hints_ptr = nullptr;
      if (locality) {
        hints.cells.assign(scop.arrays().size(), -1);
        for (const analysis::ArrayLocality& al : locality->arrays)
          if (al.footprint.is_exact()) hints.cells[al.array] = al.footprint.value;
        hints_ptr = &hints;
      }
      const machine::ModelReport r =
          machine::evaluate(*ast, store, {}, hints_ptr);
      err << r.to_string();
    }
  }

  {
    support::PhaseTimer timer("emit");
    if (o.emit == "ast") {
      out << codegen::ast_to_string(*ast, scop);
    } else {  // "c" -- parse_args validated the name already
      codegen::CEmitOptions eopts;
      eopts.openmp = o.openmp;
      out << codegen::emit_c(*ast, scop, eopts);
    }
  }
  return std::max(verify_rc, lint_rc);
}

// The budget and tracer a request owns. With no budget flags no budget
// is installed and every path is byte-identical to an unbudgeted build.
// diskcache.* / batch.request injections are filtered out: they are
// enforced by their own modules, and leaving them in the spec would mark
// the budget "limited", which bypasses the solve caches (support/budget.h).
// --trace turns both tracer channels on, --explain remarks only.
struct RequestState {
  explicit RequestState(const Options& o) {
    support::BudgetSpec bspec;
    bspec.fuel = o.fuel;
    bspec.deadline_ms = o.time_budget_ms;
    bspec.injections = budget_injections(o.injections);
    if (bspec.limited()) budget.emplace(bspec);
    budget_scope.emplace(budget ? &*budget : nullptr);
    if (!o.trace_file.empty() || o.explain)
      tracer.emplace(!o.trace_file.empty(), true);
    tracer_scope.emplace(tracer ? &*tracer : nullptr);
  }
  std::optional<support::Budget> budget;
  std::optional<support::BudgetScope> budget_scope;
  std::optional<support::Tracer> tracer;
  std::optional<support::TracerScope> tracer_scope;
};

}  // namespace

RequestResult run_request(const Options& o, std::ostream& out,
                          std::ostream& err) {
  RequestResult result;
  // Request isolation: its own budget and tracer, its own metrics
  // registry (absorbed into the parent when the scope closes --
  // absorption is atomic, so concurrent request teardowns are safe), and
  // its own memo table so per-request cache behavior never depends on
  // what a sibling request memoized first. Pool workers the request fans
  // out to report into the same registry and tracer and share the same
  // table (support/context.h).
  RequestState state(o);
  support::MetricsScope metrics;
  poly::SolveCacheScope solve_scope;
  support::gauge_set(
      support::Gauge::kJobsConfigured,
      static_cast<i64>(o.jobs != 0 ? o.jobs : support::default_jobs()));
  // Every path owes the user their requested outputs: finish_outputs runs
  // once after the pipeline, whether it returned or threw, and a budget
  // that escaped every recovery boundary first leaves a crash-style
  // diagnostic.
  try {
    result.rc = run_pipeline(o, out, err);
  } catch (const support::BudgetExceeded& e) {
    err << "polyfuse: " << e.what() << "\n";
    dump_fatal_diag(o, std::string("budget-exceeded:") + e.site_name(), err);
    result.rc = 1;
    result.error = e.what();
  } catch (const std::exception& e) {
    err << "polyfuse: " << e.what() << "\n";
    result.rc = 1;
    result.error = e.what();
  }
  finish_outputs(o, err);
  // "Degraded" = the degradation chain absorbed at least one budget fault
  // (fuel, deadline or injected) on the way to whatever was produced.
  // Read from the request-scoped registry, so sibling requests never
  // bleed in.
  result.degraded =
      metrics.registry().get(support::Counter::kBudgetExhaustions) +
          metrics.registry().get(support::Counter::kBudgetInjectedFaults) >
      0;
  return result;
}

}  // namespace pf::cli
