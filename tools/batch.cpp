#include "batch.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <vector>

#include "support/diskcache.h"
#include "support/flightrec.h"
#include "support/strings.h"
#include "support/threadpool.h"
#include "support/trace.h"

namespace pf::cli {
namespace {

namespace fs = std::filesystem;

struct Request {
  std::string input;  // as discovered (full path)
  std::string stem;   // unique output stem under --batch-out
};

struct Outcome {
  std::string status = "failed";  // ok | degraded | failed
  int rc = 1;
  bool crashed = false;
  std::string error;        // one line; empty unless failed
  bool wrote_output = false;
};

// ---------------------------------------------------------------------------
// Request discovery. Deterministic by construction: a directory scan is
// sorted by path, a manifest is taken line by line (blank lines and
// #-comments skipped, relative paths resolved against the manifest's
// directory). The report later lists requests in exactly this order,
// which is one half of "byte-identical at any --jobs".
// ---------------------------------------------------------------------------

bool discover_inputs(const std::string& batch, std::vector<std::string>* out,
                     std::string* error) {
  std::error_code ec;
  if (fs::is_directory(batch, ec)) {
    for (const fs::directory_entry& e : fs::directory_iterator(batch, ec)) {
      if (!e.is_regular_file(ec)) continue;
      if (e.path().extension() != ".pf") continue;
      out->push_back(e.path().string());
    }
    if (ec) {
      *error = "cannot scan batch directory '" + batch + "'";
      return false;
    }
    std::sort(out->begin(), out->end());
    if (out->empty()) {
      *error = "no .pf files in batch directory '" + batch + "'";
      return false;
    }
    return true;
  }
  std::ifstream in(batch);
  if (!in) {
    *error = "cannot open batch manifest '" + batch + "'";
    return false;
  }
  const fs::path base = fs::path(batch).parent_path();
  std::string line;
  while (std::getline(in, line)) {
    // Trim trailing CR/whitespace, skip blanks and comments.
    while (!line.empty() &&
           (line.back() == '\r' || line.back() == ' ' || line.back() == '\t'))
      line.pop_back();
    std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos) continue;
    line = line.substr(start);
    if (line[0] == '#') continue;
    const fs::path p(line);
    out->push_back(p.is_absolute() ? p.string() : (base / p).string());
  }
  if (out->empty()) {
    *error = "batch manifest '" + batch + "' lists no inputs";
    return false;
  }
  // Manifest order is the author's order; keep it (it is deterministic).
  return true;
}

std::string sanitize_stem(const std::string& name) {
  std::string s;
  for (const char c : name)
    s += (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '.' ||
          c == '_' || c == '-')
             ? c
             : '_';
  return s.empty() ? std::string("request") : s;
}

std::vector<Request> assign_stems(const std::vector<std::string>& inputs) {
  std::vector<Request> requests;
  std::map<std::string, int> used;
  for (const std::string& input : inputs) {
    std::string stem = sanitize_stem(fs::path(input).stem().string());
    const int n = ++used[stem];
    if (n > 1) stem += concat("-", std::to_string(n));
    requests.push_back(Request{input, stem});
  }
  return requests;
}

// ---------------------------------------------------------------------------
// One run of one request. Shared by the in-process worker task and the
// forked child: run the request with captured streams, commit
// <stem>.out (atomically -- a killed batch must never leave a torn
// output under a live name) and <stem>.err.
// ---------------------------------------------------------------------------

bool write_file_atomic(const fs::path& path, const std::string& content) {
  fs::path tmp = path;
  tmp += ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << content;
    out.flush();
    if (!out) return false;
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

// Each request runs exactly once: its parse errors, strict failures and
// crashes are deterministic, so running it again would fail the same way.
RequestResult run_one(const Options& base, const Request& req, i64 index,
                      const fs::path& outdir) {
  // The batch.request injection site, enforced here (not by the Budget:
  // an injection-only budget would bypass the solve caches, see
  // driver.h). The ordinal is the request *index*, so which request is
  // hit never depends on scheduling. Soft = fail the request; hard =
  // crash outright, which --batch-isolate contains to the child.
  for (const support::Injection& inj : base.injections) {
    if (inj.site != support::BudgetSite::kBatchRequest ||
        inj.fail_at != index)
      continue;
    support::record_event(support::flightrec::EventKind::kFault,
                          "batch.request",
                          inj.hard ? "abort-injected" : "fault-injected",
                          index);
    if (inj.hard) std::abort();
    return RequestResult{1, false,
                         "injected fault (batch.request op #" +
                             std::to_string(index) + ")"};
  }

  Options ro = base;
  ro.input = req.input;
  // One worker *per request*; parallelism lives across requests. Inner
  // jobs=1 also makes each request's fuel spend and metrics exactly
  // reproducible.
  ro.jobs = 1;
  ro.batch.clear();
  ro.batch_out.clear();
  ro.batch_report.clear();
  ro.batch_isolate = false;
  // Concurrent in-process requests share one process: each fatal
  // diagnostic gets its own file, named as an isolated child's.
  ro.diag_file = (outdir / (req.stem + ".diag.json")).string();

  std::ostringstream out;
  std::ostringstream err;
  RequestResult result = run_request(ro, out, err);
  if (result.rc == 0 &&
      !write_file_atomic(outdir / (req.stem + ".out"), out.str())) {
    result.rc = 1;
    result.error = "cannot write output file '" + req.stem + ".out'";
  }
  // The request's stderr (reports, validation summaries, error messages)
  // always lands next to the output, success or not.
  write_file_atomic(outdir / (req.stem + ".err"), err.str());
  return result;
}

void finish_outcome(Outcome* oc, const RequestResult& rr) {
  oc->rc = rr.rc;
  oc->error = rr.error;
  if (rr.rc == 0) {
    oc->status = rr.degraded ? "degraded" : "ok";
    oc->wrote_output = true;
    oc->error.clear();
  } else {
    oc->status = "failed";
  }
}

// ---------------------------------------------------------------------------
// In-process executor: the PR-1 thread pool fans requests out; each
// worker task owns its request end to end.
// ---------------------------------------------------------------------------

void run_in_process(const Options& o, const std::vector<Request>& requests,
                    const fs::path& outdir, std::size_t jobs,
                    std::vector<Outcome>* outcomes) {
  support::ThreadPool pool(jobs);
  pool.parallel_for(0, requests.size(), [&](std::size_t i) {
    finish_outcome(&(*outcomes)[i],
                   run_one(o, requests[i], static_cast<i64>(i), outdir));
  });
}

// ---------------------------------------------------------------------------
// Fork-isolated executor. The scheduling loop runs on the main thread
// only (fork() from a multithreaded parent is a hazard the in-process
// pool never meets this code path); up to `jobs` children live at once.
// The child re-points its crash diagnostic at <stem>.diag.json, runs the
// request, leaves a tiny <stem>.res result file for the parent, and
// _Exits without touching the parent's stdio buffers. A child death by
// signal -- a real SIGSEGV or an injected SIGABRT -- is one failed entry
// in the report, never a dead batch.
// ---------------------------------------------------------------------------

constexpr int kExitOk = 0;
constexpr int kExitDegraded = 10;  // rc 0, but the budget chain engaged

void write_child_result(const fs::path& outdir, const Request& req,
                        const RequestResult& rr) {
  std::string flat = rr.error;
  std::replace(flat.begin(), flat.end(), '\n', ' ');
  write_file_atomic(outdir / (req.stem + ".res"),
                    "rc=" + std::to_string(rr.rc) + "\nerror=" + flat + "\n");
}

std::string read_child_error(const fs::path& outdir, const Request& req,
                             int rc) {
  std::ifstream in(outdir / (req.stem + ".res"));
  std::string line;
  while (in && std::getline(in, line))
    if (line.rfind("error=", 0) == 0 && line.size() > 6)
      return line.substr(6);
  return "request failed (rc " + std::to_string(rc) + ")";
}

void run_isolated(const Options& o, const std::vector<Request>& requests,
                  const fs::path& outdir, std::size_t jobs,
                  std::vector<Outcome>* outcomes) {
  struct Child {
    pid_t pid;
    std::size_t index;
  };
  std::size_t next = 0;  // the next request to fork
  std::vector<Child> live;

  auto settle = [&](std::size_t i, bool crashed, int rc,
                    const std::string& error) {
    const bool ok = rc == kExitOk || rc == kExitDegraded;
    finish_outcome(&(*outcomes)[i],
                   RequestResult{ok ? 0 : 1, rc == kExitDegraded, error});
    (*outcomes)[i].crashed = crashed;
  };
  auto exit_code = [](const RequestResult& rr) {
    return rr.rc == 0 ? (rr.degraded ? kExitDegraded : kExitOk) : 1;
  };

  while (next < requests.size() || !live.empty()) {
    while (next < requests.size() && live.size() < jobs) {
      const std::size_t i = next++;
      const pid_t pid = fork();
      if (pid == 0) {
        // Child: own crash-diagnostic path (the inherited one is named
        // after the parent pid and shared by every sibling), then the
        // request. The diskcache run id was generated before the fork,
        // so the whole process tree reads as one run.
        support::flightrec::set_diag_path(
            (outdir / (requests[i].stem + ".diag.json")).string());
        const RequestResult rr =
            run_one(o, requests[i], static_cast<i64>(i), outdir);
        write_child_result(outdir, requests[i], rr);
        std::_Exit(exit_code(rr));
      }
      if (pid < 0) {
        // Out of processes: degrade to running the request inline rather
        // than failing it (isolation is lost for this request only).
        const RequestResult rr =
            run_one(o, requests[i], static_cast<i64>(i), outdir);
        settle(i, false, exit_code(rr), rr.error);
        continue;
      }
      live.push_back(Child{pid, i});
    }
    if (live.empty()) continue;
    int status = 0;
    const pid_t done = ::waitpid(-1, &status, 0);
    if (done < 0) continue;
    const auto it =
        std::find_if(live.begin(), live.end(),
                     [&](const Child& c) { return c.pid == done; });
    if (it == live.end()) continue;
    const Child child = *it;
    live.erase(it);
    const Request& req = requests[child.index];
    if (WIFSIGNALED(status)) {
      const int sig = WTERMSIG(status);
      settle(child.index, /*crashed=*/true, /*rc=*/1,
             "crashed with signal " + std::to_string(sig) +
                 "; diagnostic: " + req.stem + ".diag.json");
    } else {
      const int rc = WIFEXITED(status) ? WEXITSTATUS(status) : 1;
      settle(child.index, /*crashed=*/false, rc,
             rc == kExitOk || rc == kExitDegraded
                 ? ""
                 : read_child_error(outdir, req, rc));
    }
  }
  // The per-request .res handshake files are scaffolding, not output.
  std::error_code ec;
  for (const Request& req : requests)
    fs::remove(outdir / (req.stem + ".res"), ec);
}

// ---------------------------------------------------------------------------
// The deterministic batch report. No timings, pids or cache-hit counts: everything in here is a pure function of the
// inputs, the flags and the per-request outcomes, which is what makes
// byte-identity at any --jobs (and across warm/cold cache runs) hold.
// ---------------------------------------------------------------------------

std::string render_report(const Options& o,
                          const std::vector<Request>& requests,
                          const std::vector<Outcome>& outcomes) {
  std::size_t ok = 0, degraded = 0, failed = 0;
  for (const Outcome& oc : outcomes) {
    if (oc.status == "ok") ++ok;
    else if (oc.status == "degraded") ++degraded;
    else ++failed;
  }
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"polyfuse-batch-report-v2\",\n";
  os << "  \"batch\": \"" << support::json_escape(o.batch) << "\",\n";
  os << "  \"mode\": \"" << (o.batch_isolate ? "isolate" : "in-process")
     << "\",\n";
  os << "  \"cache\": {\"enabled\": "
     << (support::diskcache::enabled() ? "true" : "false") << ", \"dir\": \""
     << support::json_escape(o.cache_dir) << "\"},\n";
  os << "  \"requests\": [\n";
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& req = requests[i];
    const Outcome& oc = outcomes[i];
    os << "    {\"input\": \"" << support::json_escape(req.input)
       << "\", \"stem\": \"" << support::json_escape(req.stem)
       << "\", \"status\": \"" << oc.status
       << "\", \"rc\": " << oc.rc;
    if (oc.wrote_output) os << ", \"output\": \"" << req.stem << ".out\"";
    if (!oc.error.empty())
      os << ", \"error\": \"" << support::json_escape(oc.error) << "\"";
    if (oc.crashed) os << ", \"diag\": \"" << req.stem << ".diag.json\"";
    os << "}" << (i + 1 < requests.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"summary\": {\"total\": " << requests.size() << ", \"ok\": " << ok
     << ", \"degraded\": " << degraded << ", \"failed\": " << failed
     << "}\n";
  os << "}\n";
  return os.str();
}

}  // namespace

int run_batch(const Options& o) {
  std::vector<std::string> inputs;
  std::string error;
  if (!discover_inputs(o.batch, &inputs, &error)) {
    std::cerr << "polyfuse: " << error << "\n";
    return 2;
  }
  const std::vector<Request> requests = assign_stems(inputs);

  fs::path outdir = o.batch_out;
  if (outdir.empty())
    outdir = o.batch_report.empty()
                 ? fs::path(".")
                 : fs::path(o.batch_report).parent_path();
  if (outdir.empty()) outdir = ".";
  std::error_code ec;
  fs::create_directories(outdir, ec);
  if (!fs::is_directory(outdir, ec)) {
    std::cerr << "polyfuse: cannot create batch output directory '"
              << outdir.string() << "'\n";
    return 2;
  }

  const std::size_t jobs = o.jobs != 0 ? o.jobs : support::default_jobs();
  std::vector<Outcome> outcomes(requests.size());
  if (o.batch_isolate)
    run_isolated(o, requests, outdir, jobs, &outcomes);
  else
    run_in_process(o, requests, outdir, jobs, &outcomes);

  const std::string report = render_report(o, requests, outcomes);
  if (!o.batch_report.empty()) {
    if (!write_file_atomic(o.batch_report, report)) {
      std::cerr << "polyfuse: cannot write batch report '" << o.batch_report
                << "'\n";
      return 2;
    }
  } else {
    std::cout << report;
  }

  std::size_t failed = 0;
  for (const Outcome& oc : outcomes)
    if (oc.status == "failed") ++failed;
  std::cerr << "polyfuse: batch " << requests.size() << " request(s): "
            << (requests.size() - failed) << " succeeded, " << failed
            << " failed (report: "
            << (o.batch_report.empty() ? "stdout" : o.batch_report) << ")\n";
  return failed == 0 ? 0 : 3;
}

}  // namespace pf::cli
