#include "exec/jit.h"

#include <dlfcn.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "support/budget.h"
#include "support/error.h"
#include "support/metrics.h"
#include "support/strings.h"
#include "support/trace.h"

namespace pf::exec {

namespace {

// Split a flags string ("-O2 -march=native") on whitespace.
std::vector<std::string> split_flags(const std::string& flags) {
  std::vector<std::string> out;
  std::istringstream in(flags);
  std::string word;
  while (in >> word) out.push_back(word);
  return out;
}

// Resolve `name` against PATH (names containing '/' are checked
// directly). The X_OK probe is what `command -v` did, without a shell.
std::optional<std::string> find_executable(const std::string& name) {
  if (name.empty()) return std::nullopt;
  if (name.find('/') != std::string::npos) {
    if (::access(name.c_str(), X_OK) == 0) return name;
    return std::nullopt;
  }
  const char* path = std::getenv("PATH");
  if (path == nullptr || *path == '\0') return std::nullopt;
  std::istringstream dirs(path);
  std::string dir;
  while (std::getline(dirs, dir, ':')) {
    // An empty PATH entry names the working directory.
    const std::string candidate =
        concat(dir.empty() ? std::string_view(".") : dir, "/", name);
    if (::access(candidate.c_str(), X_OK) == 0) return candidate;
  }
  return std::nullopt;
}

struct RunResult {
  int exit_code = -1;       // valid unless timed_out or spawn_error set
  bool timed_out = false;
  std::string spawn_error;  // non-empty: the fork/exec machinery failed
};

// fork/exec + waitpid replacement for std::system: no shell, no quoting
// pitfalls, and a hung child can be killed on timeout. The child's stdout
// and stderr are redirected into `output_file` so diagnostics can be
// surfaced in the caller's error message.
RunResult run_argv(const std::vector<std::string>& argv,
                   const std::string& output_file, long timeout_ms) {
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv)
    cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);

  RunResult res;
  const pid_t pid = ::fork();
  if (pid < 0) {
    res.spawn_error = std::string("fork failed: ") + std::strerror(errno);
    return res;
  }
  if (pid == 0) {
    // Child: redirect, then exec. _exit only -- no C++ cleanup here.
    if (!output_file.empty()) {
      const int fd =
          ::open(output_file.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        if (fd > STDERR_FILENO) ::close(fd);
      }
    }
    ::execvp(cargv[0], cargv.data());
    ::_exit(127);  // the shell's "command not found" convention
  }

  // Parent: poll with WNOHANG so a timeout can SIGKILL the child.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms < 0 ? 0 : timeout_ms);
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) {
      if (WIFEXITED(status))
        res.exit_code = WEXITSTATUS(status);
      else if (WIFSIGNALED(status))
        res.exit_code = 128 + WTERMSIG(status);
      return res;
    }
    if (r < 0) {
      res.spawn_error = std::string("waitpid failed: ") + std::strerror(errno);
      return res;
    }
    if (timeout_ms >= 0 && std::chrono::steady_clock::now() >= deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);  // reap; SIGKILL cannot be ignored
      res.timed_out = true;
      return res;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// Best-effort recursive removal (replaces `rm -rf` via the shell).
void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

// Removes the temp tree on every exit path (including exceptions) unless
// disarmed -- success hands ownership of the directory to the JitKernel.
struct TempDirGuard {
  std::string path;
  bool armed = true;
  ~TempDirGuard() {
    if (armed && !path.empty()) remove_tree(path);
  }
};

std::string slurp_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

bool jit_available(const JitOptions& options) {
  return find_executable(options.compiler).has_value();
}

std::optional<JitKernel> JitKernel::compile(const std::string& c_source,
                                            const std::string& entry,
                                            const JitOptions& options,
                                            std::string* error) {
  auto fail = [&](const std::string& msg) -> std::optional<JitKernel> {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };

  try {
    support::budget_op(support::BudgetSite::kJitCc);
    support::budget_charge(support::BudgetSite::kJitCc);
  } catch (const support::BudgetExceeded& e) {
    // Recovery: no compile happens; every caller already falls back to
    // the interpreter when compile() returns nullopt.
    support::count(support::Counter::kBudgetDowngrades);
    support::remark("budget", "jit compile skipped",
                    {{"site", e.site_name()}, {"cause", e.cause()}});
    return fail(std::string("jit compile aborted: ") + e.what());
  }

  char tmpl[] = "/tmp/polyfuse-jit-XXXXXX";
  const char* dir = mkdtemp(tmpl);
  if (dir == nullptr)
    return fail(std::string("mkdtemp failed: ") + std::strerror(errno));
  const std::string d = dir;
  TempDirGuard guard{d};
  const std::string src = d + "/kernel.c";
  const std::string so = d + "/kernel.so";
  const std::string log = d + "/cc.log";
  {
    std::ofstream out(src);
    if (!out) return fail("cannot write " + src);
    out << c_source;
    out.flush();
    if (!out) return fail("short write to " + src);
  }

  const std::optional<std::string> compiler =
      find_executable(options.compiler);
  if (!compiler)
    return fail("compiler '" + options.compiler + "' not found in PATH");

  std::vector<std::string> argv{*compiler};
  for (std::string& flag : split_flags(options.opt_flags))
    argv.push_back(std::move(flag));
  argv.push_back("-fopenmp");
  argv.push_back("-fPIC");
  argv.push_back("-shared");
  argv.push_back("-o");
  argv.push_back(so);
  argv.push_back(src);
  argv.push_back("-lm");

  const RunResult r = run_argv(argv, log, options.compile_timeout_ms);
  if (!r.spawn_error.empty())
    return fail("cannot run compiler '" + *compiler + "': " + r.spawn_error);
  if (r.timed_out) {
    std::ostringstream msg;
    msg << "compiler '" << *compiler << "' timed out after "
        << options.compile_timeout_ms << " ms and was killed";
    return fail(msg.str());
  }
  if (r.exit_code != 0) {
    std::ostringstream msg;
    msg << "compiler '" << *compiler << "' exited with code " << r.exit_code;
    if (r.exit_code == 127) msg << " (exec failed -- is it a binary?)";
    const std::string cc_output = slurp_file(log);
    if (!cc_output.empty()) msg << ":\n" << cc_output;
    return fail(msg.str());
  }

  // RTLD_NODELETE: the first -fopenmp kernel is what loads the OpenMP
  // runtime, whose worker threads outlive the kernel; unloading it on
  // dlclose would unmap the runtime under those threads.
  void* handle = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL | RTLD_NODELETE);
  if (handle == nullptr)
    return fail(std::string("dlopen failed: ") + dlerror());
  void* sym = dlsym(handle, entry.c_str());
  if (sym == nullptr) {
    dlclose(handle);
    return fail("symbol '" + entry + "' not found");
  }
  JitKernel k;
  k.handle_ = handle;
  k.fn_ = reinterpret_cast<Fn>(sym);
  k.dir_ = d;
  guard.armed = false;  // the kernel's dtor owns cleanup now
  return k;
}

JitKernel::JitKernel(JitKernel&& o) noexcept
    : handle_(o.handle_), fn_(o.fn_), dir_(std::move(o.dir_)) {
  o.handle_ = nullptr;
  o.fn_ = nullptr;
  o.dir_.clear();
}

JitKernel& JitKernel::operator=(JitKernel&& o) noexcept {
  if (this != &o) {
    this->~JitKernel();
    new (this) JitKernel(std::move(o));
  }
  return *this;
}

JitKernel::~JitKernel() {
  if (handle_ != nullptr) dlclose(handle_);
  if (!dir_.empty()) remove_tree(dir_);
}

void JitKernel::run(ArrayStore& store) const {
  PF_CHECK(fn_ != nullptr);
  std::vector<double*> arrays = store.pointers();
  std::vector<long long> params(store.params().begin(), store.params().end());
  fn_(arrays.data(), params.data());
}

}  // namespace pf::exec
