#include "support/threadpool.h"

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <utility>

#include "support/context.h"
#include "support/strings.h"

namespace pf::support {

namespace {

std::atomic<std::size_t> g_jobs_override{0};

std::size_t hardware_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

// Runs the calling thread under `ctx`, restoring its own context on exit
// (exceptions included: the worker thread outlives the task).
class ContextScope {
 public:
  explicit ContextScope(const Context& ctx)
      : saved_(std::exchange(current_context(), ctx)) {}
  ~ContextScope() { current_context() = saved_; }
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  Context saved_;
};

std::size_t env_or_hardware_jobs() {
  if (const char* env = std::getenv("POLYFUSE_JOBS")) {
    // Empty means unset (harness scripts do POLYFUSE_JOBS= to clear it);
    // anything else gets the same checked parse as --jobs, with a
    // once-per-process warning instead of silent misbehavior.
    if (*env == '\0') return hardware_jobs();
    if (const auto v = parse_jobs_value(env)) return *v;
    static std::once_flag warned;
    std::call_once(warned, [env] {
      std::cerr << "polyfuse: ignoring invalid POLYFUSE_JOBS='" << env
                << "' (expected an integer >= 1); using hardware concurrency"
                << std::endl;
    });
  }
  return hardware_jobs();
}

}  // namespace

std::optional<std::size_t> parse_jobs_value(const std::string& text) {
  const std::optional<i64> v = parse_i64(text);
  if (!v || *v < 1) return std::nullopt;
  return static_cast<std::size_t>(*v);
}

std::size_t default_jobs() {
  const std::size_t o = g_jobs_override.load(std::memory_order_relaxed);
  return o > 0 ? o : env_or_hardware_jobs();
}

void set_default_jobs(std::size_t jobs) {
  g_jobs_override.store(jobs, std::memory_order_relaxed);
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads <= 1) return;  // inline mode
  workers_.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // exceptions land in the task's future
  }
}

std::future<void> ThreadPool::submit(std::function<void()> fn) {
  // A task runs inside its submitter's request (support/context.h): same
  // metrics registry, same memo table, no budget -- a Budget is
  // single-threaded, so parallel phases install per-task sub-budgets.
  // Inline mode skips the wrap: the caller's context is already right.
  if (!workers_.empty()) {
    Context ctx = current_context();
    ctx.budget = nullptr;
    fn = [ctx, inner = std::move(fn)] {
      ContextScope scope(ctx);
      inner();
    };
  }
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> future = task.get_future();
  if (workers_.empty()) {
    task();  // inline
    return future;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  if (workers_.empty()) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  // Dynamic self-scheduling: each task drains indices from a shared
  // counter, so uneven iteration costs (statement pairs with wildly
  // different ILP work) still balance.
  auto next = std::make_shared<std::atomic<std::size_t>>(begin);
  const std::size_t tasks = std::min(workers_.size(), end - begin);
  std::vector<std::future<void>> futures;
  futures.reserve(tasks);
  for (std::size_t t = 0; t < tasks; ++t) {
    futures.push_back(submit([next, end, &fn] {
      for (;;) {
        const std::size_t i = next->fetch_add(1, std::memory_order_relaxed);
        if (i >= end) return;
        fn(i);
      }
    }));
  }
  // Wait for every task before rethrowing: tasks reference fn/next, so
  // nothing may still be running when this frame unwinds.
  for (auto& f : futures) f.wait();
  for (auto& f : futures) f.get();  // rethrows the first task exception
}

}  // namespace pf::support
