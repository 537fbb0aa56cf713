// A small fixed-size thread pool for the compile pipeline.
//
// Dependence analysis fans its statement-pair loop out across the pool
// (each pair's ILP solves are independent); anything else that wants
// coarse-grained parallelism can submit() closures or use parallel_for.
// Exceptions thrown by tasks are captured and rethrown on the waiting
// thread, so pf::Error diagnostics survive the fan-out. Every task runs
// under its submitter's request context (support/context.h).
//
// The worker count comes from --jobs=N / POLYFUSE_JOBS, defaulting to
// hardware_concurrency; jobs == 1 means "run inline on the caller" and is
// guaranteed to execute in exactly the serial order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace pf::support {

/// The checked parse behind POLYFUSE_JOBS (same rules as --jobs): a
/// strict positive decimal integer, full consumption, range-checked.
/// Returns nullopt for garbage, zero, negatives and overflow. Exposed
/// for tests.
std::optional<std::size_t> parse_jobs_value(const std::string& text);

/// Process-wide default worker count: set_default_jobs() override if any,
/// else POLYFUSE_JOBS (validated -- an invalid value warns once on stderr
/// and falls back), else hardware_concurrency (at least 1).
std::size_t default_jobs();
/// Override default_jobs() process-wide; 0 restores the env/hardware
/// default.
void set_default_jobs(std::size_t jobs);

class ThreadPool {
 public:
  /// Spawns `threads` workers. 0 or 1 spawns none: tasks run inline at
  /// submit()/parallel_for() time, preserving exact serial semantics.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; the future rethrows any exception the task threw.
  std::future<void> submit(std::function<void()> fn);

  /// Run fn(i) for every i in [begin, end), dynamically scheduled across
  /// the pool (inline when the pool has no workers). Blocks until all
  /// iterations finish; the first task exception is rethrown.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::packaged_task<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace pf::support
