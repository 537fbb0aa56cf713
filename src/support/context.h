// One request's state, carried by whichever thread works on it.
//
// A compile request owns three pieces of mutable state: the compute budget
// it charges (support/budget.h), the metrics registry it reports into
// (support/metrics.h) and the memo table its polyhedral solves and point
// counts are memoized in (poly/memo.h). All three live in one Context per
// thread. The RAII scopes -- BudgetScope / BudgetSuspend, MetricsScope and
// poly::SolveCacheScope -- each swap one field and restore it on exit, and
// ThreadPool::submit runs every task under its submitter's context. Work
// fanned out to the pool (dependence pairs) therefore stays inside its
// request: it reports into the request's registry and shares the request's
// memo table. A pool task starts with no budget: a Budget is
// single-threaded, so parallel phases install per-task sub-budgets
// (Budget::make_task_budget) for --jobs determinism.
#pragma once

namespace pf::poly {
class MemoTable;
}

namespace pf::support {

class Budget;
class MetricsRegistry;

struct Context {
  Budget* budget = nullptr;            // nullptr: unlimited
  MetricsRegistry* metrics = nullptr;  // nullptr: global_metrics()
  poly::MemoTable* memo = nullptr;     // nullptr: poly::process_memo()
};

/// The calling thread's context.
Context& current_context();

}  // namespace pf::support
