// One request's state, carried by whichever thread works on it.
//
// A compile request owns four pieces of mutable state: the compute budget
// it charges (support/budget.h), the metrics registry it reports into
// (support/metrics.h), the memo table its polyhedral solves and point
// counts are memoized in (poly/memo.h) and the tracer its spans and
// decision remarks are kept in (support/trace.h). All four live in one
// Context per thread. The RAII scopes -- BudgetScope / BudgetSuspend,
// MetricsScope, poly::SolveCacheScope and TracerScope -- each swap one
// field and restore it on exit, and ThreadPool::submit runs every task
// under its submitter's context. Work fanned out to the pool (dependence
// pairs) therefore stays inside its request: it reports into the
// request's registry, shares the request's memo table and records its
// spans into the request's tracer. A pool task starts with no budget: a
// Budget is single-threaded, so parallel phases install per-task
// sub-budgets (Budget::make_task_budget) for --jobs determinism.
//
// The context is a constant-initialized POD, so the crash handler may
// read it (support/flightrec.h).
#pragma once

namespace pf::poly {
class MemoTable;
}

namespace pf::support {

class Budget;
class MetricsRegistry;
class Tracer;

struct Context {
  Budget* budget = nullptr;            // nullptr: unlimited
  MetricsRegistry* metrics = nullptr;  // nullptr: global_metrics()
  poly::MemoTable* memo = nullptr;     // nullptr: nothing is memoized
  Tracer* tracer = nullptr;            // nullptr: spans and remarks off;
                                       // events reach only the flight
                                       // recorder
};

/// The calling thread's context.
Context& current_context();

}  // namespace pf::support
