// Compute-fuel budgets, wall-clock deadlines, and deterministic fault
// injection for the exact solver stack.
//
// Every exact engine polyfuse rests on -- the two-phase simplex, the
// branch-and-bound ILP, Fourier-Motzkin projection, the per-pair
// dependence solves, the level-by-level Pluto search -- is worst-case
// exponential. A Budget bounds that work the way ISL's max-operations
// bail-out does: a monotone fuel counter is *charged* at every pivot,
// B&B node, FME elimination and dependence solve, and an optional
// deadline is checked alongside. When either runs out, BudgetExceeded
// unwinds to the nearest recovery boundary, where each layer degrades
// gracefully instead of failing:
//
//   is_empty / integer_min   -> conservative "dependence assumed" answer
//   a dependence pair        -> every candidate polyhedron assumed real
//   a Pluto level            -> scalar cut on the original order
//   a fusion model           -> wisefuse -> smartfuse -> nofuse -> identity
//   a JIT compile            -> skipped; callers use the interpreter
//
// Soundness: every degradation over-approximates (extra dependences only
// constrain the schedule; the original statement order satisfies every
// dependence), so budgeted runs stay correct -- just less optimized.
//
// The current budget is a field of the calling thread's request context
// (support/context.h), installed by BudgetScope; code that must run to
// completion regardless of budget -- codegen, verification, the linter --
// suspends it with BudgetSuspend. For determinism across
// --jobs settings, parallel phases give each task its own sub-budget
// (make_task_budget) with a fixed fuel allowance and merge the spend back
// serially (absorb); a shared racing counter would make exhaustion depend
// on thread scheduling.
//
// Fault injection: --inject=SITE:fail-after=K makes the operation with
// 0-based ordinal K at SITE fail (once); ordinals are counted per budget
// (per task in parallel phases), so injected outcomes are byte-identical
// at any --jobs. See docs/robustness.md.
#pragma once

#include <array>
#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "support/error.h"
#include "support/intmath.h"

namespace pf::support {

/// Where fuel is charged and faults can be injected. Site names (the
/// to_string values) are the vocabulary of --inject and of the
/// budget_fuel_* stats counters.
enum class BudgetSite : std::size_t {
  kLpSolve = 0,  // simplex pivots + B&B nodes + ILP minimize entry
  kFmeProject,   // Fourier-Motzkin eliminations (incl. SetUnion algebra)
  kDepPair,      // dependence-pair analysis (one charge per candidate solve)
  kPlutoLevel,   // one Pluto scheduling level
  kFusionModel,  // fusion-policy work (pre-fusion order computation)
  kJitCc,        // one external JIT compiler invocation
  kCountSet,     // one point-counting recursion step (--analyze)
  kAnalysisReductions,  // reduction/privatization classification pass
  kDiskcacheRead,   // one persistent-cache entry read (injection-only;
                    // handled inside support/diskcache, never charged here)
  kDiskcacheWrite,  // one persistent-cache entry write (injection-only)
  kBatchRequest,    // one batch-mode request (injection-only; the batch
                    // driver interprets the ordinal as the request index)
  kNumSites,
};

constexpr std::size_t kNumBudgetSites =
    static_cast<std::size_t>(BudgetSite::kNumSites);

const char* to_string(BudgetSite site);

/// Inverse of to_string; nullopt for unknown names.
std::optional<BudgetSite> budget_site_from_string(const std::string& name);

/// Raised when a budget runs out of fuel, passes its deadline, or hits an
/// injected fault. Derives from pf::Error so unguarded code still fails
/// with a catchable, descriptive exception.
class BudgetExceeded : public Error {
 public:
  enum class Kind { kFuel, kDeadline, kInjected };

  BudgetExceeded(BudgetSite site, Kind kind, i64 ordinal);

  BudgetSite site() const { return site_; }
  Kind kind() const { return kind_; }
  bool injected() const { return kind_ == Kind::kInjected; }
  const char* site_name() const { return support::to_string(site_); }
  /// Stable cause token for remarks: "fuel-exhausted", "deadline-expired",
  /// or "fault-injected".
  const char* cause() const;

 private:
  BudgetSite site_;
  Kind kind_;
};

/// One deterministic injected fault: the operation with 0-based ordinal
/// `fail_at` at `site` fails (exactly once; later operations succeed).
/// A *hard* injection (`SITE:abort-after=K`) calls std::abort() at the
/// matching ordinal instead of throwing: soft faults are recovered by
/// the graceful-degradation chain, so the hard flavor exists to
/// deterministically exercise the fatal-signal path -- the flight
/// recorder's crash dump (docs/observability.md) -- from tests and CI.
struct Injection {
  BudgetSite site = BudgetSite::kLpSolve;
  i64 fail_at = 0;
  bool hard = false;
};

/// Parse "SITE:fail-after=K" or "SITE:abort-after=K" (e.g.
/// "dep_pair:fail-after=2"). On failure returns nullopt and, when
/// `error` is non-null, stores a description.
std::optional<Injection> parse_injection(const std::string& text,
                                         std::string* error);

/// What to limit. Negative fuel/deadline mean "unlimited".
struct BudgetSpec {
  i64 fuel = -1;         // total fuel units; every charge spends one
  i64 deadline_ms = -1;  // wall-clock budget from construction, in ms
  std::vector<Injection> injections;

  bool limited() const {
    return fuel >= 0 || deadline_ms >= 0 || !injections.empty();
  }
};

/// A fuel/deadline account plus per-site operation counters. Not thread
/// safe: install one per thread (BudgetScope); parallel phases hand each
/// task its own sub-budget (make_task_budget / absorb).
class Budget {
 public:
  explicit Budget(const BudgetSpec& spec);

  /// Spend `n` fuel units at `site`. Throws BudgetExceeded when the fuel
  /// account cannot cover it (leaving the account empty) or, checked
  /// periodically, when the deadline has passed. Also feeds the
  /// budget_fuel_* stats counters.
  void charge(BudgetSite site, i64 n = 1);

  /// Announce the next operation at `site` (ordinal = how many ops this
  /// budget has announced there before). Throws when an injection matches
  /// the ordinal or the deadline has passed. Charges no fuel.
  void op(BudgetSite site);

  /// Like op(), but with a caller-supplied ordinal -- used where the
  /// deterministic operation index is defined globally (e.g. the linear
  /// pair index of the parallel dependence phase) rather than per budget.
  void op_at(BudgetSite site, i64 ordinal);

  i64 fuel_remaining() const { return fuel_; }
  /// Fuel spent through this budget (sub-budget spend counts once
  /// absorbed).
  i64 spent() const { return spent_; }
  /// Faults raised so far (exhaustions + injections). Callers snapshot
  /// this around an operation to detect a degraded answer that was
  /// recovered further down (e.g. a conservative is_empty).
  i64 faults() const { return faults_; }
  bool limited() const { return limited_; }

  /// Even fuel split for `tasks` parallel tasks (-1 when unlimited).
  /// Computed once before a parallel loop so the allowance does not
  /// depend on execution order.
  i64 task_allowance(std::size_t tasks) const;

  /// A child budget with `fuel_allowance` fuel, the same absolute
  /// deadline, the same injection table, and fresh operation counters.
  Budget make_task_budget(i64 fuel_allowance) const;

  /// Merge a finished task budget back: deduct its spend from this
  /// account (saturating at zero -- never throws) and accumulate its
  /// fault count.
  void absorb(const Budget& task);

 private:
  Budget() = default;

  [[noreturn]] void fault(BudgetSite site, BudgetExceeded::Kind kind,
                          i64 ordinal);
  [[noreturn]] static void hard_abort(BudgetSite site, i64 ordinal);
  void check_deadline(BudgetSite site);

  i64 fuel_ = -1;
  i64 spent_ = 0;
  i64 faults_ = 0;
  i64 tick_ = 0;  // charges since the last deadline check
  bool limited_ = false;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  std::vector<Injection> injections_;
  std::array<i64, kNumBudgetSites> ops_{};
};

/// The budget governing the calling thread (nullptr: unlimited).
Budget* current_budget();

/// True when a budget is installed and actually limits something. Gates
/// behavior changes (e.g. the solve-cache bypass) so unbudgeted runs stay
/// byte-identical.
bool budget_limited();

/// RAII: install `budget` as the calling thread's current budget (may be
/// nullptr to suspend); restores the previous budget on destruction. Pool
/// tasks start with none (support/context.h).
class BudgetScope {
 public:
  explicit BudgetScope(Budget* budget);
  ~BudgetScope();
  BudgetScope(const BudgetScope&) = delete;
  BudgetScope& operator=(const BudgetScope&) = delete;

 private:
  Budget* previous_;
};

/// RAII: suspend budgeting for a must-complete region (codegen, the
/// verifier, the linter, identity-schedule fallbacks). A conservative
/// solver answer inside a *checker* would fabricate violations, so those
/// regions always run exact.
class BudgetSuspend {
 public:
  BudgetSuspend();
  ~BudgetSuspend() = default;

 private:
  BudgetScope scope_;
};

/// Charge the calling thread's budget, if any.
inline void budget_charge(BudgetSite site, i64 n = 1) {
  if (Budget* b = current_budget()) b->charge(site, n);
}

/// Announce an operation on the calling thread's budget, if any.
inline void budget_op(BudgetSite site) {
  if (Budget* b = current_budget()) b->op(site);
}

/// Announce an operation with an explicit deterministic ordinal.
inline void budget_op_at(BudgetSite site, i64 ordinal) {
  if (Budget* b = current_budget()) b->op_at(site, ordinal);
}

}  // namespace pf::support
