#include "support/budget.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "support/context.h"
#include "support/trace.h"
#include "support/metrics.h"
#include "support/strings.h"

namespace pf::support {
namespace {

// Deadline checks read the clock, so they run every kDeadlineStride
// charges rather than on each one; ops are coarse enough to check always.
constexpr i64 kDeadlineStride = 64;

Counter fuel_counter(BudgetSite site) {
  switch (site) {
    case BudgetSite::kLpSolve:
      return Counter::kBudgetFuelLpSolve;
    case BudgetSite::kFmeProject:
      return Counter::kBudgetFuelFmeProject;
    case BudgetSite::kDepPair:
      return Counter::kBudgetFuelDepPair;
    case BudgetSite::kPlutoLevel:
      return Counter::kBudgetFuelPlutoLevel;
    case BudgetSite::kFusionModel:
      return Counter::kBudgetFuelFusionModel;
    case BudgetSite::kJitCc:
      return Counter::kBudgetFuelJitCc;
    case BudgetSite::kCountSet:
      return Counter::kBudgetFuelCountSet;
    case BudgetSite::kAnalysisReductions:
      return Counter::kBudgetFuelReductions;
    case BudgetSite::kDiskcacheRead:   // cache I/O sites never charge fuel
    case BudgetSite::kDiskcacheWrite:  // (injection-only, see diskcache.h)
    case BudgetSite::kBatchRequest:    // batch requests never charge fuel
    case BudgetSite::kNumSites:
      break;
  }
  return Counter::kBudgetFuelLpSolve;
}

std::string exceeded_message(BudgetSite site, BudgetExceeded::Kind kind,
                             i64 ordinal) {
  std::ostringstream os;
  os << "budget exceeded at " << to_string(site) << ": ";
  switch (kind) {
    case BudgetExceeded::Kind::kFuel:
      os << "fuel exhausted";
      break;
    case BudgetExceeded::Kind::kDeadline:
      os << "deadline expired";
      break;
    case BudgetExceeded::Kind::kInjected:
      os << "injected fault (op #" << ordinal << ")";
      break;
  }
  return os.str();
}

}  // namespace

const char* to_string(BudgetSite site) {
  switch (site) {
    case BudgetSite::kLpSolve:
      return "lp_solve";
    case BudgetSite::kFmeProject:
      return "fme_project";
    case BudgetSite::kDepPair:
      return "dep_pair";
    case BudgetSite::kPlutoLevel:
      return "pluto_level";
    case BudgetSite::kFusionModel:
      return "fusion_model";
    case BudgetSite::kJitCc:
      return "jit_cc";
    case BudgetSite::kCountSet:
      return "count_set";
    case BudgetSite::kAnalysisReductions:
      return "analysis.reductions";
    case BudgetSite::kDiskcacheRead:
      return "diskcache.read";
    case BudgetSite::kDiskcacheWrite:
      return "diskcache.write";
    case BudgetSite::kBatchRequest:
      return "batch.request";
    case BudgetSite::kNumSites:
      break;
  }
  return "?";
}

std::optional<BudgetSite> budget_site_from_string(const std::string& name) {
  for (std::size_t i = 0; i < kNumBudgetSites; ++i) {
    const auto site = static_cast<BudgetSite>(i);
    if (name == to_string(site)) return site;
  }
  return std::nullopt;
}

BudgetExceeded::BudgetExceeded(BudgetSite site, Kind kind, i64 ordinal)
    : Error(exceeded_message(site, kind, ordinal)), site_(site), kind_(kind) {}

const char* BudgetExceeded::cause() const {
  switch (kind_) {
    case Kind::kFuel:
      return "fuel-exhausted";
    case Kind::kDeadline:
      return "deadline-expired";
    case Kind::kInjected:
      return "fault-injected";
  }
  return "?";
}

std::optional<Injection> parse_injection(const std::string& text,
                                         std::string* error) {
  const auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos)
    return fail("expected SITE:fail-after=K, got '" + text + "'");
  const std::string site_name = text.substr(0, colon);
  const auto site = budget_site_from_string(site_name);
  if (!site)
    return fail("unknown injection site '" + site_name +
                "' (expected lp_solve, fme_project, dep_pair, pluto_level, "
                "fusion_model, jit_cc, count_set, analysis.reductions, "
                "diskcache.read, diskcache.write, or batch.request)");
  const std::string rest = text.substr(colon + 1);
  const std::string soft_key = "fail-after=";
  const std::string hard_key = "abort-after=";
  const bool hard = rest.rfind(hard_key, 0) == 0;
  if (!hard && rest.rfind(soft_key, 0) != 0)
    return fail("expected 'fail-after=K' or 'abort-after=K' after the site "
                "name, got '" + rest + "'");
  const std::string value =
      rest.substr(hard ? hard_key.size() : soft_key.size());
  const auto ordinal = parse_i64(value);
  if (!ordinal || *ordinal < 0)
    return fail((hard ? std::string("abort-after")
                      : std::string("fail-after")) +
                " wants a non-negative integer, got '" + value + "'");
  return Injection{*site, *ordinal, hard};
}

Budget::Budget(const BudgetSpec& spec)
    : fuel_(spec.fuel < 0 ? -1 : spec.fuel),
      limited_(spec.limited()),
      injections_(spec.injections) {
  if (spec.deadline_ms >= 0)
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(spec.deadline_ms);
}

void Budget::charge(BudgetSite site, i64 n) {
  count(fuel_counter(site), n);
  spent_ += n;
  if (++tick_ >= kDeadlineStride) {
    tick_ = 0;
    check_deadline(site);
  }
  if (fuel_ >= 0) {
    if (fuel_ < n) {
      fuel_ = 0;
      fault(site, BudgetExceeded::Kind::kFuel, -1);
    }
    fuel_ -= n;
  }
}

void Budget::op(BudgetSite site) {
  op_at(site, ops_[static_cast<std::size_t>(site)]++);
}

void Budget::op_at(BudgetSite site, i64 ordinal) {
  check_deadline(site);
  for (const Injection& inj : injections_)
    if (inj.site == site && inj.fail_at == ordinal) {
      if (inj.hard) hard_abort(site, ordinal);
      fault(site, BudgetExceeded::Kind::kInjected, ordinal);
    }
}

i64 Budget::task_allowance(std::size_t tasks) const {
  if (fuel_ < 0) return -1;
  return fuel_ / static_cast<i64>(std::max<std::size_t>(tasks, 1));
}

Budget Budget::make_task_budget(i64 fuel_allowance) const {
  Budget task;
  task.fuel_ = fuel_allowance < 0 ? -1 : fuel_allowance;
  task.limited_ = limited_;
  task.deadline_ = deadline_;
  task.injections_ = injections_;
  return task;
}

void Budget::absorb(const Budget& task) {
  spent_ += task.spent_;
  faults_ += task.faults_;
  if (fuel_ >= 0) fuel_ = std::max<i64>(0, fuel_ - task.spent_);
}

void Budget::fault(BudgetSite site, BudgetExceeded::Kind kind, i64 ordinal) {
  ++faults_;
  count(kind == BudgetExceeded::Kind::kInjected
            ? Counter::kBudgetInjectedFaults
            : Counter::kBudgetExhaustions);
  const BudgetExceeded ex(site, kind, ordinal);
  record_event(flightrec::EventKind::kFault, to_string(site), ex.cause(),
               ordinal);
  throw ex;
}

void Budget::hard_abort(BudgetSite site, i64 ordinal) {
  // A hard injection simulates a real crash: leave a breadcrumb in the
  // ring, then die by SIGABRT so the installed crash handler (if any)
  // produces the same diagnostic a genuine fatal signal would.
  record_event(flightrec::EventKind::kFault, to_string(site),
               "abort-injected", ordinal);
  std::abort();
}

void Budget::check_deadline(BudgetSite site) {
  if (deadline_ && std::chrono::steady_clock::now() > *deadline_)
    fault(site, BudgetExceeded::Kind::kDeadline, -1);
}

Budget* current_budget() { return current_context().budget; }

bool budget_limited() {
  const Budget* b = current_budget();
  return b != nullptr && b->limited();
}

BudgetScope::BudgetScope(Budget* budget)
    : previous_(std::exchange(current_context().budget, budget)) {}

BudgetScope::~BudgetScope() { current_context().budget = previous_; }

BudgetSuspend::BudgetSuspend() : scope_(nullptr) {}

}  // namespace pf::support
