// The fusion models compared in the paper (Table 1), as FusionPolicy
// implementations for the Pluto-style scheduler:
//
//   wisefuse   -- the paper's contribution. Pre-fusion schedule from
//                 Algorithm 1 (reuse- and dimensionality-aware, program
//                 order, RAR-aware), dimensionality-based cuts, plus
//                 Algorithm 2 (outer-parallelism enforcement).
//   smartfuse  -- Pluto's default: DFS/topological SCC order, cut between
//                 SCCs of different dimensionality when stuck, escalate to
//                 full distribution.
//   nofuse     -- every SCC in its own loop nest from the start.
//   maxfuse    -- fuse greedily; when stuck, insert the smallest cut (one
//                 boundary) that satisfies some dependence.
//
// Wisefuse's Algorithm 1 heuristics can be individually disabled through
// WisefuseOptions; fusion_test checks each one's effect on gemsfdtd.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "sched/pluto.h"
#include "sched/policy.h"

namespace pf::fusion {

enum class FusionModel { kWisefuse, kSmartfuse, kNofuse, kMaxfuse };

const char* to_string(FusionModel m);

/// Quantitative profitability feed for the fusion remark channel: the
/// distinct array cells statements `s` and `t` both touch, -1 when
/// unknown. With one given (the --analyze pass passes its
/// LocalityReport), wisefuse's per-candidate decision remarks carry the
/// exact number of cells the candidate shares with the fusable set --
/// *why* fusion pays -- alongside the reuse-pair score the heuristic
/// itself uses. Purely observational: the oracle never changes a fusion
/// decision, so schedules are identical with or without it.
using ProfitabilityOracle = std::function<i64(std::size_t s, std::size_t t)>;

/// Ablation switches for wisefuse (paper Section 4.1 heuristics), plus
/// the optional profitability oracle its remarks consult.
struct WisefuseOptions {
  /// Consider input (RAR) dependences as reuse when ordering SCCs.
  bool use_rar = true;
  /// Heuristic 1: only order SCCs consecutively if dimensionality matches.
  bool require_same_dim = true;
  /// Heuristic 2: scan candidates in original program order (false falls
  /// back to the DFS/topological order, i.e. no reordering at all).
  bool reorder = true;
  /// Algorithm 2: cut to preserve outer-level parallelism.
  bool enforce_outer_parallelism = true;
  /// Consulted only by the candidate remarks; empty = no shared_cells.
  ProfitabilityOracle oracle;
};

/// Create a policy implementing the given model.
std::unique_ptr<sched::FusionPolicy> make_policy(FusionModel m);

/// Wisefuse with explicit (possibly ablated) options.
std::unique_ptr<sched::FusionPolicy> make_wisefuse(const WisefuseOptions& o);

/// compute_schedule with the budget graceful-degradation chain: when a
/// fusion model's own work (the fusion_model budget site) runs out of
/// fuel or hits an injected fault, fall back along
///   wisefuse -> smartfuse -> nofuse,   maxfuse -> smartfuse -> nofuse,
/// and, should every model fail, to the always-legal identity schedule.
/// Other budget faults (lp_solve, fme_project, pluto_level) are already
/// recovered inside the scheduler and never reach the chain. Each
/// downgrade emits a "budget" remark and bumps budget_downgrades. With no
/// budget installed this is exactly make_policy + sched::compute_schedule.
/// `used` (optional) receives the model that produced the schedule, or is
/// left untouched on the identity fallback. `oracle` (optional) feeds
/// wisefuse's candidate remarks.
sched::Schedule compute_schedule_degrading(
    const ir::Scop& scop, const ddg::DependenceGraph& dg, FusionModel model,
    const sched::SchedulerOptions& options = {}, FusionModel* used = nullptr,
    const ProfitabilityOracle& oracle = {});

/// The pre-fusion schedule of wisefuse's Algorithm 1, exposed for tests
/// and Figure-5 style reporting: returns position -> scc id.
std::vector<std::size_t> wisefuse_prefusion_order(
    const ir::Scop& scop, const ddg::DependenceGraph& dg,
    const ddg::SccResult& sccs, const WisefuseOptions& options = {});

}  // namespace pf::fusion
