// Schedule analyses that are independent of how the schedule was found:
//
//  * identity_schedule(): the original program order as a Schedule in
//    2d+1 form (scalar sibling positions interleaved with the original
//    loop iterators). This is the "icc-like baseline" schedule (the paper
//    observes the Intel compiler largely keeps the original order on the
//    large programs) and the reference executor used for validation.
//
//  * annotate_dependences(): (re)compute satisfaction levels and carried
//    sets for an arbitrary schedule -- exactly the bookkeeping the
//    scheduler produces for its own schedules -- so parallelism queries
//    work on hand-built or identity schedules too.
#pragma once

#include "ddg/dependences.h"
#include "sched/schedule.h"

namespace pf::sched {

/// Build the original-order schedule (2d+1 form, padded so every
/// statement has the same number of levels).
Schedule identity_schedule(const ir::Scop& scop);

/// Fill satisfied_at / carried_at / dep_endpoints for `sch` from scratch.
/// Throws if the schedule does not satisfy every real dependence (i.e. is
/// illegal).
void annotate_dependences(Schedule& sch, const ddg::DependenceGraph& dg);

/// Maximal permutable bands of the schedule's linear levels: returns one
/// band id per linear-level ordinal (outermost first). Two consecutive
/// linear levels share a band iff no scalar level separates them and every
/// dependence satisfied at a level inside the band keeps a non-negative
/// distance component at the deeper level -- the legality condition for
/// rectangular tiling (and for loop interchange within the band).
std::vector<std::size_t> permutable_bands(const Schedule& sch,
                                          const ddg::DependenceGraph& dg);

}  // namespace pf::sched
