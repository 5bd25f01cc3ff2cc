#pragma once

// The centralized offline scheduler of SurfNet (paper Sec. V-A): build the
// LP relaxation of Eqs. (1)-(6), solve it with the simplex solver, round
// the fractional flows into integral per-code paths by flow decomposition,
// and greedily top the schedule up with any codes the rounding lost.
//
// The first solve starts from the formulation's crash basis, the min-noise
// in-tree of every request (RoutingFormulation::crash_rows), not from the
// slack basis: that basis is primal feasible and already holds the node
// potentials an optimal basis needs, so the primal simplex only routes
// flow. After it and a rounding pass, the router re-solves the LP on the
// residual problem — request limits tightened to the codes still
// unscheduled, capacity right-hand sides to what the committed codes left —
// and rounds again. The problem keeps its shape across these re-solves, so
// the SimplexState of the previous solve warm-starts each of them; the
// shrink leaves that basis dual feasible, and the solver's dual phase
// re-optimizes it in a few pivots.
//
// When the LP cannot be solved (a numerical failure: the relaxation is
// always feasible and bounded), route() counts "route.greedy_fallbacks"
// and returns the standalone greedy scheduler's schedule (routing/greedy.h)
// instead of executing nothing.

#include "netsim/schedule.h"
#include "netsim/topology.h"
#include "routing/formulation.h"
#include "routing/simplex.h"
#include "util/rng.h"

namespace surfnet::routing {

struct RouteResult {
  netsim::Schedule schedule;
  LpStatus status = LpStatus::Infeasible;
  double lp_objective = 0.0;  ///< relaxed optimum (upper-bounds throughput)
  int resolves = 0;           ///< warm re-solves after the first solve
  /// Simplex iterations of the first solve, which starts from the crash
  /// basis rather than cold.
  long cold_iterations = 0;
  long warm_iterations = 0;   ///< total iterations across warm re-solves
  bool greedy_fallback = false;  ///< the LP failed; schedule is greedy's
};

/// Route `requests` over `topology` with LP relaxation + rounding.
/// `params.dual_channel` selects the SurfNet formulation or the Raw
/// baseline formulation.
RouteResult route(const netsim::Topology& topology,
                  const std::vector<netsim::Request>& requests,
                  const RoutingParams& params, util::Rng& rng);

}  // namespace surfnet::routing
