#pragma once

// The single-code greedy planner as it was before routing/greedy.cpp
// de-duplicated its detour legs and memoised fiber noise: one Dijkstra per
// (server, other) leg and std::log on every relaxation. It is a test
// oracle, not library code: routing_tests checks the shipped plan_code
// against it bitwise, and the greedy-first ladder oracle
// (support/greedy_first_router.h) plans with it.

#include <optional>

#include "netsim/topology.h"
#include "routing/greedy.h"

namespace surfnet::routing {

/// plan_code's pre-memo algorithm: the same contract and, on every input,
/// the same PlannedCode.
std::optional<PlannedCode> reference_plan_code(
    const netsim::Topology& topology, const CapacityTracker& tracker,
    const RoutingParams& params, int src, int dst);

}  // namespace surfnet::routing
