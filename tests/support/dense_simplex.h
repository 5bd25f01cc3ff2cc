#pragma once

// Dense two-phase tableau simplex — the original SurfNet LP core, kept as
// the reference implementation the sparse revised solver (routing/simplex)
// is validated against. It is a test oracle, not library code: the
// surfnet_test_oracles target (tests/CMakeLists.txt) builds it for
// routing_tests and bench_ablation_routing only. The algorithm is
// unchanged: phase 1 drives artificial variables to zero, phase 2
// optimizes the real objective with Dantzig pricing and a Bland's-rule
// fallback, upper bounds materialize as explicit rows, and inequality
// right-hand sides carry a tiny deterministic anti-degeneracy
// perturbation.
//
// The equivalence tests assert that both solvers agree on LpStatus and on
// the objective within 1e-6; bench_ablation_routing times the two against
// each other, so the dense path accepts a wall-clock budget — on the
// large sweep points it would otherwise run for hours.

#include "routing/simplex.h"

namespace surfnet::routing {

struct DenseSolveOptions {
  /// Wall-clock budget in milliseconds; 0 = unlimited. Exceeding it ends
  /// the solve with LpStatus::IterationLimit.
  double max_millis = 0.0;
};

LpSolution solve_lp_dense(const LpProblem& problem,
                          const DenseSolveOptions& options = {});

}  // namespace surfnet::routing
