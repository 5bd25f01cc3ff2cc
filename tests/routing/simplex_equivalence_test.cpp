#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "netsim/schedule.h"
#include "netsim/topology.h"
#include "routing/formulation.h"
#include "routing/simplex.h"
#include "support/dense_simplex.h"
#include "util/rng.h"

// The sparse revised simplex must be a drop-in replacement for the dense
// tableau it displaced: same LpStatus on every problem, objectives within
// 1e-6 whenever both report Optimal. The dense path carries a deterministic
// 1e-7 anti-degeneracy perturbation, so exact variable values may differ
// (alternate optima); only status and objective are contractual.

namespace surfnet::routing {
namespace {

/// `sparse`, a solve of `lp`, against the dense oracle: same status and,
/// when Optimal, the same objective within `tolerance` at a feasible point.
void expect_matches_dense(const LpProblem& lp, const LpSolution& sparse,
                          const std::string& label, double tolerance = 1e-6) {
  const LpSolution dense = solve_lp_dense(lp);
  ASSERT_EQ(sparse.status, dense.status) << label;
  if (sparse.status != LpStatus::Optimal) return;
  EXPECT_NEAR(sparse.objective, dense.objective, tolerance) << label;
  // The sparse point must itself be feasible.
  for (int r = 0; r < lp.num_rows(); ++r) {
    const auto cols = lp.row_cols(r);
    const auto coeffs = lp.row_coeffs(r);
    double lhs = 0.0;
    for (std::size_t t = 0; t < cols.size(); ++t)
      lhs += coeffs[t] * sparse.x[static_cast<std::size_t>(cols[t])];
    switch (lp.row_type(r)) {
      case ConstraintType::LessEqual:
        EXPECT_LE(lhs, lp.rhs(r) + 1e-5) << label << " row " << r;
        break;
      case ConstraintType::GreaterEqual:
        EXPECT_GE(lhs, lp.rhs(r) - 1e-5) << label << " row " << r;
        break;
      case ConstraintType::Equal:
        EXPECT_NEAR(lhs, lp.rhs(r), 1e-5) << label << " row " << r;
        break;
    }
  }
  for (int v = 0; v < lp.num_vars(); ++v) {
    EXPECT_GE(sparse.x[static_cast<std::size_t>(v)], -1e-6);
    EXPECT_LE(sparse.x[static_cast<std::size_t>(v)],
              lp.upper_bound(v) + 1e-5);
  }
}

void expect_equivalent(const LpProblem& lp, const std::string& label) {
  expect_matches_dense(lp, solve_lp(lp), label);
}

TEST(SimplexEquivalence, RandomMixedConstraintProblems) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 120; ++trial) {
    LpProblem lp;
    const int nv = 2 + static_cast<int>(rng.below(8));
    for (int v = 0; v < nv; ++v) {
      const double ub =
          rng.bernoulli(0.7) ? rng.uniform(0.5, 6.0) : LpProblem::kInfinity;
      lp.add_variable(rng.uniform(-1.0, 2.0), ub);
    }
    const int rows = 1 + static_cast<int>(rng.below(8));
    for (int r = 0; r < rows; ++r) {
      // Mostly <= capacities (keeps the origin feasible often enough that
      // both Optimal and Infeasible outcomes are exercised), with a mix of
      // >= floors and = couplings.
      ConstraintType type = ConstraintType::LessEqual;
      const double roll = rng.uniform(0.0, 1.0);
      if (roll > 0.85)
        type = ConstraintType::Equal;
      else if (roll > 0.7)
        type = ConstraintType::GreaterEqual;
      lp.begin_constraint(type, rng.uniform(0.5, 8.0));
      int terms = 0;
      for (int v = 0; v < nv; ++v)
        if (rng.bernoulli(0.6)) {
          lp.add_term(v, rng.uniform(0.1, 2.0));
          ++terms;
        }
      if (terms == 0) lp.add_term(0, 1.0);
    }
    expect_equivalent(lp, "trial " + std::to_string(trial));
  }
}

TEST(SimplexEquivalence, RandomProblemsWithNegativeCoefficients) {
  // Negative coefficients produce negative effective RHS after folding and
  // exercise the phase-1 repair path of the sparse solver.
  util::Rng rng(777);
  int optimal = 0;
  for (int trial = 0; trial < 80; ++trial) {
    LpProblem lp;
    const int nv = 2 + static_cast<int>(rng.below(5));
    for (int v = 0; v < nv; ++v)
      lp.add_variable(rng.uniform(-1.5, 1.5), rng.uniform(1.0, 4.0));
    const int rows = 1 + static_cast<int>(rng.below(5));
    for (int r = 0; r < rows; ++r) {
      const ConstraintType type = rng.bernoulli(0.5)
                                      ? ConstraintType::LessEqual
                                      : ConstraintType::GreaterEqual;
      lp.begin_constraint(type, rng.uniform(-3.0, 3.0));
      int terms = 0;
      for (int v = 0; v < nv; ++v)
        if (rng.bernoulli(0.6)) {
          lp.add_term(v, rng.uniform(-2.0, 2.0));
          ++terms;
        }
      if (terms == 0) lp.add_term(0, 1.0);
    }
    const LpSolution sparse = solve_lp(lp);
    if (sparse.status == LpStatus::Optimal) ++optimal;
    expect_equivalent(lp, "trial " + std::to_string(trial));
  }
  EXPECT_GT(optimal, 10);  // the suite must not be vacuously infeasible
}

/// Random packing LP: LE rows with positive coefficients and right-hand
/// sides (the origin is feasible), mixed-sign costs, finite upper bounds,
/// and a last column, the probe, that only consumes capacity at a cost:
/// its optimal reduced cost is <= -1, so it ends nonbasic at zero.
LpProblem random_packing_lp(util::Rng& rng) {
  LpProblem lp;
  const int nv = 3 + static_cast<int>(rng.below(8));
  for (int v = 0; v < nv; ++v)
    lp.add_variable(rng.uniform(-0.5, 2.0), rng.uniform(1.0, 6.0));
  const int probe = lp.add_variable(-1.0);
  const int rows = 2 + static_cast<int>(rng.below(7));
  for (int r = 0; r < rows; ++r) {
    lp.begin_constraint(ConstraintType::LessEqual, rng.uniform(2.0, 9.0));
    for (int v = 0; v < nv; ++v)
      if (rng.bernoulli(0.6)) lp.add_term(v, rng.uniform(0.1, 2.0));
    lp.add_term(probe, 1.0);
  }
  return lp;
}

/// Cut every right-hand side and finite upper bound to a random fraction:
/// the origin stays feasible, the previous optimum often does not.
void shrink(LpProblem& lp, util::Rng& rng) {
  for (int r = 0; r < lp.num_rows(); ++r)
    lp.set_rhs(r, lp.rhs(r) * rng.uniform(0.2, 0.9));
  for (int v = 0; v < lp.num_vars(); ++v)
    if (std::isfinite(lp.upper_bound(v)))
      lp.set_upper_bound(v, lp.upper_bound(v) * rng.uniform(0.2, 0.9));
}

TEST(SimplexEquivalence, DualReSolveAfterFeasibleShrinkMatchesColdAndDense) {
  // A shrink keeps the optimal basis dual feasible, so the warm re-solve
  // runs the dual phase; it must land on the cold solve's and the dense
  // oracle's optimum.
  util::Rng rng(4242);
  long dual_pivots = 0;
  for (int trial = 0; trial < 150; ++trial) {
    LpProblem lp = random_packing_lp(rng);
    SimplexState state;
    ASSERT_EQ(solve_lp(lp, state).status, LpStatus::Optimal);
    shrink(lp, rng);
    const LpSolution warm = solve_lp(lp, state);
    const LpSolution cold = solve_lp(lp);
    const std::string label = "trial " + std::to_string(trial);
    ASSERT_EQ(warm.status, LpStatus::Optimal) << label;
    EXPECT_TRUE(warm.warm_started) << label;
    EXPECT_LE(warm.dual_iterations, warm.iterations) << label;
    EXPECT_NEAR(warm.objective, cold.objective, 1e-6) << label;
    expect_matches_dense(lp, warm, label);
    dual_pivots += warm.dual_iterations;
  }
  EXPECT_GT(dual_pivots, 0);
}

TEST(SimplexEquivalence, DualReSolveDetectsShrinkToInfeasible) {
  // A >= floor no variable can meet once every upper bound drops to zero:
  // the dual phase runs out of entering columns and the primal phase 1
  // must report the problem infeasible, as the cold and dense solves do.
  util::Rng rng(99);
  long dual_pivots = 0;
  for (int trial = 0; trial < 60; ++trial) {
    LpProblem lp = random_packing_lp(rng);
    lp.begin_constraint(ConstraintType::GreaterEqual, 0.5);
    for (int v = 0; v < lp.num_vars(); ++v) lp.add_term(v, 1.0);
    SimplexState state;
    ASSERT_EQ(solve_lp(lp, state).status, LpStatus::Optimal);
    for (int v = 0; v < lp.num_vars(); ++v) lp.set_upper_bound(v, 0.0);
    const LpSolution warm = solve_lp(lp, state);
    const std::string label = "trial " + std::to_string(trial);
    EXPECT_EQ(warm.status, LpStatus::Infeasible) << label;
    EXPECT_TRUE(warm.warm_started) << label;
    EXPECT_EQ(solve_lp(lp).status, LpStatus::Infeasible) << label;
    expect_matches_dense(lp, warm, label);
    dual_pivots += warm.dual_iterations;
  }
  EXPECT_GT(dual_pivots, 0);
}

TEST(SimplexEquivalence, DualInfeasibleWarmBasisSkipsTheDualPhase) {
  // Raising the probe's cost far above any dual price makes the saved
  // basis dual infeasible: the re-solve must make no dual pivot and still
  // reach the cold and dense optimum. Its twin, the same shrink with the
  // costs left alone, shows that the basis was primal infeasible.
  util::Rng rng(31337);
  int primal_infeasible = 0;
  for (int trial = 0; trial < 120; ++trial) {
    LpProblem lp = random_packing_lp(rng);
    SimplexState state;
    ASSERT_EQ(solve_lp(lp, state).status, LpStatus::Optimal);
    shrink(lp, rng);
    SimplexState twin_state = state;
    if (solve_lp(lp, twin_state).dual_iterations > 0) ++primal_infeasible;

    lp.set_objective(lp.num_vars() - 1, 100.0);
    const LpSolution warm = solve_lp(lp, state);
    const std::string label = "trial " + std::to_string(trial);
    ASSERT_EQ(warm.status, LpStatus::Optimal) << label;
    EXPECT_TRUE(warm.warm_started) << label;
    EXPECT_EQ(warm.dual_iterations, 0) << label;
    EXPECT_NEAR(warm.objective, solve_lp(lp).objective,
                1e-9 * std::abs(warm.objective))
        << label;
    // The probe's cost scales the dense oracle's 1e-7 anti-degeneracy
    // perturbation of each right-hand side.
    expect_matches_dense(lp, warm, label, 1e-6 * std::abs(warm.objective));
  }
  EXPECT_GT(primal_infeasible, 0);
}

TEST(SimplexEquivalence, RoutingFormulationsMatchDense) {
  // Seed-scale routing LPs: the exact problem family the solver exists
  // for, both the SurfNet dual-channel formulation and the Raw baseline.
  for (const std::uint64_t seed : {7ULL, 21ULL, 63ULL}) {
    netsim::TopologySpec spec;
    spec.num_nodes = 16;
    spec.num_servers = 2;
    spec.num_switches = 5;
    spec.storage_capacity = 100;
    spec.entanglement_capacity = 30;
    util::Rng rng(seed);
    const auto topo = netsim::make_random_topology(spec, rng);
    const auto requests = netsim::random_requests(topo, 4, 3, rng);

    for (const bool dual : {true, false}) {
      RoutingParams params;
      params.dual_channel = dual;
      const RoutingFormulation formulation(topo, requests, params);
      expect_equivalent(formulation.problem(),
                        "seed " + std::to_string(seed) +
                            (dual ? " dual" : " raw"));
    }
  }
}

}  // namespace
}  // namespace surfnet::routing
