#include "routing/simplex.h"

#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace surfnet::routing {
namespace {

TEST(Simplex, SimpleTwoVariableMaximum) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4, y=0, obj=12.
  LpProblem lp;
  const int x = lp.add_variable(3.0);
  const int y = lp.add_variable(2.0);
  lp.add_constraint({{{x, 1.0}, {y, 1.0}}, ConstraintType::LessEqual, 4.0});
  lp.add_constraint({{{x, 1.0}, {y, 3.0}}, ConstraintType::LessEqual, 6.0});
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.objective, 12.0, 1e-5);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(x)], 4.0, 1e-5);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(y)], 0.0, 1e-5);
}

TEST(Simplex, InteriorOptimum) {
  // max x + y s.t. 2x + y <= 4, x + 2y <= 4 -> x=y=4/3, obj=8/3.
  LpProblem lp;
  const int x = lp.add_variable(1.0);
  const int y = lp.add_variable(1.0);
  lp.add_constraint({{{x, 2.0}, {y, 1.0}}, ConstraintType::LessEqual, 4.0});
  lp.add_constraint({{{x, 1.0}, {y, 2.0}}, ConstraintType::LessEqual, 4.0});
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.objective, 8.0 / 3.0, 1e-5);
}

TEST(Simplex, EqualityConstraint) {
  // max x + 2y s.t. x + y = 3, y <= 2 -> x=1, y=2, obj=5.
  LpProblem lp;
  const int x = lp.add_variable(1.0);
  const int y = lp.add_variable(2.0, 2.0);
  lp.add_constraint({{{x, 1.0}, {y, 1.0}}, ConstraintType::Equal, 3.0});
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.objective, 5.0, 1e-5);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(x)], 1.0, 1e-5);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(y)], 2.0, 1e-5);
}

TEST(Simplex, GreaterEqualConstraint) {
  // max -x s.t. x >= 2  ->  x = 2 (minimize x with a floor).
  LpProblem lp;
  const int x = lp.add_variable(-1.0);
  lp.add_constraint({{{x, 1.0}}, ConstraintType::GreaterEqual, 2.0});
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(x)], 2.0, 1e-5);
}

TEST(Simplex, DetectsInfeasible) {
  LpProblem lp;
  const int x = lp.add_variable(1.0);
  lp.add_constraint({{{x, 1.0}}, ConstraintType::LessEqual, 1.0});
  lp.add_constraint({{{x, 1.0}}, ConstraintType::GreaterEqual, 2.0});
  EXPECT_EQ(solve_lp(lp).status, LpStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  LpProblem lp;
  const int x = lp.add_variable(1.0);
  lp.add_constraint({{{x, -1.0}}, ConstraintType::LessEqual, 1.0});
  EXPECT_EQ(solve_lp(lp).status, LpStatus::Unbounded);
}

TEST(Simplex, UpperBoundsAreRespected) {
  LpProblem lp;
  const int x = lp.add_variable(1.0, 2.5);
  const int y = lp.add_variable(1.0, 1.5);
  lp.add_constraint({{{x, 1.0}, {y, 1.0}}, ConstraintType::LessEqual, 10.0});
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(x)], 2.5, 1e-5);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(y)], 1.5, 1e-5);
}

TEST(Simplex, ZeroObjectiveIsFeasibilityCheck) {
  LpProblem lp;
  const int x = lp.add_variable(0.0);
  lp.add_constraint({{{x, 1.0}}, ConstraintType::Equal, 7.0});
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(x)], 7.0, 1e-5);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Many redundant constraints through the same vertex.
  LpProblem lp;
  const int x = lp.add_variable(1.0);
  const int y = lp.add_variable(1.0);
  for (int i = 0; i < 30; ++i)
    lp.add_constraint(
        {{{x, 1.0 + i * 0.0}, {y, 1.0}}, ConstraintType::LessEqual, 2.0});
  lp.add_constraint({{{x, 1.0}}, ConstraintType::LessEqual, 2.0});
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.objective, 2.0, 1e-4);
}

TEST(Simplex, RandomProblemsSatisfyConstraints) {
  // Property: on random bounded-feasible LPs the returned point satisfies
  // every constraint and achieves at least the objective of the origin.
  util::Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    LpProblem lp;
    const int nv = 2 + static_cast<int>(rng.below(6));
    for (int v = 0; v < nv; ++v)
      lp.add_variable(rng.uniform(-1.0, 2.0), rng.uniform(0.5, 5.0));
    const int rows = 1 + static_cast<int>(rng.below(6));
    for (int r = 0; r < rows; ++r) {
      Constraint c;
      for (int v = 0; v < nv; ++v)
        if (rng.bernoulli(0.7))
          c.terms.emplace_back(v, rng.uniform(0.1, 2.0));
      if (c.terms.empty()) c.terms.emplace_back(0, 1.0);
      c.type = ConstraintType::LessEqual;
      c.rhs = rng.uniform(1.0, 8.0);
      lp.add_constraint(std::move(c));
    }
    const auto sol = solve_lp(lp);
    ASSERT_EQ(sol.status, LpStatus::Optimal) << "trial " << trial;
    for (int r = 0; r < lp.num_rows(); ++r) {
      const auto cols = lp.row_cols(r);
      const auto coeffs = lp.row_coeffs(r);
      double lhs = 0.0;
      for (std::size_t t = 0; t < cols.size(); ++t)
        lhs += coeffs[t] * sol.x[static_cast<std::size_t>(cols[t])];
      EXPECT_LE(lhs, lp.rhs(r) + 1e-5) << "trial " << trial;
    }
    for (int v = 0; v < nv; ++v) {
      EXPECT_GE(sol.x[static_cast<std::size_t>(v)], -1e-6);
      EXPECT_LE(sol.x[static_cast<std::size_t>(v)], lp.upper_bound(v) + 1e-5);
    }
    EXPECT_GE(sol.objective, -1e-6);  // origin is feasible with objective 0
  }
}

TEST(Simplex, RejectsMalformedProblems) {
  LpProblem lp;
  lp.add_variable(1.0);
  // Terms may only be added to an open constraint...
  EXPECT_THROW(lp.add_term(0, 1.0), std::logic_error);
  // ...and must reference existing variables.
  lp.begin_constraint(ConstraintType::LessEqual, 1.0);
  EXPECT_THROW(lp.add_term(5, 1.0), std::invalid_argument);
  EXPECT_THROW(lp.add_term(-1, 1.0), std::invalid_argument);

  LpProblem lp2;
  const int x = lp2.add_variable(1.0);
  (void)x;
  EXPECT_THROW(
      lp2.add_constraint({{{5, 1.0}}, ConstraintType::LessEqual, 1.0}),
      std::invalid_argument);
}

TEST(Simplex, NoConstraintsUsesBoundsOnly) {
  // With no rows the optimum is read straight off the bounds.
  LpProblem lp;
  const int x = lp.add_variable(2.0, 3.0);
  const int y = lp.add_variable(-1.0, 5.0);
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(x)], 3.0, 1e-7);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(y)], 0.0, 1e-7);
  EXPECT_NEAR(sol.objective, 6.0, 1e-7);
}

TEST(Simplex, NoConstraintsUnboundedVariable) {
  LpProblem lp;
  lp.add_variable(1.0);  // no upper bound, no rows
  EXPECT_EQ(solve_lp(lp).status, LpStatus::Unbounded);
}

TEST(Simplex, FixedVariablesStayFixed) {
  // ub = 0 pins a variable at zero even with a positive objective.
  LpProblem lp;
  const int x = lp.add_variable(5.0, 0.0);
  const int y = lp.add_variable(1.0, 2.0);
  lp.begin_constraint(ConstraintType::LessEqual, 10.0);
  lp.add_term(x, 1.0);
  lp.add_term(y, 1.0);
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(x)], 0.0, 1e-9);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(y)], 2.0, 1e-7);
}

TEST(Simplex, NegativeUpperBoundIsInfeasible) {
  LpProblem lp;
  lp.add_variable(1.0, -1.0);
  EXPECT_EQ(solve_lp(lp).status, LpStatus::Infeasible);
}

TEST(Simplex, BealeCyclingExampleTerminates) {
  // Beale's classic cycling LP: Dantzig pricing with a naive ratio test
  // cycles forever on this problem; the Bland fallback must engage and
  // terminate at the optimum (0.05).
  LpProblem lp;
  const int x1 = lp.add_variable(0.75);
  const int x2 = lp.add_variable(-150.0);
  const int x3 = lp.add_variable(0.02);
  const int x4 = lp.add_variable(-6.0);
  lp.begin_constraint(ConstraintType::LessEqual, 0.0);
  lp.add_term(x1, 0.25);
  lp.add_term(x2, -60.0);
  lp.add_term(x3, -0.04);
  lp.add_term(x4, 9.0);
  lp.begin_constraint(ConstraintType::LessEqual, 0.0);
  lp.add_term(x1, 0.5);
  lp.add_term(x2, -90.0);
  lp.add_term(x3, -0.02);
  lp.add_term(x4, 3.0);
  lp.begin_constraint(ConstraintType::LessEqual, 1.0);
  lp.add_term(x3, 1.0);
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.objective, 0.05, 1e-6);
}

TEST(Simplex, DuplicateTermsAccumulate) {
  // The same variable twice in one row must behave as the summed coeff.
  LpProblem lp;
  const int x = lp.add_variable(1.0);
  lp.begin_constraint(ConstraintType::LessEqual, 6.0);
  lp.add_term(x, 1.0);
  lp.add_term(x, 2.0);
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(x)], 2.0, 1e-7);
}

TEST(Simplex, WarmRestartUsesFewerIterations) {
  // Re-solving after a small RHS change from the saved basis must cost
  // fewer iterations than the cold solve of the same problem.
  util::Rng rng(1234);
  LpProblem lp;
  const int nv = 12;
  for (int v = 0; v < nv; ++v)
    lp.add_variable(rng.uniform(0.5, 2.0), rng.uniform(2.0, 6.0));
  for (int r = 0; r < 10; ++r) {
    lp.begin_constraint(ConstraintType::LessEqual, rng.uniform(3.0, 9.0));
    for (int v = 0; v < nv; ++v)
      if (rng.bernoulli(0.5)) lp.add_term(v, rng.uniform(0.1, 1.5));
  }

  SimplexState state;
  const auto cold = solve_lp(lp, state);
  ASSERT_EQ(cold.status, LpStatus::Optimal);
  EXPECT_FALSE(cold.warm_started);
  ASSERT_TRUE(state.valid());

  for (int r = 0; r < lp.num_rows(); ++r)
    lp.set_rhs(r, lp.rhs(r) * 0.9);  // shrink every capacity by 10%
  const auto warm = solve_lp(lp, state);
  ASSERT_EQ(warm.status, LpStatus::Optimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_LT(warm.iterations, cold.iterations);

  // The warm solution must match a cold re-solve of the modified problem.
  const auto cold2 = solve_lp(lp);
  ASSERT_EQ(cold2.status, LpStatus::Optimal);
  EXPECT_NEAR(warm.objective, cold2.objective, 1e-6);
}

TEST(Simplex, UnchangedProblemResolvesInstantly) {
  LpProblem lp;
  const int x = lp.add_variable(3.0);
  const int y = lp.add_variable(2.0);
  lp.add_constraint({{{x, 1.0}, {y, 1.0}}, ConstraintType::LessEqual, 4.0});
  lp.add_constraint({{{x, 1.0}, {y, 3.0}}, ConstraintType::LessEqual, 6.0});
  SimplexState state;
  const auto cold = solve_lp(lp, state);
  ASSERT_EQ(cold.status, LpStatus::Optimal);
  const auto warm = solve_lp(lp, state);
  ASSERT_EQ(warm.status, LpStatus::Optimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.iterations, 0);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
}

TEST(Simplex, MismatchedStateFallsBackToColdStart) {
  LpProblem small;
  const int x = small.add_variable(1.0, 1.0);
  (void)x;
  SimplexState state;
  ASSERT_EQ(solve_lp(small, state).status, LpStatus::Optimal);

  // Same state against a differently-shaped problem: must not warm-start,
  // must still solve correctly, and must overwrite the stale state.
  LpProblem big;
  const int a = big.add_variable(3.0);
  const int b = big.add_variable(2.0);
  big.add_constraint({{{a, 1.0}, {b, 1.0}}, ConstraintType::LessEqual, 4.0});
  const auto sol = solve_lp(big, state);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_FALSE(sol.warm_started);
  EXPECT_NEAR(sol.objective, 12.0, 1e-6);
  EXPECT_EQ(state.num_rows, big.num_rows());
}

/// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x - y = 1 (optimum x = 2.25,
/// y = 1.25, objective 9.25), for the crash-basis tests.
LpProblem crash_fixture() {
  LpProblem lp;
  const int x = lp.add_variable(3.0);
  const int y = lp.add_variable(2.0);
  lp.add_constraint({{{x, 1.0}, {y, 1.0}}, ConstraintType::LessEqual, 4.0});
  lp.add_constraint({{{x, 1.0}, {y, 3.0}}, ConstraintType::LessEqual, 6.0});
  lp.add_constraint({{{x, 1.0}, {y, -1.0}}, ConstraintType::Equal, 1.0});
  return lp;
}

TEST(Simplex, CrashBasisInstallsAsWarmStart) {
  const LpProblem lp = crash_fixture();
  const std::vector<int> rows = {1, -1, 0};  // y in row 0, x in row 2
  SimplexState state = basis_from_rows(lp, rows);
  ASSERT_TRUE(state.valid());
  EXPECT_EQ(state.num_rows, lp.num_rows());
  const auto sol = solve_lp(lp, state);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_TRUE(sol.warm_started);
  EXPECT_NEAR(sol.objective, 9.25, 1e-9);
  EXPECT_NEAR(sol.objective, solve_lp(lp).objective, 1e-9);
}

TEST(Simplex, SingularCrashBasisFallsBackToSlackStart) {
  // x and z have identical columns, so a basis holding both is singular.
  LpProblem lp;
  const int x = lp.add_variable(1.0, 3.0);
  const int z = lp.add_variable(1.0, 3.0);
  lp.add_constraint({{{x, 1.0}, {z, 1.0}}, ConstraintType::LessEqual, 4.0});
  lp.add_constraint({{{x, 2.0}, {z, 2.0}}, ConstraintType::LessEqual, 9.0});
  SimplexState state = basis_from_rows(lp, std::vector<int>{x, z});
  const auto sol = solve_lp(lp, state);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_FALSE(sol.warm_started);
  EXPECT_NEAR(sol.objective, 4.0, 1e-9);
}

/// basis_from_rows(lp, rows) must throw std::invalid_argument whose
/// message names the fault.
void expect_basis_error(const LpProblem& lp, const std::vector<int>& rows,
                        const std::string& fault) {
  try {
    (void)basis_from_rows(lp, rows);
    ADD_FAILURE() << "no error for " << fault;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(fault), std::string::npos)
        << e.what();
  }
}

TEST(Simplex, BasisFromRowsRejectsMalformedRows) {
  const LpProblem lp = crash_fixture();
  expect_basis_error(lp, {0, -1}, "one entry per row");
  expect_basis_error(lp, {0, -1, 1, -1}, "one entry per row");
  expect_basis_error(lp, {2, -1, -1}, "out of range");
  expect_basis_error(lp, {-2, -1, -1}, "out of range");
  expect_basis_error(lp, {1, -1, 1}, "in two rows");
}

}  // namespace
}  // namespace surfnet::routing
