#pragma once

// Sparse revised simplex (primal, with a dual phase) for the SurfNet
// routing protocol (paper Sec. V-A): the integer program of Eqs. (1)-(6) is
// solved as its LP relaxation and rounded, exactly as the paper's
// evaluation does.
//
// The solver maximizes c^T x subject to mixed <= / >= / = constraints and
// 0 <= x <= u. Unlike the original dense tableau (kept as a test oracle in
// tests/support/dense_simplex.h, outside the library), the constraint
// matrix stays compressed-sparse end to end: rows are emitted in CSR form
// by the formulation, transposed once to CSC inside the solver, and the
// basis is maintained as a product-form (eta-file) factorization with
// periodic refactorization.
// Box constraints are handled as variable bounds — they never become
// explicit rows — and a Bland's-rule fallback guards against cycling on
// the massively degenerate network-flow LPs the scheduler produces.
//
// Per-pivot work follows nonzeros, not the row or column count: reduced
// costs and the dual phase's pivot row are accumulated row by row over
// the CSR rows whose BTRAN entry is nonzero, and the ratio test, x_B
// update and eta append walk one ascending nonzero-row list of the FTRAN
// result. Identity etas (pivot exactly 1.0, no off-pivot entries: mostly
// slacks) are never stored, and a refactorization pivots the bump's slack
// and artificial columns before its Gauss-Jordan pass over the structural
// ones.
//
// Pivot sequence: a solve runs the primal simplex from the slack basis
// (cold) or from an installed basis. When the installed basis is dual
// feasible but not primal feasible — every warm re-solve after bounds or
// right-hand sides shrank — a dual simplex phase runs first and hands over
// to the primal loop once the basis is primal feasible, when no column can
// enter (the primal phase 1 then reports Infeasible), on a pivot below
// tolerance or after a long degenerate streak. The primal loop certifies
// every result.
//
// Exactness invariant: for a given pivot sequence the sparse kernels skip
// only terms that are exactly +-0 (or identity etas, which divide by 1.0),
// and every floating-point operation that decides a pivot runs on the same
// operands in the same order as the plain dense loops (column-wise
// pricing, full-length ratio test and update). A skipped term can only
// flip the sign of a zero, which no comparison sees. So the pivot path,
// the refactorization count, the eta file and the returned LpSolution are
// fixed bit for bit; the routing_tests case LpPivotPath
// (tests/routing/lp_pivot_path_test.cpp) pins the solve, pivot,
// refactorization and eta-entry totals and every objective's bits over the
// Fig. 6(a)/7 batch scenarios and an incremental LP-assist stream.
//
// Warm starts: a SimplexState snapshots the basis between solves. Passing
// the state of a previous solve of a same-shaped problem (same rows and
// columns; bounds and right-hand sides may differ) restarts from that
// basis, which typically re-optimizes in a handful of dual pivots.
// basis_from_rows builds a state from a caller's crash basis instead:
// route() starts its first solve from the formulation's min-noise tree
// basis (RoutingFormulation::crash_rows) and threads the state through its
// rounding re-solves. A crash start installs like any warm state, so it
// counts as warm_started and in "lp.warm_starts".

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "obs/sink.h"
#include "util/contracts.h"

namespace surfnet::routing {

enum class ConstraintType { LessEqual, GreaterEqual, Equal };

/// Builder convenience for tests and hand-written problems; the
/// formulation streams rows directly via begin_constraint / add_term.
struct Constraint {
  std::vector<std::pair<int, double>> terms;  ///< (variable, coefficient)
  ConstraintType type = ConstraintType::LessEqual;
  double rhs = 0.0;
};

/// LP in compressed row form: maximize objective . x subject to the
/// emitted rows and 0 <= x <= upper_bound. Rows are appended term by term
/// with no per-row allocations and no dense materialization anywhere.
class LpProblem {
 public:
  static constexpr double kInfinity = std::numeric_limits<double>::infinity();

  int add_variable(double objective_coeff, double ub = kInfinity) {
    objective_.push_back(objective_coeff);
    upper_bound_.push_back(ub);
    return static_cast<int>(objective_.size()) - 1;
  }

  /// Open a new constraint row; subsequent add_term calls append to it.
  void begin_constraint(ConstraintType type, double rhs) {
    row_type_.push_back(type);
    rhs_.push_back(rhs);
    row_start_.push_back(static_cast<int>(cols_.size()));
  }
  void add_term(int var, double coeff);

  /// Convenience: emit a prebuilt row.
  void add_constraint(const Constraint& c) {
    begin_constraint(c.type, c.rhs);
    for (const auto& [var, coeff] : c.terms) add_term(var, coeff);
  }

  int num_vars() const { return static_cast<int>(objective_.size()); }
  int num_rows() const { return static_cast<int>(rhs_.size()); }
  int num_nonzeros() const { return static_cast<int>(cols_.size()); }

  double objective(int v) const {
    SURFNET_EXPECTS(v >= 0 && static_cast<std::size_t>(v) < objective_.size());
    return objective_[static_cast<std::size_t>(v)];
  }
  double upper_bound(int v) const {
    SURFNET_EXPECTS(v >= 0 &&
                    static_cast<std::size_t>(v) < upper_bound_.size());
    return upper_bound_[static_cast<std::size_t>(v)];
  }
  ConstraintType row_type(int r) const {
    SURFNET_EXPECTS(r >= 0 && static_cast<std::size_t>(r) < row_type_.size());
    return row_type_[static_cast<std::size_t>(r)];
  }
  double rhs(int r) const {
    SURFNET_EXPECTS(r >= 0 && static_cast<std::size_t>(r) < rhs_.size());
    return rhs_[static_cast<std::size_t>(r)];
  }
  std::span<const int> row_cols(int r) const {
    return {cols_.data() + row_begin(r), row_end(r) - row_begin(r)};
  }
  std::span<const double> row_coeffs(int r) const {
    return {coeffs_.data() + row_begin(r), row_end(r) - row_begin(r)};
  }

  /// Re-solve mutators: change bounds / right-hand sides while preserving
  /// the problem shape, so a SimplexState from a previous solve stays
  /// compatible.
  void set_upper_bound(int v, double ub) {
    SURFNET_EXPECTS(v >= 0 &&
                    static_cast<std::size_t>(v) < upper_bound_.size());
    upper_bound_[static_cast<std::size_t>(v)] = ub;
  }
  void set_rhs(int r, double rhs) {
    SURFNET_EXPECTS(r >= 0 && static_cast<std::size_t>(r) < rhs_.size());
    rhs_[static_cast<std::size_t>(r)] = rhs;
  }
  void set_objective(int v, double c) {
    SURFNET_EXPECTS(v >= 0 && static_cast<std::size_t>(v) < objective_.size());
    objective_[static_cast<std::size_t>(v)] = c;
  }

 private:
  std::size_t row_begin(int r) const {
    return static_cast<std::size_t>(row_start_[static_cast<std::size_t>(r)]);
  }
  std::size_t row_end(int r) const {
    const auto next = static_cast<std::size_t>(r) + 1;
    return next < row_start_.size()
               ? static_cast<std::size_t>(row_start_[next])
               : cols_.size();
  }

  std::vector<double> objective_;
  std::vector<double> upper_bound_;
  std::vector<ConstraintType> row_type_;
  std::vector<double> rhs_;
  std::vector<int> row_start_;  ///< first term of each row in cols_/coeffs_
  std::vector<int> cols_;
  std::vector<double> coeffs_;
};

enum class LpStatus { Optimal, Infeasible, Unbounded, IterationLimit };

struct LpSolution {
  LpStatus status = LpStatus::Infeasible;
  std::vector<double> x;
  double objective = 0.0;
  int iterations = 0;        ///< simplex pivots + bound flips, every phase
  int dual_iterations = 0;   ///< dual-phase pivots (included in iterations)
  int refactorizations = 0;  ///< basis rebuilds (periodic + recovery + final)
  long eta_nonzeros = 0;     ///< off-pivot entries appended to the eta file,
                             ///< refactorizations included
  bool warm_started = false; ///< a prior or crash basis was installed
};

/// Reusable basis snapshot for warm-started re-solves. Opaque to callers:
/// default-construct one, thread it through solve_lp calls on same-shaped
/// problems, and clear() it when the problem shape changes.
struct SimplexState {
  std::vector<std::int32_t> basis;     ///< basic column per row
  std::vector<std::uint8_t> at_upper;  ///< nonbasic-at-upper flag per column
  int num_rows = 0;
  int num_cols = 0;  ///< internal columns (structural + slack + artificial)

  bool valid() const { return !basis.empty(); }
  void clear() {
    basis.clear();
    at_upper.clear();
    num_rows = num_cols = 0;
  }
};

/// Warm-start state whose basis holds structural column
/// structural_per_row[r] in row r, or row r's own slack or artificial
/// where the entry is -1; every nonbasic column starts at its lower bound.
/// The slack/artificial column layout stays internal to the solver. Throws
/// std::invalid_argument on a size mismatch, a column outside
/// [-1, num_vars()) or a column named in two rows. A singular basis is not
/// an error: solve_lp then falls back to the slack basis.
SimplexState basis_from_rows(const LpProblem& problem,
                             std::span<const int> structural_per_row);

/// Solve from scratch (cold start).
LpSolution solve_lp(const LpProblem& problem);

/// Solve reusing `state` when it matches the problem's shape (warm start);
/// the final basis is stored back into `state` either way.
LpSolution solve_lp(const LpProblem& problem, SimplexState& state);

/// Observed solve: additionally times the solve into the sink's metrics
/// ("lp.solve_seconds", counters "lp.solves" / "lp.iterations" /
/// "lp.dual_iterations" / "lp.refactorizations" / "lp.eta_nonzeros" /
/// "lp.warm_starts") and
/// records one lp_solve trace event. A null sink behaves exactly like the
/// overload above.
LpSolution solve_lp(const LpProblem& problem, SimplexState& state,
                    const obs::Sink& sink);

}  // namespace surfnet::routing
