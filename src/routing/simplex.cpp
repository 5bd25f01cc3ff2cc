#include "routing/simplex.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "routing/validate.h"
#include "util/contracts.h"

namespace surfnet::routing {

void LpProblem::add_term(int var, double coeff) {
  if (var < 0 || var >= num_vars())
    throw std::invalid_argument("simplex: variable index out of range");
  if (row_start_.empty())
    throw std::logic_error("simplex: add_term before begin_constraint");
  cols_.push_back(var);
  coeffs_.push_back(coeff);
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kFeasTol = 1e-7;   ///< primal feasibility tolerance
constexpr double kOptTol = 1e-7;    ///< dual (reduced-cost) tolerance
constexpr double kPivotTol = 1e-8;  ///< smallest acceptable pivot element
constexpr double kDropTol = 1e-11;  ///< entries below this leave the eta file
constexpr double kRatioTol = 1e-9;  ///< column entries ignored by the ratio test
constexpr int kRefactorInterval = 64;  ///< pivots between refactorizations
constexpr int kBlandStreak = 256;   ///< degenerate pivots before Bland's rule
constexpr int kDualStreak = 64;     ///< degenerate dual pivots before handover
constexpr double kDualTieTol = 1e-9;  ///< dual ratio slack for |alpha| tie-breaks
constexpr double kDualCheckTol = 1e-6;  ///< dual-feasibility validator slack

enum VarStatus : signed char { kAtLower = 0, kAtUpper = 1, kBasic = 2 };
/// Per status, the factor that turns an improving reduced cost positive
/// (d at lower, -d at upper); basic columns never price.
constexpr double kPriceSign[] = {1.0, -1.0, 0.0};

/// Internal column of each row's slack (inequality rows, numbered from
/// num_vars() in row order) or artificial (equality rows, numbered after
/// every slack); returns the internal column count.
int aux_columns(const LpProblem& problem, std::vector<int>& aux_of_row) {
  const int m = problem.num_rows();
  int num_slack = 0;
  for (int r = 0; r < m; ++r)
    if (problem.row_type(r) != ConstraintType::Equal) ++num_slack;
  aux_of_row.resize(static_cast<std::size_t>(m));
  int slack_cursor = problem.num_vars();
  int art_cursor = problem.num_vars() + num_slack;
  for (int r = 0; r < m; ++r)
    aux_of_row[static_cast<std::size_t>(r)] =
        problem.row_type(r) == ConstraintType::Equal ? art_cursor++
                                                     : slack_cursor++;
  return art_cursor;
}

/// Bounded-variable revised simplex over the equality form
///   maximize c^T x   s.t.   A x (+ slacks) = b,   0 <= x_j <= u_j.
/// Inequality rows fold into slack columns (so box constraints never become
/// rows); equality rows get an artificial column fixed at [0, 0]. The basis
/// inverse is kept as a product-form eta file, rebuilt from scratch every
/// kRefactorInterval pivots (Gauss-Jordan with partial pivoting over the
/// current basis columns). An installed basis that is dual feasible but
/// not primal feasible — a warm re-solve after bounds or right-hand sides
/// shrank — first runs the dual simplex (dual_phase). Whatever is left
/// infeasible after that — the cold slack basis with negative right-hand
/// sides, or a warm basis the dual phase handed over — is repaired by a
/// composite phase 1 that minimizes the total bound violation of the basic
/// variables, so every solve ends in, and is certified by, one primal
/// iteration loop.
class RevisedSimplex {
 public:
  explicit RevisedSimplex(const LpProblem& problem);
  LpSolution solve(SimplexState& state);

 private:
  /// out -= A^T v over the rows where v is nonzero (nz_ gathered from v),
  /// from the problem's CSR rows plus each row's slack or artificial
  /// entry. Each column subtracts its terms in ascending row order, as a
  /// column-wise dot product would; a skipped term is a_rj * (+-0), which
  /// can only flip the sign of a zero.
  void subtract_row_products(const std::vector<double>& v,
                             std::vector<double>& out) {
    gather_nonzeros(v);
    for (const int r : nz_) {
      const double vr = v[static_cast<std::size_t>(r)];
      const auto cols = problem_->row_cols(r);
      const auto coeffs = problem_->row_coeffs(r);
      for (std::size_t t = 0; t < cols.size(); ++t)
        out[static_cast<std::size_t>(cols[t])] -= coeffs[t] * vr;
      const auto aux =
          static_cast<std::size_t>(row_aux_col_[static_cast<std::size_t>(r)]);
      out[aux] -= col_val_[static_cast<std::size_t>(col_start_[aux])] * vr;
    }
  }

  /// Phase-2 reduced costs d = c - A^T B^{-T} c_B.
  void compute_reduced_costs() {
    for (int r = 0; r < m_; ++r)
      y_[static_cast<std::size_t>(r)] = cost_[static_cast<std::size_t>(
          basis_[static_cast<std::size_t>(r)])];
    btran(y_);
    std::copy(cost_.begin(), cost_.end(), d_.begin());
    subtract_row_products(y_, d_);
  }

  /// True when no nonbasic movable column prices in (d > kOptTol at
  /// lower, d < -kOptTol at upper): the basis is dual feasible.
  bool dual_feasible() const {
    for (int j = 0; j < ncols_; ++j) {
      const auto sj = static_cast<std::size_t>(j);
      if (kPriceSign[vstat_[sj]] * movable_[sj] * d_[sj] > kOptTol)
        return false;
    }
    return true;
  }

  /// Row of the largest bound violation among the basic values, with the
  /// bound it must return to, or -1 when the basis is primal feasible.
  int most_infeasible_row(bool& to_upper) const {
    int row = -1;
    double worst = kFeasTol;
    for (int r = 0; r < m_; ++r) {
      const double v = x_basic_[static_cast<std::size_t>(r)];
      const double u =
          upper_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])];
      if (-v > worst) {
        worst = -v;
        row = r;
        to_upper = false;
      } else if (v - u > worst) {
        worst = v - u;
        row = r;
        to_upper = true;
      }
    }
    return row;
  }

  /// Dual simplex (bounded variables) from an installed basis that is
  /// dual feasible but not primal feasible. Each pivot takes the row of the
  /// largest bound violation out at the bound it violates, prices the row
  /// alpha_r = (B^{-T} e_r)^T A, and enters the column whose reduced cost
  /// reaches zero first (dual ratio test). Reduced costs update from
  /// alpha_r and are recomputed after every refactorization. Hands over to
  /// the primal loop once the basis is primal feasible, when no column can
  /// enter (the problem is infeasible; primal phase 1 proves it), on a
  /// pivot below kPivotTol, or after kDualStreak degenerate pivots in a
  /// row. Returns false when a refactorization found the basis singular.
  bool dual_phase(long& iterations, long max_iterations,
                  int& dual_iterations);

  void load_column(int j, std::vector<double>& v) const {
    std::fill(v.begin(), v.end(), 0.0);
    for (int k = col_start_[static_cast<std::size_t>(j)];
         k < col_start_[static_cast<std::size_t>(j) + 1]; ++k)
      v[static_cast<std::size_t>(col_row_[static_cast<std::size_t>(k)])] +=
          col_val_[static_cast<std::size_t>(k)];
  }

  /// v <- B^{-1} v via the eta file, in application order.
  void ftran(std::vector<double>& v) const {
    const std::size_t etas = eta_pivot_row_.size();
    for (std::size_t e = 0; e < etas; ++e) {
      const auto r = static_cast<std::size_t>(eta_pivot_row_[e]);
      if (v[r] == 0.0) continue;  // 0 / pivot could only re-sign the zero
      const double zr = v[r] / eta_pivot_val_[e];
      v[r] = zr;
      if (zr == 0.0) continue;
      for (int k = eta_start_[e]; k < eta_start_[e + 1]; ++k)
        v[static_cast<std::size_t>(eta_row_[static_cast<std::size_t>(k)])] -=
            eta_val_[static_cast<std::size_t>(k)] * zr;
    }
  }

  /// v <- B^{-T} v via the transposed eta file, in reverse order.
  void btran(std::vector<double>& v) const {
    for (std::size_t e = eta_pivot_row_.size(); e-- > 0;) {
      const auto r = static_cast<std::size_t>(eta_pivot_row_[e]);
      double s = v[r];
      for (int k = eta_start_[e]; k < eta_start_[e + 1]; ++k)
        s -= eta_val_[static_cast<std::size_t>(k)] *
             v[static_cast<std::size_t>(eta_row_[static_cast<std::size_t>(k)])];
      v[r] = s / eta_pivot_val_[e];
    }
  }

  /// nz_ <- ascending indices of v's nonzero entries (NaN included),
  /// branch-free. Pricing walks the nonzeros of y, and every consumer of an
  /// FTRAN result (ratio test, x_B update, pivot search, eta append) the
  /// nonzeros of work_, instead of all m rows; the rows skipped hold exact
  /// zeros, which none of those loops could act on.
  void gather_nonzeros(const std::vector<double>& v) {
    nz_.resize(static_cast<std::size_t>(m_));
    std::size_t n = 0;
    for (int i = 0; i < m_; ++i) {
      nz_[n] = i;
      n += v[static_cast<std::size_t>(i)] != 0.0;
    }
    nz_.resize(n);
  }

  /// Append work_ (with nz_ gathered) as the eta of a pivot on pivot_row.
  void append_eta(int pivot_row) {
    for (const int i : nz_) {
      if (i == pivot_row) continue;
      const double wv = work_[static_cast<std::size_t>(i)];
      if (std::abs(wv) > kDropTol) {
        eta_row_.push_back(i);
        eta_val_.push_back(wv);
      }
    }
    close_eta(pivot_row, work_[static_cast<std::size_t>(pivot_row)]);
  }

  /// Close the eta whose off-pivot entries were just appended. An identity
  /// eta (pivot exactly 1.0, no entries) is not stored: FTRAN and BTRAN
  /// would only divide by 1.0, which leaves every value bitwise as it is.
  void close_eta(int pivot_row, double pivot) {
    const int begin = eta_start_.back();
    const int end = static_cast<int>(eta_row_.size());
    if (pivot == 1.0 && begin == end) return;
    eta_pivot_row_.push_back(pivot_row);
    eta_pivot_val_.push_back(pivot);
    eta_nonzeros_ += end - begin;
    eta_start_.push_back(end);
  }

  /// Rebuild the eta file for the current basis from scratch. A triangular
  /// ordering phase goes first: repeatedly take a row touched by exactly
  /// one remaining basis column and pivot that column there. Such a column
  /// provably has no entries in earlier pivot rows, so its eta is the raw
  /// column — zero fill, no FTRAN. Simplex bases of network-flow LPs are
  /// near-triangular (slacks and conservation structure), so this phase
  /// usually swallows almost everything; the small remaining "bump" falls
  /// back to Gauss-Jordan product form with partial pivoting. Basis columns
  /// may get reassigned to different rows; false = numerically singular.
  bool refactorize() {
    ++refactor_count_;
    eta_pivot_row_.clear();
    eta_pivot_val_.clear();
    eta_row_.clear();
    eta_val_.clear();
    eta_start_.assign(1, 0);

    // Aggregate each basis column's entries by row (duplicates summed).
    const auto sm = static_cast<std::size_t>(m_);
    fac_col_start_.assign(sm + 1, 0);
    fac_row_.clear();
    fac_val_.clear();
    fac_stamp_.assign(sm, -1);
    fac_slot_.resize(sm);
    for (int k = 0; k < m_; ++k) {
      const int j = basis_[static_cast<std::size_t>(k)];
      const auto base = fac_row_.size();
      for (int t = col_start_[static_cast<std::size_t>(j)];
           t < col_start_[static_cast<std::size_t>(j) + 1]; ++t) {
        const int r = col_row_[static_cast<std::size_t>(t)];
        const double v = col_val_[static_cast<std::size_t>(t)];
        if (fac_stamp_[static_cast<std::size_t>(r)] == k) {
          fac_val_[fac_slot_[static_cast<std::size_t>(r)]] += v;
        } else {
          fac_stamp_[static_cast<std::size_t>(r)] = k;
          fac_slot_[static_cast<std::size_t>(r)] = fac_row_.size();
          fac_row_.push_back(r);
          fac_val_.push_back(v);
        }
      }
      // Drop cancelled entries in place.
      std::size_t w = base;
      for (std::size_t t = base; t < fac_row_.size(); ++t)
        if (std::abs(fac_val_[t]) > kDropTol) {
          fac_row_[w] = fac_row_[t];
          fac_val_[w] = fac_val_[t];
          ++w;
        }
      fac_row_.resize(w);
      fac_val_.resize(w);
      fac_col_start_[static_cast<std::size_t>(k) + 1] =
          static_cast<int>(w);
    }

    // Row -> basis-position index for singleton detection.
    fac_rowpos_start_.assign(sm + 1, 0);
    for (const int r : fac_row_)
      ++fac_rowpos_start_[static_cast<std::size_t>(r) + 1];
    for (int r = 0; r < m_; ++r)
      fac_rowpos_start_[static_cast<std::size_t>(r) + 1] +=
          fac_rowpos_start_[static_cast<std::size_t>(r)];
    fac_rowpos_col_.resize(fac_row_.size());
    {
      fac_fill_.assign(fac_rowpos_start_.begin(), fac_rowpos_start_.end() - 1);
      for (int k = 0; k < m_; ++k)
        for (int t = fac_col_start_[static_cast<std::size_t>(k)];
             t < fac_col_start_[static_cast<std::size_t>(k) + 1]; ++t)
          fac_rowpos_col_[static_cast<std::size_t>(
              fac_fill_[static_cast<std::size_t>(
                  fac_row_[static_cast<std::size_t>(t)])]++)] = k;
    }

    fac_row_live_.assign(sm, 0);
    for (int r = 0; r < m_; ++r)
      fac_row_live_[static_cast<std::size_t>(r)] =
          fac_rowpos_start_[static_cast<std::size_t>(r) + 1] -
          fac_rowpos_start_[static_cast<std::size_t>(r)];
    fac_col_alive_.assign(sm, 1);
    std::vector<char>& taken = fac_taken_;
    taken.assign(sm, 0);
    std::vector<int>& new_basis = fac_new_basis_;
    new_basis.assign(sm, -1);

    // --- Triangular phase. ---
    fac_queue_.clear();
    for (int r = 0; r < m_; ++r)
      if (fac_row_live_[static_cast<std::size_t>(r)] == 1)
        fac_queue_.push_back(r);
    while (!fac_queue_.empty()) {
      const int r = fac_queue_.back();
      fac_queue_.pop_back();
      if (taken[static_cast<std::size_t>(r)] ||
          fac_row_live_[static_cast<std::size_t>(r)] != 1)
        continue;
      int k = -1;
      for (int t = fac_rowpos_start_[static_cast<std::size_t>(r)];
           t < fac_rowpos_start_[static_cast<std::size_t>(r) + 1]; ++t)
        if (fac_col_alive_[static_cast<std::size_t>(
                fac_rowpos_col_[static_cast<std::size_t>(t)])]) {
          k = fac_rowpos_col_[static_cast<std::size_t>(t)];
          break;
        }
      if (k < 0) continue;
      double pivot = 0.0;
      for (int t = fac_col_start_[static_cast<std::size_t>(k)];
           t < fac_col_start_[static_cast<std::size_t>(k) + 1]; ++t)
        if (fac_row_[static_cast<std::size_t>(t)] == r)
          pivot = fac_val_[static_cast<std::size_t>(t)];
      if (std::abs(pivot) <= 1e-10) continue;  // leave it for the bump

      for (int t = fac_col_start_[static_cast<std::size_t>(k)];
           t < fac_col_start_[static_cast<std::size_t>(k) + 1]; ++t) {
        const int r2 = fac_row_[static_cast<std::size_t>(t)];
        if (r2 == r) continue;
        eta_row_.push_back(r2);
        eta_val_.push_back(fac_val_[static_cast<std::size_t>(t)]);
        if (!taken[static_cast<std::size_t>(r2)] &&
            --fac_row_live_[static_cast<std::size_t>(r2)] == 1)
          fac_queue_.push_back(r2);
      }
      close_eta(r, pivot);
      fac_col_alive_[static_cast<std::size_t>(k)] = 0;
      taken[static_cast<std::size_t>(r)] = 1;
      new_basis[static_cast<std::size_t>(r)] = basis_[static_cast<std::size_t>(k)];
    }

    // --- Bump phase. Slack and artificial columns go first: their row
    // cannot be taken yet (it would have had two live columns), and every
    // eta so far skips a unit vector, so each pivots on its own row with an
    // eta of +-1 and no entries. Gauss-Jordan with partial pivoting then
    // covers only the structural columns the ordering left. ---
    for (int k = 0; k < m_; ++k) {
      const int j = basis_[static_cast<std::size_t>(k)];
      if (!fac_col_alive_[static_cast<std::size_t>(k)] || j < nstruct_)
        continue;
      const auto slot = static_cast<std::size_t>(
          col_start_[static_cast<std::size_t>(j)]);
      const int r = col_row_[slot];
      SURFNET_ASSERT(!taken[static_cast<std::size_t>(r)],
                     "unit column %d meets taken row %d", j, r);
      close_eta(r, col_val_[slot]);
      fac_col_alive_[static_cast<std::size_t>(k)] = 0;
      taken[static_cast<std::size_t>(r)] = 1;
      new_basis[static_cast<std::size_t>(r)] = j;
    }
    for (int k = 0; k < m_; ++k) {
      if (!fac_col_alive_[static_cast<std::size_t>(k)]) continue;
      const int j = basis_[static_cast<std::size_t>(k)];
      load_column(j, work_);
      ftran(work_);
      gather_nonzeros(work_);
      int pr = -1;
      double best = 1e-10;
      for (const int i : nz_)
        if (!taken[static_cast<std::size_t>(i)] &&
            std::abs(work_[static_cast<std::size_t>(i)]) > best) {
          best = std::abs(work_[static_cast<std::size_t>(i)]);
          pr = i;
        }
      if (pr < 0) return false;
      append_eta(pr);
      taken[static_cast<std::size_t>(pr)] = 1;
      new_basis[static_cast<std::size_t>(pr)] = j;
    }
    basis_.swap(new_basis);
    pivots_since_refactor_ = 0;
    return true;
  }

  /// x_B = B^{-1} (b - sum of nonbasic-at-upper columns at their bound).
  void compute_basic_values() {
    std::copy(b_.begin(), b_.end(), work_.begin());
    for (int j = 0; j < ncols_; ++j) {
      if (vstat_[static_cast<std::size_t>(j)] != kAtUpper) continue;
      const double u = upper_[static_cast<std::size_t>(j)];
      if (u == 0.0) continue;
      for (int k = col_start_[static_cast<std::size_t>(j)];
           k < col_start_[static_cast<std::size_t>(j) + 1]; ++k)
        work_[static_cast<std::size_t>(
            col_row_[static_cast<std::size_t>(k)])] -=
            col_val_[static_cast<std::size_t>(k)] * u;
    }
    ftran(work_);
    std::copy(work_.begin(), work_.end(), x_basic_.begin());
  }

  void cold_basis() {
    vstat_.assign(static_cast<std::size_t>(ncols_), kAtLower);
    basis_.resize(static_cast<std::size_t>(m_));
    for (int r = 0; r < m_; ++r) {
      basis_[static_cast<std::size_t>(r)] =
          row_aux_col_[static_cast<std::size_t>(r)];
      vstat_[static_cast<std::size_t>(
          row_aux_col_[static_cast<std::size_t>(r)])] = kBasic;
    }
  }

  bool install_state(const SimplexState& state) {
    if (!state.valid() || state.num_rows != m_ || state.num_cols != ncols_ ||
        static_cast<int>(state.basis.size()) != m_ ||
        static_cast<int>(state.at_upper.size()) != ncols_)
      return false;
    std::vector<char> seen(static_cast<std::size_t>(ncols_), 0);
    for (const std::int32_t j : state.basis) {
      if (j < 0 || j >= ncols_ || seen[static_cast<std::size_t>(j)])
        return false;
      seen[static_cast<std::size_t>(j)] = 1;
    }
    vstat_.assign(static_cast<std::size_t>(ncols_), kAtLower);
    for (int j = 0; j < ncols_; ++j)
      if (state.at_upper[static_cast<std::size_t>(j)] &&
          std::isfinite(upper_[static_cast<std::size_t>(j)]) &&
          upper_[static_cast<std::size_t>(j)] > 0.0)
        vstat_[static_cast<std::size_t>(j)] = kAtUpper;
    basis_.resize(static_cast<std::size_t>(m_));
    for (int r = 0; r < m_; ++r) {
      basis_[static_cast<std::size_t>(r)] =
          state.basis[static_cast<std::size_t>(r)];
      vstat_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])] =
          kBasic;
    }
    return refactorize();
  }

  /// Debug validator (SURFNET_CHECKS): structural sanity of the basis and
  /// the variable-status flags. Compiled to nothing when checks are off.
  void check_basis_invariants() const {
#if SURFNET_CHECKS
    std::vector<char> seen(static_cast<std::size_t>(ncols_), 0);
    for (int r = 0; r < m_; ++r) {
      const int j = basis_[static_cast<std::size_t>(r)];
      SURFNET_ASSERT(j >= 0 && j < ncols_, "row %d holds column %d of %d", r,
                     j, ncols_);
      SURFNET_ASSERT(!seen[static_cast<std::size_t>(j)],
                     "column %d basic in two rows", j);
      seen[static_cast<std::size_t>(j)] = 1;
      SURFNET_ASSERT(vstat_[static_cast<std::size_t>(j)] == kBasic,
                     "basic column %d has status %d", j,
                     vstat_[static_cast<std::size_t>(j)]);
    }
    int basic_count = 0;
    for (int j = 0; j < ncols_; ++j) {
      const auto status = vstat_[static_cast<std::size_t>(j)];
      if (status == kBasic) ++basic_count;
      if (status == kAtUpper)
        SURFNET_ASSERT(std::isfinite(upper_[static_cast<std::size_t>(j)]),
                       "column %d at-upper with infinite bound", j);
    }
    SURFNET_ASSERT(basic_count == m_, "%d basic flags for %d rows",
                   basic_count, m_);
#endif
  }

  /// Debug validator (SURFNET_CHECKS): eta-file refactorization residual.
  /// With x assembled from the basic values and the nonbasic-at-upper
  /// bounds, A x must reproduce b — a drifting eta file or a corrupt basis
  /// shows up here as a large residual.
  void check_primal_residual() {
#if SURFNET_CHECKS
    check_basis_invariants();
    std::vector<double> residual(b_.begin(), b_.end());
    double scale = 1.0;
    for (const double rhs : b_) scale = std::max(scale, std::abs(rhs));
    const auto apply_column = [&](int j, double x) {
      if (x == 0.0) return;
      for (int k = col_start_[static_cast<std::size_t>(j)];
           k < col_start_[static_cast<std::size_t>(j) + 1]; ++k)
        residual[static_cast<std::size_t>(
            col_row_[static_cast<std::size_t>(k)])] -=
            col_val_[static_cast<std::size_t>(k)] * x;
    };
    for (int j = 0; j < ncols_; ++j)
      if (vstat_[static_cast<std::size_t>(j)] == kAtUpper)
        apply_column(j, upper_[static_cast<std::size_t>(j)]);
    for (int r = 0; r < m_; ++r)
      apply_column(basis_[static_cast<std::size_t>(r)],
                   x_basic_[static_cast<std::size_t>(r)]);
    for (int r = 0; r < m_; ++r)
      SURFNET_ASSERT(std::abs(residual[static_cast<std::size_t>(r)]) <=
                         1e-5 * scale,
                     "row %d residual %g (scale %g)", r,
                     residual[static_cast<std::size_t>(r)], scale);
#endif
  }

  /// Debug validator (SURFNET_CHECKS): on phase-1 exit every basic value
  /// must sit inside its bounds — Optimal with a bound violation means the
  /// phase transition logic broke.
  void check_exit_feasibility() const {
#if SURFNET_CHECKS
    for (int r = 0; r < m_; ++r) {
      const double v = x_basic_[static_cast<std::size_t>(r)];
      const double u =
          upper_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])];
      SURFNET_ASSERT(v >= -1e-5 && v <= u + 1e-5,
                     "basic value %g outside [0, %g] in row %d", v, u, r);
    }
#endif
  }

  /// Debug validator (SURFNET_CHECKS): on dual-phase exit every nonbasic
  /// movable column's reduced cost, recomputed from a fresh BTRAN, still
  /// has its dual-feasible sign (<= 0 at lower, >= 0 at upper). A dual
  /// pivot that broke dual feasibility would let the hand-over start the
  /// primal loop from a basis the dual ratio test should never produce.
  void check_dual_feasibility() {
#if SURFNET_CHECKS
    compute_reduced_costs();
    for (int j = 0; j < ncols_; ++j) {
      const auto sj = static_cast<std::size_t>(j);
      SURFNET_ASSERT(kPriceSign[vstat_[sj]] * movable_[sj] * d_[sj] <=
                         kDualCheckTol,
                     "dual phase left column %d (status %d) with reduced "
                     "cost %g",
                     j, vstat_[sj], d_[sj]);
    }
#endif
  }

  void save_state(SimplexState& state) const {
    state.basis.assign(basis_.begin(), basis_.end());
    state.at_upper.assign(static_cast<std::size_t>(ncols_), 0);
    for (int j = 0; j < ncols_; ++j)
      if (vstat_[static_cast<std::size_t>(j)] == kAtUpper)
        state.at_upper[static_cast<std::size_t>(j)] = 1;
    state.num_rows = m_;
    state.num_cols = ncols_;
  }

  const LpProblem* problem_;
  int m_ = 0;       ///< rows
  int nstruct_ = 0; ///< structural columns
  int ncols_ = 0;   ///< structural + slack + artificial

  // CSC over all internal columns.
  std::vector<int> col_start_;
  std::vector<int> col_row_;
  std::vector<double> col_val_;
  std::vector<double> cost_;
  std::vector<double> upper_;
  std::vector<double> b_;
  std::vector<int> row_aux_col_;  ///< cold-start basic column per row

  std::vector<int> basis_;
  std::vector<signed char> vstat_;
  std::vector<double> x_basic_;

  // Eta file: eta e pivots on row eta_pivot_row_[e] with value
  // eta_pivot_val_[e]; off-pivot entries live in [eta_start_[e],
  // eta_start_[e+1]) of eta_row_/eta_val_.
  std::vector<int> eta_pivot_row_;
  std::vector<double> eta_pivot_val_;
  std::vector<int> eta_start_;
  std::vector<int> eta_row_;
  std::vector<double> eta_val_;
  int pivots_since_refactor_ = 0;
  int refactor_count_ = 0;  ///< total basis rebuilds this solve
  long eta_nonzeros_ = 0;   ///< off-pivot entries appended this solve

  std::vector<double> work_;  ///< dense row-sized scratch (FTRAN target)
  std::vector<int> nz_;       ///< ascending nonzero rows of y_ or work_
  std::vector<double> y_;     ///< dense row-sized scratch (BTRAN target)
  std::vector<double> d_;     ///< reduced costs, one per internal column
  std::vector<double> alpha_; ///< dual phase: pivot row of B^{-1} A
  /// Dual phase: columns the ratio test may enter, with their signed pivot
  /// row entry a > 0 and reduced-cost gap to zero.
  struct DualCandidate {
    int col;
    double a;
    double gap;
  };
  std::vector<DualCandidate> candidates_;
  std::vector<double> movable_;  ///< 0 where the upper bound is <= 0, else 1

  // Refactorization scratch (rebuilt each refactorize; kept as members so
  // the buffers only grow).
  std::vector<int> fac_col_start_, fac_row_, fac_stamp_, fac_rowpos_start_,
      fac_rowpos_col_, fac_row_live_, fac_queue_, fac_fill_;
  std::vector<std::size_t> fac_slot_;
  std::vector<double> fac_val_;
  std::vector<char> fac_col_alive_, fac_taken_;
  std::vector<int> fac_new_basis_;
};

RevisedSimplex::RevisedSimplex(const LpProblem& problem) : problem_(&problem) {
  m_ = problem.num_rows();
  nstruct_ = problem.num_vars();
  ncols_ = aux_columns(problem, row_aux_col_);

  // Transpose the problem's CSR rows into CSC structural columns.
  const int nnz = problem.num_nonzeros();
  col_start_.assign(static_cast<std::size_t>(ncols_) + 1, 0);
  for (int r = 0; r < m_; ++r)
    for (const int c : problem.row_cols(r))
      ++col_start_[static_cast<std::size_t>(c) + 1];
  // Prefix-sum structural counts, then one slot per slack/artificial col.
  for (int j = 0; j < nstruct_; ++j)
    col_start_[static_cast<std::size_t>(j) + 1] +=
        col_start_[static_cast<std::size_t>(j)];
  for (int j = nstruct_; j < ncols_; ++j)
    col_start_[static_cast<std::size_t>(j) + 1] =
        col_start_[static_cast<std::size_t>(j)] + 1;

  col_row_.resize(static_cast<std::size_t>(nnz) +
                  static_cast<std::size_t>(ncols_ - nstruct_));
  col_val_.resize(col_row_.size());
  std::vector<int> fill(col_start_.begin(), col_start_.end() - 1);
  for (int r = 0; r < m_; ++r) {
    const auto cols = problem.row_cols(r);
    const auto coeffs = problem.row_coeffs(r);
    for (std::size_t t = 0; t < cols.size(); ++t) {
      const auto slot =
          static_cast<std::size_t>(fill[static_cast<std::size_t>(cols[t])]++);
      col_row_[slot] = r;
      col_val_[slot] = coeffs[t];
    }
  }

  cost_.assign(static_cast<std::size_t>(ncols_), 0.0);
  upper_.assign(static_cast<std::size_t>(ncols_), kInf);
  for (int j = 0; j < nstruct_; ++j) {
    cost_[static_cast<std::size_t>(j)] = problem.objective(j);
    upper_[static_cast<std::size_t>(j)] = problem.upper_bound(j);
  }

  b_.resize(static_cast<std::size_t>(m_));
  for (int r = 0; r < m_; ++r) {
    b_[static_cast<std::size_t>(r)] = problem.rhs(r);
    const int aux = row_aux_col_[static_cast<std::size_t>(r)];
    const auto slot =
        static_cast<std::size_t>(col_start_[static_cast<std::size_t>(aux)]);
    col_row_[slot] = r;
    col_val_[slot] =
        problem.row_type(r) == ConstraintType::GreaterEqual ? -1.0 : 1.0;
    if (problem.row_type(r) == ConstraintType::Equal)
      upper_[static_cast<std::size_t>(aux)] = 0.0;  // artificial: fixed at 0
  }

  x_basic_.resize(static_cast<std::size_t>(m_));
  work_.resize(static_cast<std::size_t>(m_));
  d_.resize(static_cast<std::size_t>(ncols_));
  alpha_.resize(static_cast<std::size_t>(ncols_));
  movable_.resize(static_cast<std::size_t>(ncols_));
  for (std::size_t j = 0; j < movable_.size(); ++j)
    movable_[j] = upper_[j] <= 0.0 ? 0.0 : 1.0;
  y_.resize(static_cast<std::size_t>(m_));
  eta_start_.assign(1, 0);
}

LpSolution RevisedSimplex::solve(SimplexState& state) {
  LpSolution solution;
  for (int j = 0; j < nstruct_; ++j) {
    const double u = upper_[static_cast<std::size_t>(j)];
    if (std::isnan(u) || u < 0.0) {  // empty box — match the dense reference
      solution.status = LpStatus::Infeasible;
      state.clear();
      return solution;
    }
  }

  const bool warm = install_state(state);
  if (!warm) {
    cold_basis();
    refactorize();  // singleton basis columns: cannot fail
  }
  solution.warm_started = warm;
  compute_basic_values();
  check_primal_residual();

  const long max_iterations = 4096 + 32L * (m_ + nstruct_);
  long iterations = 0;
  const bool singular =
      warm && !dual_phase(iterations, max_iterations, solution.dual_iterations);
  int degenerate_streak = 0;
  bool bland = false;
  std::vector<char> banned(static_cast<std::size_t>(ncols_), 0);
  std::vector<int> banned_list;

  for (;;) {
    if (singular || iterations >= max_iterations) {
      solution.status = LpStatus::IterationLimit;
      break;
    }

    // Phase detection: any basic variable outside its bounds puts the
    // iteration in phase 1, whose costs point each violator back inside.
    bool phase1 = false;
    for (int r = 0; r < m_; ++r) {
      const double v = x_basic_[static_cast<std::size_t>(r)];
      const double u =
          upper_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])];
      double c = 0.0;
      if (v < -kFeasTol) {
        c = 1.0;
        phase1 = true;
      } else if (v > u + kFeasTol) {
        c = -1.0;
        phase1 = true;
      }
      y_[static_cast<std::size_t>(r)] = c;
    }
    if (!phase1)
      for (int r = 0; r < m_; ++r)
        y_[static_cast<std::size_t>(r)] = cost_[static_cast<std::size_t>(
            basis_[static_cast<std::size_t>(r)])];

    btran(y_);  // y = B^{-T} c_B, the basic costs of the current phase

    // Reduced costs d = c - A^T y, accumulated row by row over the rows
    // with y_r != 0; no test below sees the sign of a zero.
    if (phase1)
      std::fill(d_.begin(), d_.end(), 0.0);
    else
      std::copy(cost_.begin(), cost_.end(), d_.begin());
    subtract_row_products(y_, d_);

    // Pricing: Dantzig (largest reduced cost) normally, Bland (first
    // eligible index) while a degenerate streak threatens to cycle.
    // A nonbasic column improves when its signed reduced cost s (d at
    // lower, -d at upper: exactly |d| whenever it improves) exceeds
    // kOptTol, so Dantzig's strict-> running maximum of |d| over improving
    // columns is the first column whose s beats kOptTol and every earlier
    // pick. Basic columns and columns fixed at zero get s = +-0 (or NaN),
    // which never beats kOptTol.
    int entering = -1;
    double threshold = kOptTol;
    for (int j = 0; j < ncols_; ++j) {
      const auto sj = static_cast<std::size_t>(j);
      const double s = kPriceSign[vstat_[sj]] * movable_[sj] * d_[sj];
      if (s > threshold && !banned[sj]) {
        entering = j;
        if (bland) break;
        threshold = s;
      }
    }

    if (entering < 0) {
      solution.status = phase1 ? LpStatus::Infeasible : LpStatus::Optimal;
      break;
    }

    const int dir = vstat_[static_cast<std::size_t>(entering)] == kAtLower
                        ? +1
                        : -1;
    load_column(entering, work_);
    ftran(work_);
    gather_nonzeros(work_);

    // Ratio test over the basic variables plus the entering variable's own
    // opposite bound (a bound flip). Basic variables already outside a
    // bound block at the bound they are returning to, which keeps phase-1
    // steps from overshooting feasibility.
    double best_t = upper_[static_cast<std::size_t>(entering)];  // flip
    int block_row = -1;
    bool leave_at_upper = false;
    for (const int r : nz_) {
      const double wv = work_[static_cast<std::size_t>(r)];
      if (std::abs(wv) < kRatioTol) continue;
      const double delta = -dir * wv;  // d x_B[r] / dt
      const double v = x_basic_[static_cast<std::size_t>(r)];
      const double u =
          upper_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])];
      double target;
      if (delta > 0.0) {
        if (v > u + kFeasTol) continue;  // above and rising: no block here
        target = v < -kFeasTol ? 0.0 : u;
        if (!std::isfinite(target)) continue;
      } else {
        if (v < -kFeasTol) continue;  // below and falling: no block here
        target = v > u + kFeasTol ? u : 0.0;
      }
      double t = (target - v) / delta;
      if (t < 0.0) t = 0.0;
      bool take = false;
      if (t < best_t - kRatioTol) {
        take = true;
      } else if (t < best_t + kRatioTol && block_row >= 0) {
        take = bland
                   ? basis_[static_cast<std::size_t>(r)] <
                         basis_[static_cast<std::size_t>(block_row)]
                   : std::abs(wv) >
                         std::abs(work_[static_cast<std::size_t>(block_row)]);
      }
      if (take) {
        if (t < best_t) best_t = t;
        block_row = r;
        // A column whose bound is zero leaves at lower: at-upper is
        // reserved for a finite positive bound to rest on.
        leave_at_upper = target == u && std::isfinite(u) && u > 0.0;
      }
    }

    if (!std::isfinite(best_t)) {
      // Phase 1 maximizes a function bounded by zero, so an unbounded ray
      // can only be numerical noise there; report it as the limit status.
      solution.status = phase1 ? LpStatus::IterationLimit : LpStatus::Unbounded;
      break;
    }

    if (block_row >= 0 &&
        std::abs(work_[static_cast<std::size_t>(block_row)]) < kPivotTol) {
      // Unstable pivot: retry against a fresh factorization, and if the
      // column stays unusable, bar it from this pricing round.
      if (pivots_since_refactor_ > 0) {
        if (!refactorize()) {
          solution.status = LpStatus::IterationLimit;
          break;
        }
        compute_basic_values();
        continue;
      }
      banned[static_cast<std::size_t>(entering)] = 1;
      banned_list.push_back(entering);
      continue;
    }

    ++iterations;
    // Rows off nz_ would add -dir * (+-0) * best_t: at most the sign of a
    // zero basic value changes, and no bound test or extraction sees it.
    if (best_t > 0.0)
      for (const int r : nz_)
        x_basic_[static_cast<std::size_t>(r)] +=
            -dir * work_[static_cast<std::size_t>(r)] * best_t;

    if (block_row < 0) {
      // Bound flip: the entering variable crosses to its other bound
      // without any basis change.
      vstat_[static_cast<std::size_t>(entering)] =
          dir > 0 ? kAtUpper : kAtLower;
    } else {
      const int leaving = basis_[static_cast<std::size_t>(block_row)];
      vstat_[static_cast<std::size_t>(leaving)] =
          leave_at_upper ? kAtUpper : kAtLower;
      x_basic_[static_cast<std::size_t>(block_row)] =
          dir > 0 ? best_t
                  : upper_[static_cast<std::size_t>(entering)] - best_t;
      basis_[static_cast<std::size_t>(block_row)] = entering;
      vstat_[static_cast<std::size_t>(entering)] = kBasic;
      append_eta(block_row);
      if (++pivots_since_refactor_ >= kRefactorInterval) {
        if (!refactorize()) {
          solution.status = LpStatus::IterationLimit;
          break;
        }
        compute_basic_values();
      }
    }

    for (const int j : banned_list) banned[static_cast<std::size_t>(j)] = 0;
    banned_list.clear();

    if (best_t > kRatioTol) {
      degenerate_streak = 0;
      bland = false;
    } else if (++degenerate_streak >= kBlandStreak) {
      bland = true;
    }
  }

  solution.iterations = static_cast<int>(iterations);
  solution.refactorizations = refactor_count_;
  solution.eta_nonzeros = eta_nonzeros_;
  save_state(state);
  if (solution.status != LpStatus::Optimal) return solution;

  // One fresh factorization before extraction scrubs the drift a long eta
  // file accumulates.
  if (pivots_since_refactor_ > 0 && refactorize()) compute_basic_values();
  check_primal_residual();
  check_exit_feasibility();
  solution.refactorizations = refactor_count_;
  solution.eta_nonzeros = eta_nonzeros_;
  save_state(state);

  solution.x.assign(static_cast<std::size_t>(nstruct_), 0.0);
  for (int j = 0; j < nstruct_; ++j)
    if (vstat_[static_cast<std::size_t>(j)] == kAtUpper)
      solution.x[static_cast<std::size_t>(j)] =
          upper_[static_cast<std::size_t>(j)];
  for (int r = 0; r < m_; ++r) {
    const int j = basis_[static_cast<std::size_t>(r)];
    if (j >= nstruct_) continue;
    const double u = upper_[static_cast<std::size_t>(j)];
    double v = x_basic_[static_cast<std::size_t>(r)];
    v = std::max(0.0, std::isfinite(u) ? std::min(v, u) : v);
    solution.x[static_cast<std::size_t>(j)] = v;
  }
  solution.objective = 0.0;
  for (int j = 0; j < nstruct_; ++j)
    solution.objective +=
        problem_->objective(j) * solution.x[static_cast<std::size_t>(j)];
  return solution;
}

bool RevisedSimplex::dual_phase(long& iterations, long max_iterations,
                                int& dual_iterations) {
  bool to_upper = false;
  int row = most_infeasible_row(to_upper);
  if (row < 0) return true;
  compute_reduced_costs();
  if (!dual_feasible()) return true;

  int degenerate_streak = 0;
  for (; row >= 0 && iterations < max_iterations;
       row = most_infeasible_row(to_upper)) {
    // Pivot row alpha_r = (B^{-T} e_r)^T A. BTRAN runs on -e_r, so the
    // row products' subtraction leaves +alpha_r.
    std::fill(y_.begin(), y_.end(), 0.0);
    y_[static_cast<std::size_t>(row)] = -1.0;
    btran(y_);
    std::fill(alpha_.begin(), alpha_.end(), 0.0);
    subtract_row_products(y_, alpha_);

    // The leaving value rises back to 0 (s = 1) or falls to its upper
    // bound (s = -1). A nonbasic column can enter when moving it off its
    // bound pushes the leaving value that way: s * alpha_j < 0 at lower,
    // > 0 at upper. Its reduced cost reaches zero after a dual step of
    // |d_j| / |alpha_j|; the smallest step keeps every other column dual
    // feasible. Near-ties (within kDualTieTol of reduced cost) go to the
    // largest |alpha_j|, the most stable pivot. Basic columns (price sign
    // 0) and fixed ones (movable 0) get a = +-0 and never enter.
    const double s = to_upper ? -1.0 : 1.0;
    candidates_.clear();
    double bound = kInf;
    for (int j = 0; j < ncols_; ++j) {
      const auto sj = static_cast<std::size_t>(j);
      const double sign = kPriceSign[vstat_[sj]];
      const double a = -sign * s * movable_[sj] * alpha_[sj];
      if (!(a > kPivotTol)) continue;
      const double gap = std::max(0.0, -sign * d_[sj]);
      bound = std::min(bound, (gap + kDualTieTol) / a);
      candidates_.push_back({j, a, gap});
    }
    if (!std::isfinite(bound)) break;  // dual unbounded: primal infeasible
    int entering = -1;
    double entering_a = 0.0, entering_gap = 0.0;
    for (const auto& c : candidates_)
      if (c.gap / c.a <= bound && c.a > entering_a) {
        entering = c.col;
        entering_a = c.a;
        entering_gap = c.gap;
      }

    load_column(entering, work_);
    ftran(work_);
    gather_nonzeros(work_);
    const double pivot = work_[static_cast<std::size_t>(row)];
    if (std::abs(pivot) < kPivotTol) break;

    // Primal step: the entering value moves until the leaving one sits on
    // its bound.
    const int leaving = basis_[static_cast<std::size_t>(row)];
    const double u = upper_[static_cast<std::size_t>(leaving)];
    const double step =
        (x_basic_[static_cast<std::size_t>(row)] - (to_upper ? u : 0.0)) /
        pivot;
    for (const int i : nz_)
      x_basic_[static_cast<std::size_t>(i)] -=
          work_[static_cast<std::size_t>(i)] * step;
    x_basic_[static_cast<std::size_t>(row)] =
        (vstat_[static_cast<std::size_t>(entering)] == kAtUpper
             ? upper_[static_cast<std::size_t>(entering)]
             : 0.0) +
        step;

    // Dual step: d -= theta * alpha_r zeroes the entering reduced cost.
    const double theta =
        entering_gap > 0.0 ? d_[static_cast<std::size_t>(entering)] /
                                 alpha_[static_cast<std::size_t>(entering)]
                           : 0.0;
    if (theta != 0.0)
      for (int j = 0; j < ncols_; ++j)
        d_[static_cast<std::size_t>(j)] -=
            theta * alpha_[static_cast<std::size_t>(j)];
    d_[static_cast<std::size_t>(entering)] = 0.0;
    d_[static_cast<std::size_t>(leaving)] = -theta;

    vstat_[static_cast<std::size_t>(leaving)] =
        to_upper && std::isfinite(u) && u > 0.0 ? kAtUpper : kAtLower;
    basis_[static_cast<std::size_t>(row)] = entering;
    vstat_[static_cast<std::size_t>(entering)] = kBasic;
    append_eta(row);
    ++iterations;
    ++dual_iterations;
    if (++pivots_since_refactor_ >= kRefactorInterval) {
      if (!refactorize()) return false;
      compute_basic_values();
      compute_reduced_costs();
    }
    degenerate_streak = theta == 0.0 ? degenerate_streak + 1 : 0;
    if (degenerate_streak >= kDualStreak) break;
  }
  check_dual_feasibility();
  return true;
}

}  // namespace

SimplexState basis_from_rows(const LpProblem& problem,
                             std::span<const int> structural_per_row) {
  const int m = problem.num_rows();
  if (static_cast<int>(structural_per_row.size()) != m)
    throw std::invalid_argument(
        "basis_from_rows: one entry per row required");
  SimplexState state;
  state.num_rows = m;
  state.num_cols = aux_columns(problem, state.basis);
  std::vector<char> used(static_cast<std::size_t>(problem.num_vars()), 0);
  for (int r = 0; r < m; ++r) {
    const int j = structural_per_row[static_cast<std::size_t>(r)];
    if (j == -1) continue;  // keep the row's slack or artificial
    if (j < -1 || j >= problem.num_vars())
      throw std::invalid_argument(
          "basis_from_rows: structural column out of range");
    if (used[static_cast<std::size_t>(j)])
      throw std::invalid_argument(
          "basis_from_rows: structural column in two rows");
    used[static_cast<std::size_t>(j)] = 1;
    state.basis[static_cast<std::size_t>(r)] = j;
  }
  state.at_upper.assign(static_cast<std::size_t>(state.num_cols), 0);
  return state;
}

LpSolution solve_lp(const LpProblem& problem) {
  SimplexState state;
  return solve_lp(problem, state);
}

LpSolution solve_lp(const LpProblem& problem, SimplexState& state) {
  RevisedSimplex simplex(problem);
  const LpSolution solution = simplex.solve(state);
#if SURFNET_CHECKS
  // The snapshot handed back for warm starts must always be installable.
  if (state.valid()) check_simplex_state_invariants(problem, state);
#endif
  return solution;
}

LpSolution solve_lp(const LpProblem& problem, SimplexState& state,
                    const obs::Sink& sink) {
  obs::ScopedTimer timer(sink.metrics, "lp.solve_seconds");
  const LpSolution solution = solve_lp(problem, state);
  if (sink.metrics) {
    sink.metrics->count("lp.solves");
    sink.metrics->count("lp.iterations", solution.iterations);
    sink.metrics->count("lp.dual_iterations", solution.dual_iterations);
    sink.metrics->count("lp.refactorizations", solution.refactorizations);
    sink.metrics->count("lp.eta_nonzeros", solution.eta_nonzeros);
    if (solution.warm_started) sink.metrics->count("lp.warm_starts");
  }
  if (sink.trace)
    sink.trace->record(obs::Event::lp_solve(
        solution.iterations, solution.refactorizations,
        solution.warm_started, static_cast<int>(solution.status),
        solution.objective));
  return solution;
}

}  // namespace surfnet::routing
