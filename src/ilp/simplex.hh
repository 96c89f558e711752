/**
 * @file
 * Bounded-variable simplex engine for the LP relaxations solved at
 * every branch-and-bound node.
 *
 * The engine keeps one dense tableau B^-1 [A I] over the structural
 * columns plus one slack per constraint (a.x + s = b, with the slack's
 * bounds encoding the sense). Variable bounds — including the [0,1]
 * box of every binary and the bound changes branch-and-bound makes —
 * are implicit: a nonbasic column sits at its lower or upper bound, and
 * no bound ever becomes a row. A pivot touches only the nonzero
 * columns of the pivot row.
 *
 * The first solve is cold, from the slack basis. When every cost
 * points at a finite bound (true of every floorplanning model: the
 * costs are nonnegative or sit on binaries) that basis is already dual
 * feasible and the solve runs the same dual iterations a warm solve
 * does; otherwise it runs primal phase 1 (sum of infeasibilities) and
 * phase 2. Every later solve starts from the basis the previous one
 * left behind — which stays dual feasible under any bound change — and
 * runs dual simplex iterations on slightly perturbed costs, then
 * removes the perturbation and finishes with primal iterations before
 * reporting. Reduced costs are recomputed only when the basis moved
 * (a pivot or a rebuild) since they were last computed exactly, and a
 * perturbed dual pass that makes no pivot restores the exact costs it
 * saved; both shortcuts yield bit-identical values. A warm solve that
 * exceeds its iteration cap (derived from the model size) is
 * abandoned and re-run cold; those fallbacks are counted. Both ratio
 * tests use Harris' two-pass rule, the dual picks its leaving row by
 * steepest edge, and the tableau is rebuilt from the model rows
 * periodically — and before an infeasibility proof resting on
 * noise-level entries is trusted — so rounding error cannot
 * accumulate across nodes.
 */

#ifndef TAPACS_ILP_SIMPLEX_HH
#define TAPACS_ILP_SIMPLEX_HH

#include <cstdint>
#include <vector>

#include "common/context.hh"
#include "ilp/model.hh"

namespace tapacs::ilp
{

/** Numerical tolerance for feasibility and reduced costs. */
inline constexpr double kLpTol = 1e-7;

/** Result of an LP relaxation solve. */
struct LpResult
{
    SolveStatus status = SolveStatus::LimitReached;
    double objective = 0.0;
    std::vector<double> values; ///< one value per model variable
    /** Simplex iterations (pivots and bound flips) this solve spent,
     *  including a discarded warm attempt (the solver's per-node
     *  effort metric, surfaced in SolverStats). */
    int iterations = 0;
};

/**
 * LP engine bound to one model. Successive solve() calls differ only
 * in the variable bounds and reuse the previous basis.
 *
 * Not thread-safe; one engine serves one search.
 */
class LpEngine
{
  public:
    /**
     * @p model must outlive the engine and stay unchanged. @p ctx is
     * polled every few dozen iterations; when it expires the solve
     * unwinds with SolveStatus::LimitReached and branch-and-bound
     * stops at its next node.
     */
    explicit LpEngine(const Model &model, Context ctx = {});

    /**
     * Solve the LP relaxation under per-variable bounds.
     *
     * @param lower per-variable lower bounds (empty = model bounds).
     * @param upper per-variable upper bounds (empty = model bounds).
     */
    LpResult solve(const std::vector<double> &lower = {},
                   const std::vector<double> &upper = {});

    /** Warm solves abandoned for a cold re-solve so far. */
    std::int64_t coldFallbacks() const { return coldFallbacks_; }

  private:
    LpResult solveCold();
    /** Dual-then-primal re-solve from the retained basis; false when
     *  it has to give up (cap, or a dual-infeasible unbounded column),
     *  leaving @p out.iterations updated for the fallback. */
    bool solveWarm(LpResult &out);

    void loadSlackBasis();
    /** Rebuild B^-1 [A I] for the current basis from the model rows;
     *  false if the basis turned numerically singular. */
    bool rebuild();
    void pivot(int row, int col);
    void computeBasicValues();
    /** Reduced costs of cost_ into d_; a no-op while d_ is still
     *  exact (no pivot or reload since it was last computed). */
    void computeReducedCosts();
    double *tableauRow(int row)
    {
        return &tab_[static_cast<size_t>(row) * cols_];
    }
    const double *tableauRow(int row) const
    {
        return &tab_[static_cast<size_t>(row) * cols_];
    }
    double value(int col) const
    {
        return atUpper_[col] ? upper_[col] : lower_[col];
    }
    /** Signed bound violation of the basic variable in @p row (0 when
     *  within tolerance, negative below lower, positive above upper). */
    double violation(int row) const;

    /** Put each nonbasic column on the bound its reduced cost points
     *  at, making the basis dual feasible; false when a cost points at
     *  an infinite bound. */
    bool placeNonbasic();
    SolveStatus primal(bool phase1, int cap, int &iterations);
    SolveStatus dual(int cap, int &iterations);
    /** Perturb the nonbasic costs and run dual iterations. */
    SolveStatus perturbedDual(int cap, int &iterations);
    /** Dual iterations on perturbed costs (re-run on a rebuilt tableau
     *  when an infeasibility proof rests on noise-level entries), then
     *  primal iterations on the true costs. */
    SolveStatus dualThenPrimal(int cap, int &iterations);
    void finish(LpResult &out) const;

    const Model &model_;
    Context ctx_;
    int n_ = 0;    ///< structural columns
    int m_ = 0;    ///< rows (= slack columns)
    int cols_ = 0; ///< n_ + m_

    std::vector<std::vector<LinTerm>> rows_; ///< model rows, structural
    std::vector<double> rhs_;                ///< b, constants folded in
    std::vector<double> cost_;               ///< objective per column
    std::vector<double> lower_, upper_;      ///< current column bounds

    std::vector<double> tab_;    ///< B^-1 [A I], m_ x cols_ row-major
    std::vector<double> binvB_;  ///< B^-1 b
    std::vector<double> d_;      ///< reduced costs of the working cost
    std::vector<double> unperturbed_; ///< d_ before perturbedDual
    std::vector<double> phase1_; ///< phase-1 reduced costs (scratch)
    std::vector<double> beta_;   ///< basic variable values per row
    std::vector<int> basis_;     ///< basic column per row
    std::vector<int> rowOf_;     ///< row of a basic column, else -1
    std::vector<double> weight_; ///< dual steepest-edge weight per row
    std::vector<unsigned char> atUpper_; ///< nonbasic position
    std::vector<int> idx_;       ///< scratch: pivot-row support
    std::vector<double> val_;    ///< scratch: scaled pivot-row values

    bool hasBasis_ = false;
    /** Set when dual() proved infeasibility from a row whose
     *  qualifying entries were all below the pivot tolerance. */
    bool noisyProof_ = false;
    int pivotsSinceRebuild_ = 0;
    /** Bumped by every pivot and basis reload. */
    std::uint64_t epoch_ = 0;
    /** epoch_ at which d_ last held the exact reduced costs of cost_
     *  (perturbedDual restores them before returning when its dual
     *  pass made no pivot, so the equality implies exactness). */
    std::uint64_t freshEpoch_ = ~std::uint64_t{0};
    std::int64_t coldFallbacks_ = 0;
};

/**
 * Solve the LP relaxation of @p model once, cold.
 *
 * @param model the MILP whose relaxation to solve.
 * @param lower optional per-variable lower-bound overrides.
 * @param upper optional per-variable upper-bound overrides.
 */
LpResult solveLp(const Model &model, const std::vector<double> &lower = {},
                 const std::vector<double> &upper = {});

} // namespace tapacs::ilp

#endif // TAPACS_ILP_SIMPLEX_HH
