#include "ilp/simplex.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace tapacs::ilp
{

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();
/** Smallest tableau entry accepted as a pivot. */
constexpr double kPivotTol = 1e-9;
/** Pivot-row entries below this after scaling are rounding noise. */
constexpr double kDropTol = 1e-13;
/** Relative size of the dual cost perturbation (see perturbedDual). */
constexpr double kPerturb = 1e-5;
/** Consecutive degenerate primal steps before Bland's rule. */
constexpr int kDegenerateLimit = 64;

/** Deterministic per-column factor in [1, 2) for the perturbation. */
double
perturbFactor(int col)
{
    std::uint64_t z = static_cast<std::uint64_t>(col) + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return 1.0 + static_cast<double>(z >> 11) * 0x1.0p-53;
}

} // namespace

LpEngine::LpEngine(const Model &model, Context ctx)
    : model_(model), ctx_(ctx), n_(model.numVars()),
      m_(model.numConstraints()), cols_(n_ + m_)
{
    rows_.resize(m_);
    rhs_.resize(m_);
    lower_.assign(cols_, 0.0);
    upper_.assign(cols_, 0.0);
    cost_.assign(cols_, 0.0);
    for (int i = 0; i < m_; ++i) {
        const Constraint &c = model.constraints()[i];
        rows_[i] = c.expr.terms();
        rhs_[i] = c.rhs - c.expr.constant();
        // a.x + s = b: the slack's bounds carry the sense.
        double &lo = lower_[n_ + i];
        double &hi = upper_[n_ + i];
        switch (c.sense) {
          case Sense::LessEqual: lo = 0.0; hi = kInf; break;
          case Sense::GreaterEqual: lo = -kInf; hi = 0.0; break;
          case Sense::Equal: lo = 0.0; hi = 0.0; break;
        }
    }
    for (const auto &t : model.objective().terms())
        cost_[t.var] += t.coeff;
    tab_.assign(static_cast<size_t>(m_) * cols_, 0.0);
    binvB_.resize(m_);
    d_.resize(cols_);
    phase1_.resize(cols_);
    beta_.resize(m_);
    basis_.resize(m_);
    rowOf_.resize(cols_);
    weight_.resize(m_);
    atUpper_.assign(cols_, 0);
    idx_.reserve(cols_);
    val_.reserve(cols_);
}

double
LpEngine::violation(int row) const
{
    const int j = basis_[row];
    const double x = beta_[row];
    const double tol = kLpTol;
    if (x < lower_[j] - tol * (1.0 + std::abs(lower_[j])))
        return x - lower_[j];
    if (x > upper_[j] + tol * (1.0 + std::abs(upper_[j])))
        return x - upper_[j];
    return 0.0;
}

void
LpEngine::loadSlackBasis()
{
    std::fill(tab_.begin(), tab_.end(), 0.0);
    for (int i = 0; i < m_; ++i) {
        double *row = tableauRow(i);
        for (const auto &t : rows_[i])
            row[t.var] += t.coeff;
        row[n_ + i] = 1.0;
        binvB_[i] = rhs_[i];
        basis_[i] = n_ + i;
    }
    std::fill(weight_.begin(), weight_.end(), 1.0);
    std::fill(rowOf_.begin(), rowOf_.begin() + n_, -1);
    for (int i = 0; i < m_; ++i)
        rowOf_[n_ + i] = i;
    pivotsSinceRebuild_ = 0;
    ++epoch_;
    hasBasis_ = true;
}

bool
LpEngine::rebuild()
{
    const std::vector<int> target = basis_;
    std::vector<unsigned char> keep(cols_, 0);
    for (int j : target)
        keep[j] = 1;
    loadSlackBasis();
    // Gauss-Jordan with partial pivoting: bring each basic structural
    // in on the row with the largest entry among rows whose slack is
    // not itself basic. d_ is stale here and recomputed by the caller.
    std::fill(d_.begin(), d_.end(), 0.0);
    for (int j : target) {
        if (j >= n_)
            continue;
        int r = -1;
        double best = kPivotTol;
        for (int i = 0; i < m_; ++i) {
            if (keep[basis_[i]])
                continue;
            const double a = std::abs(tableauRow(i)[j]);
            if (a > best) {
                best = a;
                r = i;
            }
        }
        if (r < 0)
            return false;
        pivot(r, j);
    }
    // Exact dual steepest-edge weights for the rebuilt inverse.
    for (int i = 0; i < m_; ++i) {
        const double *row = tableauRow(i) + n_;
        double w = 0.0;
        for (int k = 0; k < m_; ++k)
            w += row[k] * row[k];
        weight_[i] = w;
    }
    pivotsSinceRebuild_ = 0;
    return true;
}

void
LpEngine::pivot(int r, int q)
{
    double *prow = tableauRow(r);
    const double inv = 1.0 / prow[q];
    // Gather the scaled pivot row once; idx_ is ascending, so the
    // inverse block (columns >= n_) is its tail from inverse_begin.
    idx_.clear();
    val_.clear();
    for (int j = 0; j < cols_; ++j) {
        if (prow[j] == 0.0)
            continue;
        double v = j == q ? 1.0 : prow[j] * inv;
        if (std::abs(v) < kDropTol)
            v = 0.0;
        prow[j] = v;
        if (v != 0.0) {
            idx_.push_back(j);
            val_.push_back(v);
        }
    }
    binvB_[r] *= inv;
    const int nnz = static_cast<int>(idx_.size());
    const int *idx = idx_.data();
    const double *val = val_.data();
    const int inverse_begin = static_cast<int>(
        std::lower_bound(idx_.begin(), idx_.end(), n_) - idx_.begin());
    // Dual steepest-edge weights track ||row i of B^-1||^2, the slack
    // block of the tableau.
    double prow_norm = 0.0;
    for (int k = inverse_begin; k < nnz; ++k)
        prow_norm += val[k] * val[k];
    for (int i = 0; i < m_; ++i) {
        if (i == r)
            continue;
        double *row = tableauRow(i);
        const double f = row[q];
        if (f == 0.0)
            continue;
        // One pass: the old entries feed the weight update's dot
        // product (same order as a separate sweep would take) before
        // being overwritten.
        for (int k = 0; k < inverse_begin; ++k) {
            const double v = row[idx[k]] - f * val[k];
            row[idx[k]] = std::abs(v) < kDropTol ? 0.0 : v;
        }
        double dot = 0.0;
        for (int k = inverse_begin; k < nnz; ++k) {
            const double old = row[idx[k]];
            dot += old * val[k];
            const double v = old - f * val[k];
            row[idx[k]] = std::abs(v) < kDropTol ? 0.0 : v;
        }
        row[q] = 0.0;
        binvB_[i] -= f * binvB_[r];
        weight_[i] = std::max(weight_[i] - 2.0 * f * dot + f * f * prow_norm,
                              1e-12);
    }
    weight_[r] = std::max(prow_norm, 1e-12);
    const double f = d_[q];
    if (f != 0.0) {
        for (int k = 0; k < nnz; ++k)
            d_[idx[k]] -= f * val[k];
        d_[q] = 0.0;
    }
    rowOf_[basis_[r]] = -1;
    basis_[r] = q;
    rowOf_[q] = r;
    ++pivotsSinceRebuild_;
    ++epoch_;
}

void
LpEngine::computeBasicValues()
{
    beta_ = binvB_;
    for (int j = 0; j < cols_; ++j) {
        if (rowOf_[j] >= 0)
            continue;
        const double x = value(j);
        if (x == 0.0)
            continue;
        for (int i = 0; i < m_; ++i)
            beta_[i] -= tableauRow(i)[j] * x;
    }
}

void
LpEngine::computeReducedCosts()
{
    // No pivot since the last computation: d_ already holds exactly
    // what this loop would produce.
    if (freshEpoch_ == epoch_)
        return;
    d_ = cost_;
    for (int i = 0; i < m_; ++i) {
        const double cb = cost_[basis_[i]];
        if (cb == 0.0)
            continue;
        const double *row = tableauRow(i);
        for (int j = 0; j < cols_; ++j)
            d_[j] -= cb * row[j];
    }
    for (int i = 0; i < m_; ++i)
        d_[basis_[i]] = 0.0;
    freshEpoch_ = epoch_;
}

SolveStatus
LpEngine::primal(bool phase1, int cap, int &iterations)
{
    const double tol = kLpTol;
    bool bland = false;
    int degenerate = 0;
    for (int k = 0;; ++k) {
        if ((k & 63) == 0 && ctx_.expired())
            return SolveStatus::LimitReached;

        // Phase 1 prices the sum of infeasibilities: basic cost -1
        // below the lower bound, +1 above the upper bound.
        if (phase1) {
            std::fill(phase1_.begin(), phase1_.end(), 0.0);
            bool infeasible = false;
            for (int i = 0; i < m_; ++i) {
                const double v = violation(i);
                if (v == 0.0)
                    continue;
                infeasible = true;
                const double w = v < 0.0 ? -1.0 : 1.0;
                const double *row = tableauRow(i);
                for (int j = 0; j < cols_; ++j)
                    phase1_[j] -= w * row[j];
            }
            if (!infeasible)
                return SolveStatus::Optimal;
        }
        if (k >= cap)
            return SolveStatus::LimitReached;
        const std::vector<double> &d = phase1 ? phase1_ : d_;

        // Pricing: Dantzig, or Bland's lowest index when stalling.
        int q = -1;
        double best = tol;
        for (int j = 0; j < cols_; ++j) {
            if (rowOf_[j] >= 0 || lower_[j] == upper_[j])
                continue;
            const double gain = atUpper_[j] ? d[j] : -d[j];
            if (gain > best) {
                best = gain;
                q = j;
                if (bland)
                    break;
            }
        }
        if (q < 0)
            return phase1 ? SolveStatus::Infeasible : SolveStatus::Optimal;
        const double dir = atUpper_[q] ? -1.0 : 1.0;

        // Ratio test. Basic i moves by -alpha * t; in phase 1 an
        // infeasible basic only limits the step where it regains
        // feasibility. Harris: pass one finds the largest step with
        // bounds relaxed by the tolerance, pass two takes the largest
        // pivot among rows that block within it.
        auto limit = [&](int i, double alpha, double *target) {
            const int j = basis_[i];
            const double x = beta_[i];
            const double v = phase1 ? violation(i) : 0.0;
            if (alpha > 0.0) {
                if (v > 0.0) {
                    *target = upper_[j];
                    return (x - upper_[j]) / alpha;
                }
                if (v < 0.0 || lower_[j] == -kInf)
                    return kInf;
                *target = lower_[j];
                return (x - lower_[j]) / alpha;
            }
            if (v < 0.0) {
                *target = lower_[j];
                return (lower_[j] - x) / -alpha;
            }
            if (v > 0.0 || upper_[j] == kInf)
                return kInf;
            *target = upper_[j];
            return (upper_[j] - x) / -alpha;
        };
        double relaxed = kInf;
        for (int i = 0; i < m_; ++i) {
            const double alpha = dir * tableauRow(i)[q];
            if (std::abs(alpha) <= kPivotTol)
                continue;
            double target = 0.0;
            const double t = limit(i, alpha, &target);
            if (t == kInf)
                continue;
            const double slack = tol * (1.0 + std::abs(target));
            relaxed = std::min(relaxed, t + slack / std::abs(alpha));
        }
        // Under Bland's rule the blocking rows are those at the minimum
        // ratio (within rounding), and the lowest column index leaves.
        if (bland && relaxed < kInf) {
            double least = kInf;
            for (int i = 0; i < m_; ++i) {
                const double alpha = dir * tableauRow(i)[q];
                if (std::abs(alpha) <= kPivotTol)
                    continue;
                double target = 0.0;
                least = std::min(least,
                                 std::max(limit(i, alpha, &target), 0.0));
            }
            relaxed = least + 1e-12 * (1.0 + least);
        }
        int r = -1;
        double step = kInf, r_target = 0.0, r_alpha = 0.0;
        for (int i = 0; i < m_ && relaxed < kInf; ++i) {
            const double alpha = dir * tableauRow(i)[q];
            if (std::abs(alpha) <= kPivotTol)
                continue;
            double target = 0.0;
            const double t = limit(i, alpha, &target);
            if (t > relaxed)
                continue;
            const bool take =
                bland ? (r < 0 || basis_[i] < basis_[r])
                      : (r < 0 || std::abs(alpha) > std::abs(r_alpha));
            if (take) {
                r = i;
                step = t;
                r_target = target;
                r_alpha = alpha;
            }
        }
        step = std::max(step, 0.0);
        const double range = upper_[q] - lower_[q];
        if (r < 0 && range == kInf)
            return phase1 ? SolveStatus::LimitReached
                          : SolveStatus::Unbounded;

        if (r < 0 || range <= step) {
            // Bound flip: the entering column crosses its whole box.
            for (int i = 0; i < m_; ++i)
                beta_[i] -= dir * range * tableauRow(i)[q];
            atUpper_[q] = !atUpper_[q];
            degenerate = 0;
        } else {
            const double delta = dir * step;
            for (int i = 0; i < m_; ++i)
                beta_[i] -= delta * tableauRow(i)[q];
            const double entering = value(q) + delta;
            const int leaving = basis_[r];
            atUpper_[leaving] = r_target == upper_[leaving] &&
                                lower_[leaving] != upper_[leaving];
            pivot(r, q);
            beta_[r] = entering;
            if (step < 1e-12) {
                if (++degenerate > kDegenerateLimit)
                    bland = true;
            } else {
                degenerate = 0;
            }
        }
        ++iterations;
    }
}

SolveStatus
LpEngine::dual(int cap, int &iterations)
{
    const double tol = kLpTol;
    for (int k = 0;; ++k) {
        if ((k & 63) == 0 && ctx_.expired())
            return SolveStatus::LimitReached;

        // Leaving row: dual steepest edge, the largest violation
        // relative to the norm of its row of B^-1.
        int r = -1;
        double worst = 0.0;
        for (int i = 0; i < m_; ++i) {
            const double v = violation(i);
            if (v != 0.0 && v * v > worst * weight_[i]) {
                worst = v * v / weight_[i];
                r = i;
            }
        }
        if (r < 0)
            return SolveStatus::Optimal;
        if (k >= cap)
            return SolveStatus::LimitReached;
        const int leaving = basis_[r];
        const bool below = beta_[r] < lower_[leaving];
        const double target = below ? lower_[leaving] : upper_[leaving];
        const double need = below ? 1.0 : -1.0; // direction beta_r moves

        // Dual ratio test (Harris): nonbasic j moving off its bound in
        // direction dir changes beta_r by -a_rj * dir; it qualifies when
        // that pushes beta_r toward the violated bound.
        const double *prow = tableauRow(r);
        auto qualifies = [&](int j) {
            return rowOf_[j] < 0 && lower_[j] != upper_[j] &&
                   -prow[j] * (atUpper_[j] ? -1.0 : 1.0) * need > 0.0;
        };
        double relaxed = kInf;
        for (int j = 0; j < cols_; ++j) {
            if (std::abs(prow[j]) <= kPivotTol || !qualifies(j))
                continue;
            const double dir = atUpper_[j] ? -1.0 : 1.0;
            relaxed = std::min(relaxed,
                               (dir * d_[j] + tol) / std::abs(prow[j]));
        }
        if (relaxed == kInf) {
            // No usable pivot: the row proves infeasibility. The proof
            // is doubtful when qualifying entries exist below the
            // pivot tolerance — rounding noise or real, only a fresh
            // tableau can tell.
            noisyProof_ = false;
            for (int j = 0; j < cols_ && !noisyProof_; ++j)
                noisyProof_ = qualifies(j);
            return SolveStatus::Infeasible;
        }
        relaxed = std::max(relaxed, 0.0);
        int q = -1;
        double q_abs = 0.0;
        for (int j = 0; j < cols_; ++j) {
            const double a = std::abs(prow[j]);
            if (a <= kPivotTol || !qualifies(j))
                continue;
            const double dir = atUpper_[j] ? -1.0 : 1.0;
            if (std::max(dir * d_[j], 0.0) / a <= relaxed && a > q_abs) {
                q_abs = a;
                q = j;
            }
        }

        // A Harris pick may carry a slightly wrong-signed reduced cost;
        // shift it to zero so the dual step never goes backwards.
        if ((atUpper_[q] ? -d_[q] : d_[q]) < 0.0)
            d_[q] = 0.0;
        const double delta = (beta_[r] - target) / prow[q];
        for (int i = 0; i < m_; ++i)
            beta_[i] -= delta * tableauRow(i)[q];
        const double entering = value(q) + delta;
        atUpper_[leaving] = !below && lower_[leaving] != upper_[leaving];
        pivot(r, q);
        beta_[r] = entering;
        ++iterations;
    }
}

bool
LpEngine::placeNonbasic()
{
    const double tol = kLpTol;
    for (int j = 0; j < cols_; ++j) {
        if (rowOf_[j] >= 0)
            continue;
        if (lower_[j] == upper_[j]) {
            atUpper_[j] = 0;
            continue;
        }
        bool up = atUpper_[j];
        if (d_[j] > tol)
            up = false;
        else if (d_[j] < -tol)
            up = true;
        if ((up ? upper_[j] : lower_[j]) == (up ? kInf : -kInf)) {
            if (std::abs(d_[j]) > tol)
                return false;
            up = !up;
        }
        atUpper_[j] = up;
    }
    return true;
}

SolveStatus
LpEngine::perturbedDual(int cap, int &iterations)
{
    // Perturb the nonbasic costs away from their bounds so ties in the
    // dual ratio test break deterministically instead of stalling.
    // Every caller enters with exact reduced costs; keep them, so a
    // dual pass that never pivots can hand them back unchanged.
    unperturbed_ = d_;
    const std::uint64_t epoch = epoch_;
    for (int j = 0; j < cols_; ++j) {
        if (rowOf_[j] >= 0 || lower_[j] == upper_[j])
            continue;
        const double eps =
            kPerturb * (1.0 + std::abs(cost_[j])) * perturbFactor(j);
        d_[j] += atUpper_[j] ? -eps : eps;
    }
    computeBasicValues();
    noisyProof_ = false;
    const SolveStatus st = dual(cap, iterations);
    if (epoch_ == epoch)
        d_.swap(unperturbed_);
    return st;
}

SolveStatus
LpEngine::dualThenPrimal(int cap, int &iterations)
{
    SolveStatus st = perturbedDual(cap, iterations);
    if (st == SolveStatus::Infeasible && noisyProof_ &&
        pivotsSinceRebuild_ > 0) {
        // Re-derive the tableau and look again before trusting it.
        if (!rebuild())
            return SolveStatus::LimitReached;
        computeReducedCosts();
        if (!placeNonbasic())
            return SolveStatus::LimitReached;
        st = perturbedDual(cap, iterations);
    }
    if (st != SolveStatus::Optimal)
        return st;
    // Remove the perturbation; primal iterations repair any dual
    // infeasibility it was hiding before the bound is reported.
    computeReducedCosts();
    return primal(false, cap, iterations);
}

LpResult
LpEngine::solveCold()
{
    LpResult out;
    loadSlackBasis();
    std::fill(atUpper_.begin(), atUpper_.begin() + n_, 0);
    computeReducedCosts();
    const int cap = 20 * (m_ + cols_) + 1000;
    SolveStatus st;
    if (placeNonbasic()) {
        st = dualThenPrimal(cap, out.iterations);
    } else {
        // Some cost points at an infinite bound: primal phase 1 from
        // the slack basis with every structural at its lower bound.
        std::fill(atUpper_.begin(), atUpper_.begin() + n_, 0);
        computeBasicValues();
        st = primal(true, cap, out.iterations);
        if (st == SolveStatus::Optimal)
            st = primal(false, cap, out.iterations);
    }
    out.status = st;
    if (st == SolveStatus::Optimal)
        finish(out);
    return out;
}

bool
LpEngine::solveWarm(LpResult &out)
{
    if (pivotsSinceRebuild_ > 2 * (m_ + n_) + 100 && !rebuild())
        return false;
    // The retained basis is dual feasible under any bounds once each
    // nonbasic column sits on the bound its reduced cost points at.
    computeReducedCosts();
    if (!placeNonbasic())
        return false;
    const SolveStatus st = dualThenPrimal((m_ + n_) / 2 + 50,
                                          out.iterations);
    if (st == SolveStatus::LimitReached && !ctx_.expired())
        return false;
    out.status = st;
    if (st == SolveStatus::Optimal)
        finish(out);
    return true;
}

void
LpEngine::finish(LpResult &out) const
{
    out.values.resize(n_);
    for (int j = 0; j < n_; ++j)
        out.values[j] = rowOf_[j] >= 0 ? beta_[rowOf_[j]] : value(j);
    out.objective = model_.objective().evaluate(out.values);
}

LpResult
LpEngine::solve(const std::vector<double> &lower,
                const std::vector<double> &upper)
{
    for (VarId v = 0; v < n_; ++v) {
        const double lo = lower.empty() ? model_.var(v).lower : lower[v];
        const double hi = upper.empty() ? model_.var(v).upper : upper[v];
        if (!std::isfinite(lo)) {
            panic("simplex: variable '%s' has non-finite lower bound; "
                  "all TAPA-CS formulations use bounded-below variables",
                  model_.var(v).name.c_str());
        }
        if (lo > hi + kLpTol) {
            LpResult out;
            out.status = SolveStatus::Infeasible;
            return out;
        }
        lower_[v] = lo;
        upper_[v] = std::max(lo, hi);
    }

    if (hasBasis_) {
        LpResult out;
        if (solveWarm(out))
            return out;
        ++coldFallbacks_;
        LpResult cold = solveCold();
        cold.iterations += out.iterations;
        return cold;
    }
    return solveCold();
}

LpResult
solveLp(const Model &model, const std::vector<double> &lower,
        const std::vector<double> &upper)
{
    LpEngine engine(model);
    return engine.solve(lower, upper);
}

} // namespace tapacs::ilp
