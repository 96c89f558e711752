#include "reference_simplex.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace tapacs::ilp::reference
{

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * Dense standard-form tableau: rows are constraints plus one row per
 * finite upper bound, columns are structural + slack + artificial
 * variables, plus an RHS column and a cost row. All variables are
 * >= 0; all RHS entries are >= 0.
 */
struct Tableau
{
    int rows = 0;
    int cols = 0; // excludes rhs column
    std::vector<double> a; // rows x cols, row-major
    std::vector<double> rhs;
    std::vector<double> cost;    // current phase objective
    double costShift = 0.0;      // constant part of objective
    std::vector<int> basis;      // basis[r] = basic column of row r
    std::vector<unsigned char> locked; // excluded from entering

    double &at(int r, int c) { return a[static_cast<size_t>(r) * cols + c]; }
    double at(int r, int c) const
    {
        return a[static_cast<size_t>(r) * cols + c];
    }

    void
    pivot(int pr, int pc)
    {
        const double pivval = at(pr, pc);
        tapacs_assert(std::abs(pivval) > 1e-12);
        const double inv = 1.0 / pivval;
        for (int c = 0; c < cols; ++c)
            at(pr, c) *= inv;
        rhs[pr] *= inv;
        at(pr, pc) = 1.0;
        for (int r = 0; r < rows; ++r) {
            if (r == pr)
                continue;
            const double f = at(r, pc);
            if (f == 0.0)
                continue;
            for (int c = 0; c < cols; ++c)
                at(r, c) -= f * at(pr, c);
            rhs[r] -= f * rhs[pr];
            at(r, pc) = 0.0;
        }
        const double f = cost[pc];
        if (f != 0.0) {
            for (int c = 0; c < cols; ++c)
                cost[c] -= f * at(pr, c);
            costShift -= f * rhs[pr];
            cost[pc] = 0.0;
        }
        basis[pr] = pc;
    }
};

/** Run simplex iterations on the current phase objective; the number
 *  of pivots performed is accumulated into @p pivots. */
SolveStatus
iterate(Tableau &t, double tol, int max_iters, int &pivots)
{
    bool bland = false;
    int degenerate_streak = 0;
    for (int iter = 0; iter < max_iters; ++iter) {
        // Pricing: pick entering column with negative reduced cost.
        int pc = -1;
        if (!bland) {
            double best = -tol;
            for (int c = 0; c < t.cols; ++c) {
                if (t.locked[c])
                    continue;
                if (t.cost[c] < best) {
                    best = t.cost[c];
                    pc = c;
                }
            }
        } else {
            for (int c = 0; c < t.cols; ++c) {
                if (!t.locked[c] && t.cost[c] < -tol) {
                    pc = c;
                    break;
                }
            }
        }
        if (pc < 0)
            return SolveStatus::Optimal;

        // Ratio test: pick leaving row.
        int pr = -1;
        double best_ratio = kInf;
        for (int r = 0; r < t.rows; ++r) {
            const double arc = t.at(r, pc);
            if (arc > tol) {
                const double ratio = t.rhs[r] / arc;
                if (ratio < best_ratio - 1e-12 ||
                    (bland && ratio < best_ratio + 1e-12 && pr >= 0 &&
                     t.basis[r] < t.basis[pr])) {
                    best_ratio = ratio;
                    pr = r;
                }
            }
        }
        if (pr < 0)
            return SolveStatus::Unbounded;

        if (best_ratio < 1e-12) {
            if (++degenerate_streak > 64)
                bland = true;
        } else {
            degenerate_streak = 0;
        }
        t.pivot(pr, pc);
        ++pivots;
    }
    return SolveStatus::LimitReached;
}

} // namespace

LpResult
solveLp(const Model &model, const std::vector<double> &boundsLower,
        const std::vector<double> &boundsUpper)
{
    constexpr double tol = 1e-7;
    const int n = model.numVars();
    LpResult out;

    // Effective bounds, with branch-and-bound overrides applied.
    std::vector<double> lo(n), hi(n);
    for (VarId v = 0; v < n; ++v) {
        lo[v] = boundsLower.empty() ? model.var(v).lower : boundsLower[v];
        hi[v] = boundsUpper.empty() ? model.var(v).upper : boundsUpper[v];
        if (!std::isfinite(lo[v])) {
            panic("simplex: variable '%s' has non-finite lower bound; "
                  "all TAPA-CS formulations use bounded-below variables",
                  model.var(v).name.c_str());
        }
        if (lo[v] > hi[v] + tol) {
            out.status = SolveStatus::Infeasible;
            return out;
        }
    }

    // Count rows: one per model constraint plus one per finite upper
    // bound (variables are shifted so x' = x - lo >= 0).
    struct Row
    {
        std::vector<LinTerm> terms;
        Sense sense;
        double rhs;
    };
    std::vector<Row> rowdefs;
    rowdefs.reserve(model.numConstraints() + n);
    for (const auto &c : model.constraints()) {
        Row row;
        row.sense = c.sense;
        row.rhs = c.rhs - c.expr.constant();
        for (const auto &t : c.expr.terms()) {
            row.terms.push_back(t);
            row.rhs -= t.coeff * lo[t.var];
        }
        rowdefs.push_back(std::move(row));
    }
    for (VarId v = 0; v < n; ++v) {
        if (std::isfinite(hi[v]) && hi[v] - lo[v] < kInf) {
            Row row;
            row.sense = Sense::LessEqual;
            row.rhs = hi[v] - lo[v];
            row.terms.push_back({v, 1.0});
            rowdefs.push_back(std::move(row));
        }
    }

    const int m = static_cast<int>(rowdefs.size());

    // Normalize RHS signs.
    for (auto &row : rowdefs) {
        if (row.rhs < 0.0) {
            row.rhs = -row.rhs;
            for (auto &t : row.terms)
                t.coeff = -t.coeff;
            if (row.sense == Sense::LessEqual)
                row.sense = Sense::GreaterEqual;
            else if (row.sense == Sense::GreaterEqual)
                row.sense = Sense::LessEqual;
        }
    }

    // Column layout: [structural n][slack/surplus][artificials].
    int n_slack = 0, n_art = 0;
    for (const auto &row : rowdefs) {
        if (row.sense != Sense::Equal)
            ++n_slack;
        if (row.sense != Sense::LessEqual)
            ++n_art;
    }

    Tableau t;
    t.rows = m;
    t.cols = n + n_slack + n_art;
    t.a.assign(static_cast<size_t>(t.rows) * t.cols, 0.0);
    t.rhs.assign(m, 0.0);
    t.cost.assign(t.cols, 0.0);
    t.basis.assign(m, -1);
    t.locked.assign(t.cols, 0);

    int slack_cursor = n;
    int art_cursor = n + n_slack;
    std::vector<int> art_cols;
    for (int r = 0; r < m; ++r) {
        const Row &row = rowdefs[r];
        for (const auto &term : row.terms)
            t.at(r, term.var) += term.coeff;
        t.rhs[r] = row.rhs;
        switch (row.sense) {
          case Sense::LessEqual:
            t.at(r, slack_cursor) = 1.0;
            t.basis[r] = slack_cursor++;
            break;
          case Sense::GreaterEqual:
            t.at(r, slack_cursor) = -1.0;
            ++slack_cursor;
            t.at(r, art_cursor) = 1.0;
            t.basis[r] = art_cursor;
            art_cols.push_back(art_cursor++);
            break;
          case Sense::Equal:
            t.at(r, art_cursor) = 1.0;
            t.basis[r] = art_cursor;
            art_cols.push_back(art_cursor++);
            break;
        }
    }

    const int max_iters = 200 * (t.rows + t.cols) + 2000;

    // Phase 1: minimize sum of artificials.
    if (!art_cols.empty()) {
        for (int c : art_cols)
            t.cost[c] = 1.0;
        // Reduce cost row against the initial (artificial) basis.
        for (int r = 0; r < m; ++r) {
            const int bc = t.basis[r];
            if (t.cost[bc] != 0.0) {
                const double f = t.cost[bc];
                for (int c = 0; c < t.cols; ++c)
                    t.cost[c] -= f * t.at(r, c);
                t.costShift -= f * t.rhs[r];
                t.cost[bc] = 0.0;
            }
        }
        SolveStatus st = iterate(t, tol, max_iters, out.iterations);
        if (st == SolveStatus::LimitReached) {
            out.status = st;
            return out;
        }
        const double phase1 = -t.costShift;
        if (phase1 > 1e-6 * (1.0 + std::abs(phase1))) {
            out.status = SolveStatus::Infeasible;
            return out;
        }
        // Drive any remaining basic artificials out of the basis.
        for (int r = 0; r < m; ++r) {
            const int bc = t.basis[r];
            if (bc < n + n_slack)
                continue;
            int pc = -1;
            for (int c = 0; c < n + n_slack; ++c) {
                if (std::abs(t.at(r, c)) > 1e-9) {
                    pc = c;
                    break;
                }
            }
            if (pc >= 0)
                t.pivot(r, pc);
            // else: redundant row; the basic artificial stays at zero.
        }
        for (int c : art_cols)
            t.locked[c] = true;
    }

    // Phase 2: original objective over shifted variables.
    std::fill(t.cost.begin(), t.cost.end(), 0.0);
    t.costShift = 0.0;
    for (const auto &term : model.objective().terms())
        t.cost[term.var] += term.coeff;
    for (int r = 0; r < m; ++r) {
        const int bc = t.basis[r];
        if (t.cost[bc] != 0.0) {
            const double f = t.cost[bc];
            for (int c = 0; c < t.cols; ++c)
                t.cost[c] -= f * t.at(r, c);
            t.costShift -= f * t.rhs[r];
            t.cost[bc] = 0.0;
        }
    }
    SolveStatus st = iterate(t, tol, max_iters, out.iterations);
    if (st == SolveStatus::Unbounded || st == SolveStatus::LimitReached) {
        out.status = st;
        return out;
    }

    out.status = SolveStatus::Optimal;
    out.values.assign(n, 0.0);
    for (int r = 0; r < m; ++r) {
        const int bc = t.basis[r];
        if (bc < n)
            out.values[bc] = t.rhs[r];
    }
    for (VarId v = 0; v < n; ++v)
        out.values[v] += lo[v];
    out.objective = model.objective().evaluate(out.values);
    return out;
}

} // namespace tapacs::ilp::reference
