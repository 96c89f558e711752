#include "ilp/solver.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/logging.hh"
#include "obs/trace.hh"

namespace tapacs::ilp
{

namespace
{

/** Pending branch-and-bound node: per-variable bound overrides. */
struct Node
{
    std::vector<double> lo;
    std::vector<double> hi;
    double parentBound = -std::numeric_limits<double>::infinity();
    bool isRoot = false;
};

/** Root node spanning the model's own bounds. */
Node
makeRoot(const Model &model)
{
    const int n = model.numVars();
    Node root;
    root.isRoot = true;
    root.lo.resize(n);
    root.hi.resize(n);
    for (VarId v = 0; v < n; ++v) {
        root.lo[v] = model.var(v).lower;
        root.hi[v] = model.var(v).upper;
    }
    return root;
}

} // namespace

void
SolverStats::merge(const SolverStats &other)
{
    nodesExplored += other.nodesExplored;
    lpSolves += other.lpSolves;
    lpIterations += other.lpIterations;
    coldFallbacks += other.coldFallbacks;
    incumbentUpdates += other.incumbentUpdates;
    wallSeconds += other.wallSeconds;
    provenOptimal = provenOptimal && other.provenOptimal;
    threadsUsed = std::max(threadsUsed, other.threadsUsed);
}

BranchBoundSolver::BranchBoundSolver(SolverOptions options)
    : options_(options)
{
}

Solution
BranchBoundSolver::solve(const Model &model,
                         const std::vector<double> &warmStart)
{
    obs::TraceSpan span("ilp", "ilp.solve");
    stats_ = SolverStats{};
    const auto t_start = std::chrono::steady_clock::now();
    const std::vector<VarId> int_vars = model.integerVars();

    Solution best;
    best.status = SolveStatus::LimitReached;
    double incumbent = std::numeric_limits<double>::infinity();

    if (!warmStart.empty() && model.isFeasible(warmStart, kIntTol)) {
        best.status = SolveStatus::Feasible;
        best.values = warmStart;
        best.objective = model.objective().evaluate(warmStart);
        incumbent = best.objective;
    }

    // Depth-first stack; LIFO keeps memory small and finds integer
    // solutions quickly, which matters more than best-bound order for
    // the well-structured partitioning models we feed it. It also
    // keeps consecutive nodes close in the tree, so the warm basis
    // the engine carries over needs few dual iterations.
    std::vector<Node> stack;
    stack.push_back(makeRoot(model));

    // The node LPs poll the same deadline the node loop does, so an
    // expired request unwinds from inside a pivot loop too.
    LpEngine engine(model, options_.ctx);
    bool exhausted_cleanly = true;
    bool root_unbounded = false;

    while (!stack.empty()) {
        if (options_.ctx.expired() ||
            stats_.nodesExplored >= options_.maxNodes) {
            exhausted_cleanly = false;
            break;
        }

        Node node = std::move(stack.back());
        stack.pop_back();
        ++stats_.nodesExplored;

        if (node.parentBound >=
            incumbent - kRelativeGap * (1.0 + std::abs(incumbent)))
            continue;

        LpResult lp = engine.solve(node.lo, node.hi);
        ++stats_.lpSolves;
        stats_.lpIterations += lp.iterations;
        if (options_.nodeObserver)
            options_.nodeObserver(model, node.lo, node.hi, lp);

        if (lp.status == SolveStatus::Infeasible)
            continue;
        if (lp.status == SolveStatus::Unbounded) {
            if (node.isRoot) {
                root_unbounded = true;
                break;
            }
            // An LP bounded at the root cannot become unbounded in a
            // child whose feasible set is a subset; treat as numeric
            // trouble and skip.
            warn("branch-and-bound: child LP reported unbounded");
            continue;
        }
        if (lp.status == SolveStatus::LimitReached) {
            exhausted_cleanly = false;
            continue;
        }

        if (lp.objective >=
            incumbent - kRelativeGap * (1.0 + std::abs(incumbent)))
            continue;

        // Branch on the fractional variable closest to rounding up.
        // On the assignment models the floorplanners emit, that is the
        // placement the LP leans toward most; taking its up branch
        // first settles one vertex per level, so a depth-first dive
        // reaches an integral leaf within a node budget of ~150.
        VarId branch_var = -1;
        double best_frac = 0.0;
        for (VarId v : int_vars) {
            const double x = lp.values[v];
            if (std::abs(x - std::round(x)) <= kIntTol)
                continue;
            const double frac = x - std::floor(x);
            if (frac > best_frac) {
                best_frac = frac;
                branch_var = v;
            }
        }

        if (branch_var < 0) {
            // Integer feasible: round off numeric fuzz and accept.
            std::vector<double> vals = std::move(lp.values);
            for (VarId v : int_vars)
                vals[v] = std::round(vals[v]);
            const double obj = model.objective().evaluate(vals);
            if (obj < incumbent && model.isFeasible(vals, 1e-5)) {
                incumbent = obj;
                best.values = std::move(vals);
                best.objective = obj;
                best.status = SolveStatus::Feasible;
                ++stats_.incumbentUpdates;
            }
            continue;
        }

        const double x = lp.values[branch_var];
        const double floor_x = std::floor(x);

        Node down = node;
        down.isRoot = false;
        down.hi[branch_var] = floor_x;
        down.parentBound = lp.objective;
        Node up = std::move(node);
        up.isRoot = false;
        up.lo[branch_var] = floor_x + 1.0;
        up.parentBound = lp.objective;

        // Up branch on top of the stack: explored first.
        stack.push_back(std::move(down));
        stack.push_back(std::move(up));
    }

    stats_.coldFallbacks = engine.coldFallbacks();
    stats_.wallSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t_start)
                             .count();

    if (root_unbounded) {
        best.status = SolveStatus::Unbounded;
    } else if (best.status == SolveStatus::Feasible && exhausted_cleanly) {
        best.status = SolveStatus::Optimal;
        stats_.provenOptimal = true;
    } else if (best.status == SolveStatus::LimitReached &&
               exhausted_cleanly) {
        best.status = SolveStatus::Infeasible;
    }
    span.arg("vars", static_cast<std::int64_t>(model.numVars()))
        .arg("rows", static_cast<std::int64_t>(model.numConstraints()))
        .arg("nodes", stats_.nodesExplored)
        .arg("lp_solves", stats_.lpSolves)
        .arg("lp_iterations", stats_.lpIterations)
        .arg("cold_fallbacks", stats_.coldFallbacks)
        .arg("incumbent_updates", stats_.incumbentUpdates)
        .arg("proven_optimal",
             static_cast<std::int64_t>(stats_.provenOptimal));
    return best;
}

Solution
ExhaustiveSolver::solve(const Model &model, std::uint64_t maxStates)
{
    const std::vector<VarId> int_vars = model.integerVars();
    const int n = model.numVars();

    if (int_vars.empty()) {
        // Pure LP: a single relaxation solve decides the model, so
        // report its status directly instead of entering the
        // enumeration loop with an empty odometer.
        LpResult lp = solveLp(model);
        Solution s;
        s.status = lp.status;
        if (lp.status == SolveStatus::Optimal) {
            if (model.isFeasible(lp.values, 1e-5)) {
                s.values = std::move(lp.values);
                s.objective = lp.objective;
            } else {
                s.status = SolveStatus::Infeasible;
            }
        }
        return s;
    }

    // Compute the enumeration domain of each integral variable.
    std::vector<long> lo(int_vars.size()), hi(int_vars.size());
    std::uint64_t states = 1;
    for (size_t i = 0; i < int_vars.size(); ++i) {
        const Variable &v = model.var(int_vars[i]);
        tapacs_assert(std::isfinite(v.lower) && std::isfinite(v.upper));
        lo[i] = std::lround(std::ceil(v.lower));
        hi[i] = std::lround(std::floor(v.upper));
        if (lo[i] > hi[i]) {
            Solution s;
            s.status = SolveStatus::Infeasible;
            return s;
        }
        const std::uint64_t span =
            static_cast<std::uint64_t>(hi[i] - lo[i] + 1);
        if (states > maxStates / span) {
            panic("ExhaustiveSolver: search space exceeds %llu states",
                  static_cast<unsigned long long>(maxStates));
        }
        states *= span;
    }

    Solution best;
    best.status = SolveStatus::Infeasible;
    double incumbent = std::numeric_limits<double>::infinity();

    std::vector<long> cur(lo);
    bool done = false;
    while (!done) {
        // Fix the integral variables via bound overrides, then let the
        // LP place any continuous variables optimally.
        std::vector<double> blo(n), bhi(n);
        for (VarId v = 0; v < n; ++v) {
            blo[v] = model.var(v).lower;
            bhi[v] = model.var(v).upper;
        }
        for (size_t i = 0; i < int_vars.size(); ++i) {
            blo[int_vars[i]] = static_cast<double>(cur[i]);
            bhi[int_vars[i]] = static_cast<double>(cur[i]);
        }
        LpResult lp = solveLp(model, blo, bhi);
        if (lp.status == SolveStatus::Optimal && lp.objective < incumbent &&
            model.isFeasible(lp.values, 1e-5)) {
            incumbent = lp.objective;
            best.values = lp.values;
            best.objective = lp.objective;
            best.status = SolveStatus::Optimal;
        }

        // Odometer increment.
        size_t i = 0;
        while (i < cur.size()) {
            if (cur[i] < hi[i]) {
                ++cur[i];
                break;
            }
            cur[i] = lo[i];
            ++i;
        }
        if (i == cur.size())
            done = true;
    }
    return best;
}

} // namespace tapacs::ilp
