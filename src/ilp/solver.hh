/**
 * @file
 * ILP solving front-ends: branch-and-bound (exact) and exhaustive
 * enumeration (tiny-model test oracle).
 *
 * The branch-and-bound solver mirrors what the paper gets from Gurobi
 * for its eq. 1-4 floorplanning formulations: exact solutions on the
 * model sizes that arise after coarsening, with a node budget so a
 * pathological instance degrades into "best incumbent found" rather
 * than a hang. The budget counts nodes, not seconds, so a solve is a
 * pure function of (model, warm start, options). The Context deadline
 * only aborts: a search it cut short is discarded by the caller.
 */

#ifndef TAPACS_ILP_SOLVER_HH
#define TAPACS_ILP_SOLVER_HH

#include <cstdint>
#include <functional>

#include "common/context.hh"
#include "ilp/model.hh"
#include "ilp/simplex.hh"

namespace tapacs::ilp
{

/** Integrality tolerance of branch-and-bound. */
inline constexpr double kIntTol = 1e-6;
/** Relative optimality gap at which a node is pruned. */
inline constexpr double kRelativeGap = 1e-9;

/** Options controlling a branch-and-bound solve. */
struct SolverOptions
{
    /** Maximum branch-and-bound nodes to explore. */
    std::int64_t maxNodes = 200000;
    /**
     * Deadline, polled once per node and inside each node's simplex
     * loop; when it expires the search stops early. The caller owns
     * the deadline and discards what an expired search returns.
     * Default: never.
     */
    Context ctx;
    /**
     * Optional observer called after every node LP with the node's
     * bounds and the LP result — the hook differential tests use to
     * re-solve each node with a reference LP. Not part of any cache
     * key; it must not change the search.
     */
    std::function<void(const Model &, const std::vector<double> &lower,
                       const std::vector<double> &upper,
                       const LpResult &)>
        nodeObserver;
};

/** Statistics from one branch-and-bound run. */
struct SolverStats
{
    std::int64_t nodesExplored = 0;
    std::int64_t lpSolves = 0;
    /** Total simplex iterations (pivots and bound flips) across every
     *  node LP. */
    std::int64_t lpIterations = 0;
    /** Warm node LPs that hit their iteration cap and were re-solved
     *  cold from the slack basis. */
    std::int64_t coldFallbacks = 0;
    /** Times the incumbent improved during the search (warm starts
     *  accepted before the search begins are not counted). */
    std::int64_t incumbentUpdates = 0;
    double wallSeconds = 0.0;
    bool provenOptimal = false;
    /** Threads the solves ran on: 1 for one search; level 2 records
     *  the width of its per-device pool here. */
    int threadsUsed = 1;

    /**
     * Fold another run's effort into this one (threads = max,
     * provenOptimal = and, everything else sums). Summation is
     * commutative over the integer fields, but callers aggregating
     * runs that executed concurrently must still merge in a *fixed*
     * order (e.g. device index) so wallSeconds — a double — folds
     * identically run to run.
     */
    void merge(const SolverStats &other);
};

/**
 * Exact MILP solver: LP-relaxation branch-and-bound, explored
 * depth-first in a fixed order. It branches on the fractional variable
 * closest to rounding up and dives into the up branch first.
 * One LpEngine serves the whole search, so every node after the root
 * re-solves warm from the basis the previous node left.
 */
class BranchBoundSolver
{
  public:
    explicit BranchBoundSolver(SolverOptions options = {});

    /**
     * Solve @p model to optimality (or best incumbent under limits).
     *
     * @param model the MILP; objective is minimized.
     * @param warmStart optional integer-feasible assignment used as
     *        the initial incumbent for pruning (e.g. from a heuristic
     *        partitioner); ignored if infeasible.
     */
    Solution solve(const Model &model,
                   const std::vector<double> &warmStart = {});

    /** Statistics from the most recent solve() call. */
    const SolverStats &stats() const { return stats_; }

  private:
    SolverOptions options_;
    SolverStats stats_;
};

/**
 * Brute-force solver enumerating every integral assignment. Only
 * usable for models whose integral search space is tiny; serves as
 * the ground-truth oracle in the solver property tests.
 */
class ExhaustiveSolver
{
  public:
    /**
     * Enumerate all integer assignments (continuous vars are solved
     * by LP for each integer fixing).
     *
     * @param model model with <= maxStates integral combinations.
     * @param maxStates safety cap on the enumeration size.
     */
    Solution solve(const Model &model, std::uint64_t maxStates = 1u << 20);
};

} // namespace tapacs::ilp

#endif // TAPACS_ILP_SOLVER_HH
