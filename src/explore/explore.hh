/**
 * @file
 * The design-space-exploration driver behind tapacs-explore and the
 * serve manifest's explore= requests (ROADMAP open item 3).
 *
 * runExplore() evaluates every point of an ExploreSpec grid — a full
 * compile (and by default a simulation) per point — in parallel on
 * the shared thread pool, then reduces the results into a
 * deterministic Pareto frontier over (design clock, worst resource
 * utilization, simulated latency). Dominated and failed points are
 * retained in the full trace with typed statuses, so a sweep is also
 * an audit of which knob regions break routing.
 *
 * Reuse: all points of one sweep share one compile cache (the
 * caller's, or a sweep-private store). Reuse is purely exact-key —
 * the per-task HLS estimates are shared by every point, level-1
 * solves by points agreeing on (T, topology), and per-device level-2
 * solves by points agreeing on (partition, λ, binding policy) — so
 * every point's result is bit-identical to a cold compile with the
 * same knobs (the differential suite pins this).
 *
 * Determinism: every ILP search is bounded by its node cap, never by
 * wall-clock time, and thread counts stay out of every cache key and
 * every solver result — so each point's result is independent of
 * machine load, evaluation order and thread count, and the frontier
 * over the canonical point order is bit-identical at any --threads
 * value.
 *
 * Deadlines: ExploreOptions::ctx bounds the whole sweep and
 * pointDeadlineSeconds slices it per point. Results computed under a
 * deadline are never written to the compile cache (the flow-wide
 * rule), so deadline-sliced sweeps trade reuse for bounded latency.
 *
 * Telemetry: the sweep reports through its ExploreResult (trace with
 * per-point status and seconds, frontier, cache hits/misses/hit
 * rate), plus one "explore" trace span per point and one for the
 * sweep. It writes no process metric of its own.
 */

#ifndef TAPACS_EXPLORE_EXPLORE_HH
#define TAPACS_EXPLORE_EXPLORE_HH

#include <cstdint>
#include <vector>

#include "compiler/compiler.hh"
#include "explore/pareto.hh"
#include "explore/spec.hh"
#include "sim/dataflow_sim.hh"

namespace tapacs::explore
{

/** Sweep-wide policy. */
struct ExploreOptions
{
    /**
     * Base compile options every point starts from: mode, numFpgas,
     * seed, solver backends and limits. The swept knobs (threshold,
     * slotThreshold, hbmBindingSweep, pipeline.stagesPerCrossing)
     * plus topology/cache/ctx are overwritten per point.
     */
    CompileOptions base;
    /** Cap on concurrent point evaluations, the caller included:
     *  <= 0 = the shared pool's size, 1 = serial. Results are
     *  identical at any value. */
    int threads = 0;
    /** Per-point deadline slice in seconds (< 0 = none). A compile
     *  under a deadline skips all cache writes, so slicing disables
     *  reuse. */
    double pointDeadlineSeconds = -1.0;
    /** Sweep-wide deadline; points starting after it expires come
     *  back with its typed status unevaluated. */
    Context ctx;
    /** Shared compile cache; nullptr = one sweep-private store. */
    cache::CompileCache *cache = nullptr;
    /** Simulate each routable point for the latency objective. */
    bool simulate = true;
};

/** One evaluated grid point. */
struct PointOutcome
{
    ExplorePoint point;
    /** Ok for any produced result; typed reason otherwise (including
     *  InvalidInput for knob/cluster mismatches, e.g. a hypercube
     *  over a non-power-of-two device count). */
    Status status;
    bool routable = false;
    bool degraded = false;
    bool simulated = false;
    /** Valid when eligible(). */
    Objectives obj;
    /** Wall seconds spent on this point. */
    double seconds = 0.0;
    /** The full result, for differential consumers. */
    CompileResult result;

    /** Frontier-eligible: routable, and simulated when the sweep
     *  asked for latency. */
    bool
    eligible(bool simulateRequested = true) const
    {
        return routable && (!simulateRequested || simulated);
    }
};

/** Everything one sweep produced. */
struct ExploreResult
{
    ExploreSpec spec;
    /** One entry per grid point, in canonical order. */
    std::vector<PointOutcome> trace;
    /** Ascending trace indices of the Pareto-optimal points. */
    std::vector<std::size_t> frontier;
    /** Compile-cache traffic measured across the sweep. */
    std::int64_t cacheHits = 0;
    std::int64_t cacheMisses = 0;
    /** hits / (hits + misses); 0 when the sweep was uncached. */
    double cacheHitRate = 0.0;
    /** Wall seconds for the whole sweep. */
    double seconds = 0.0;
    /** InvalidInput when the spec failed validation (trace empty);
     *  the sweep ctx's reason when it fired; Ok otherwise — even
     *  when individual points failed (their statuses are in the
     *  trace). */
    Status status;
};

/**
 * Run one sweep of @p spec over the design (@p g, @p tasks) on the
 * paper-testbed device model, numFpgas per ExploreOptions::base.
 * When @p tasks is empty the graph must already carry areas (the
 * graph-file path); otherwise each point synthesizes through the
 * shared cache, so HLS runs once for the whole sweep.
 */
ExploreResult runExplore(const TaskGraph &g,
                         const std::vector<hls::TaskIr> &tasks,
                         const ExploreSpec &spec,
                         const ExploreOptions &options);

/** Frontier rows as CSV (point knobs + objectives), one line per
 *  frontier point in canonical order, with a header row. */
std::string frontierCsv(const ExploreResult &result);

/** Full result as a JSON object: spec axes, per-point trace rows,
 *  frontier indices, cache hit rate, wall seconds. */
std::string exploreJson(const ExploreResult &result);

} // namespace tapacs::explore

#endif // TAPACS_EXPLORE_EXPLORE_HH
