/**
 * @file
 * The request-execution core shared by every serving tier.
 *
 * executeRequest() is the one function that turns a manifest Request
 * into a typed ServeOutcome: build/parse the task graph, compile (or
 * recompile against a retained base), optionally simulate or sweep
 * the design space, all under the request's own deadline. The
 * supervisor's in-process slots (FleetOptions::inProcess) call it
 * from their own threads; the fleet worker (serve/worker) calls the
 * same function from a child process, which is what makes a
 * re-dispatched request bit-identical to an uninterrupted one — both
 * executors run literally the same code against the same
 * content-addressed cache.
 *
 * ExecutePolicy carries the serving-level hooks the core needs
 * (cache, retained-result lookup/store) without coupling it to the
 * supervisor; a process with no retention just leaves the callbacks
 * empty.
 *
 * resultDigest() folds the deterministic fields of a CompileResult —
 * mapping, placement, binding, pipeline totals, clocks — into a
 * CRC64. Wall-clock and solver-statistics fields are excluded, so
 * two runs of the same request agree on the digest iff they produced
 * the same design. The chaos suite compares digests across
 * fault-free and faulted runs to prove crash-retry idempotence.
 */

#ifndef TAPACS_SERVE_EXECUTE_HH
#define TAPACS_SERVE_EXECUTE_HH

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.hh"
#include "common/units.hh"
#include "compiler/compiler.hh"
#include "serve/manifest.hh"

namespace tapacs::cache
{
class CompileCache;
} // namespace tapacs::cache

namespace tapacs::serve
{

/** Typed result of one request. */
struct ServeOutcome
{
    std::string name;
    /** Ok whenever a result was produced — including degraded ones;
     *  otherwise the typed reason (InvalidInput, Infeasible,
     *  DeadlineExceeded, ResourceExhausted, Internal). */
    Status status;
    bool routable = false;
    /** A valid result below full quality: the greedy tier
     *  (deadline_ms=0) or the level-1 greedy fallback. */
    bool degraded = false;
    std::string degradedReason;
    std::string failureReason;
    int tasks = 0;
    /** Executions spent (1 = no retries; 0 = shed without running). */
    int attempts = 0;
    /** Wall seconds across all executions, excluding queue wait. */
    double seconds = 0.0;
    Hertz fmax = 0.0;
    double cutTrafficBytes = 0.0;
    /** simulate=1 and the sim ran to completion. A simulation its
     *  deadline stopped reports only the typed status. */
    bool simulated = false;
    /** Simulated makespan in seconds (0 unless simulated). */
    double simMakespan = 0.0;
    /** For incremental= requests: the one-line CompileDelta report
     *  (what carried over from the base). Empty otherwise. */
    std::string deltaSummary;
    /** explore=1 and the sweep ran (its spec was valid). */
    bool explored = false;
    /** Grid points evaluated (trace length). */
    int explorePoints = 0;
    /** Pareto-frontier size; for explore outcomes, routable/fmax
     *  describe the best-fmax frontier point. */
    int exploreFrontier = 0;
    /** Compile-cache hit rate measured across the sweep. */
    double exploreHitRate = 0.0;
    /**
     * CRC64 over the deterministic fields of the produced design
     * (resultDigest below); 0 unless a compile produced a design or
     * a sweep ran, so a failed compile never shares a digest. Two
     * executions of the same request — in-process, in a fleet
     * worker, or re-dispatched after a crash — agree on this value
     * iff they produced bit-identical designs.
     */
    std::uint64_t resultDigest = 0;
};

/** Service-level hooks executeRequest() needs; all optional. */
struct ExecutePolicy
{
    /** Shared compile cache; nullptr = uncached. */
    cache::CompileCache *cache = nullptr;
    /** Look up a retained result for incremental `base=` resolution;
     *  empty = nothing is ever retained (cold compiles only). */
    std::function<bool(const std::string &, CompileResult *)>
        findRetained;
    /** Offer a routable result for retention; empty = drop it. */
    std::function<void(const std::string &, const CompileResult &)>
        retain;
};

/**
 * Execute one attempt of @p req. The request's deadline_ms= goes
 * through applyDeadline: 0 picks the greedy tier (a degraded result),
 * a positive value starts a fresh deadline for this attempt, and an
 * expired one ends the attempt DeadlineExceeded with no design. Total:
 * every failure mode comes back as a typed ServeOutcome::status.
 */
ServeOutcome executeRequest(const Request &req,
                            const ExecutePolicy &policy);

/**
 * CRC64 over the deterministic fields of @p result (see file
 * comment). Pure function of the produced design.
 */
std::uint64_t resultDigest(const CompileResult &result);

} // namespace tapacs::serve

#endif // TAPACS_SERVE_EXECUTE_HH
