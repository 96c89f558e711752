/**
 * @file
 * Multilevel V-cycle level-1 floorplanner (cluster-scale backend).
 *
 * The exact engine in src/floorplan/inter_fpga.cc coarsens once,
 * solves an ILP and refines once on the full graph — great up to a
 * few hundred modules, quadratic pain beyond. This backend runs the
 * classic multilevel V-cycle instead:
 *
 *   1. Coarsen: seeded heavy-edge matching (HDN vertices excluded)
 *      level by level until at most max(coarseLimit, 2F) vertices
 *      remain or the hierarchy stagnates (hypergraph.hh).
 *   2. Initial partition: the coarsest hypergraph is lowered back to
 *      a TaskGraph and handed to the exact engine — greedy + channel
 *      repair + FM, plus the branch-and-bound ILP when the *original*
 *      design is small enough (mlIlpVertexLimit).
 *   3. Uncoarsen: project the assignment one level down at a time and
 *      run boundary-FM refinement (refine.hh) at every level, on the
 *      shared thread pool, polling the request context between
 *      passes.
 *
 * Because coarsening preserves area/channel sums and two-pin net
 * lowering preserves the eq. 2 objective exactly, feasibility and
 * cost mean the same thing at every level and for both backends.
 * Results are bit-identical for a given seed at any thread count.
 *
 * Emits tapacs.partition.* metrics and per-level trace spans.
 */

#ifndef TAPACS_PARTITION_MULTILEVEL_HH
#define TAPACS_PARTITION_MULTILEVEL_HH

#include "floorplan/inter_fpga.hh"

namespace tapacs::partition
{

/**
 * Multilevel V-cycle solve. Same contract as floorplanInterFpga
 * (typed statuses, never throws on bad input); additionally fills
 * InterFpgaResult::levels and — when options.replicate is set —
 * InterFpgaResult::replication. Designs no larger than
 * max(options.coarseLimit, options.mlIlpVertexLimit) are delegated to
 * the exact engine wholesale: inside the ILP's tractability window it
 * is affordable and strictly higher quality, so the V-cycle only runs
 * where it earns its keep (cluster-scale graphs).
 */
InterFpgaResult floorplanMultilevel(const TaskGraph &g,
                                    const Cluster &cluster,
                                    const InterFpgaOptions &options = {});

/**
 * Level-1 entry point used by the compiler: dispatches on
 * options.backend (Exact -> floorplanInterFpga, Multilevel ->
 * floorplanMultilevel) and honours options.replicate for either
 * backend.
 */
InterFpgaResult solveL1(const TaskGraph &g, const Cluster &cluster,
                        const InterFpgaOptions &options = {});

} // namespace tapacs::partition

#endif // TAPACS_PARTITION_MULTILEVEL_HH
