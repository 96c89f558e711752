/**
 * @file
 * Boundary-FM k-way refinement for one level of the multilevel
 * V-cycle.
 *
 * Each pass computes, for every boundary vertex (one incident to a
 * net with pins on two devices), the gain of its best feasible move
 * under the area budget / channel caps — that map is pure and runs on
 * the shared thread pool with results written into index-ordered
 * slots. Moves are then applied *serially* in (gain descending,
 * vertex id ascending) order, each re-validated against the current
 * partition state before it lands. Both halves are order-fixed, so
 * the refined partition is bit-identical at any thread count —
 * parallelism only shortens the gain map.
 *
 * The hint penalty matches the exact engine's refine(): a hinted
 * vertex pays InterFpgaOptions::hintWeight for sitting off its hint,
 * so hinted multilevel solves keep survivors put exactly like hinted
 * exact solves do.
 */

#ifndef TAPACS_PARTITION_REFINE_HH
#define TAPACS_PARTITION_REFINE_HH

#include "floorplan/inter_fpga.hh"
#include "partition/hypergraph.hh"

namespace tapacs::partition
{

/** Effort of one refineLevel call. */
struct RefineStats
{
    int passes = 0;
    int moves = 0;
};

/**
 * Refine @p part (one device per hypergraph vertex) in place.
 *
 * @param hg       the level's hypergraph.
 * @param budget   per-device budget (interFpgaDeviceBudget; the same
 *                 at every level since areas sum under coarsening).
 * @param hint     per-vertex hinted device for *this level* (-1 =
 *                 none; empty = no hints), projected down from the
 *                 caller's finest-level hints.
 * @param options  allowed() mask, channelsPerDevice, hintWeight and
 *                 the ctx polled between passes; numThreads caps
 *                 the shared pool's threads for the gain map (1 =
 *                 serial; levels under 256 vertices always are).
 *
 * Only feasibility-preserving, strictly improving moves are applied:
 * a feasible input partition stays feasible.
 */
RefineStats refineLevel(const Hypergraph &hg, const Cluster &cluster,
                        const InterFpgaOptions &options,
                        const ResourceVector &budget,
                        const std::vector<DeviceId> &hint,
                        std::vector<DeviceId> &part);

} // namespace tapacs::partition

#endif // TAPACS_PARTITION_REFINE_HH
