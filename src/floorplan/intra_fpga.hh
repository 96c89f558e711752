/**
 * @file
 * Level-2 floorplanning: task -> slot assignment inside each FPGA
 * (paper section 4.5).
 *
 * Each FPGA is presented as a grid of slots bounded by hard IPs and
 * static regions (2 cols x 3 rows on the U55C). Placement minimizes
 * the paper's eq. 4 — FIFO width times Manhattan slot distance —
 * via top-down recursive two-way partitioning, each cut solved as an
 * ILP ("we continue such a two-way ILP-based partitioning scheme",
 * section 4.5). Two device-specific forces shape the result:
 * vertices with external-memory ports are attracted to the
 * memory-exposing bottom row (all HBM channels surface there), and
 * edges to vertices fixed elsewhere pull toward the matching side.
 */

#ifndef TAPACS_FLOORPLAN_INTRA_FPGA_HH
#define TAPACS_FLOORPLAN_INTRA_FPGA_HH

#include "common/context.hh"
#include "floorplan/partition.hh"
#include "ilp/solver.hh"

namespace tapacs
{

/** Options for the level-2 floorplanner. */
struct IntraFpgaOptions
{
    /** Per-slot utilization threshold. */
    double threshold = 0.70;
    /**
     * Deadline/cancellation token, forwarded into every bisection
     * ILP. When it fires, remaining cuts fall back to the greedy side
     * assignment (fast and deterministic) instead of branching — the
     * placement is always completed.
     */
    Context ctx;
    /** Resources reserved per device (networking IPs), spread evenly
     *  over the slots. */
    ResourceVector reserved;
    /** If false, use the greedy cut instead of the ILP at every
     *  bisection (heuristic mode for the ablation bench). */
    bool useIlp = true;
    /** Pseudo-FIFO width per memory channel pulling memory-bound
     *  tasks toward the HBM row. */
    double memAttractionWidth = 64.0;
    /** Branch-and-bound limits per bisection ILP (each device takes
     *  numSlots-1 bisections; the greedy warm start bounds the damage
     *  of a limit hit). */
    ilp::SolverOptions solver = defaultSolverOptions();
    /**
     * Worker threads for the per-device outer loop: devices are
     * independent, so each can be floorplanned concurrently. 0 = use
     * the default pool size (TAPACS_THREADS / hardware concurrency);
     * 1 = serial. Results are identical at any thread count because
     * devices neither share state nor observe each other's order.
     */
    int numThreads = 0;

    static ilp::SolverOptions
    defaultSolverOptions()
    {
        ilp::SolverOptions s;
        s.maxNodes = 150;
        return s;
    }
};

/** Result of a level-2 solve across all devices. */
struct IntraFpgaResult
{
    SlotPlacement placement;
    /** eq. 4 objective across all devices. */
    double cost = 0.0;
    /** Wall-clock seconds (the paper's "L2" overhead). */
    double elapsedSeconds = 0.0;
    /** True if every bisection ILP was solved to proven optimality. */
    bool allIlpOptimal = true;
    /** True when the options' deadline/cancel token fired during the
     *  solve and at least one cut degraded to the greedy assignment. */
    bool interrupted = false;
    /** Aggregate solver effort over every bisection ILP of every
     *  device (wallSeconds sums solver time across devices, so it can
     *  exceed elapsedSeconds when devices run concurrently). */
    ilp::SolverStats solverStats;
};

/** Result of one device's recursive bisection. */
struct IntraDeviceResult
{
    /** Slot per device vertex, parallel to the `verts` argument. */
    std::vector<SlotCoord> slotOf;
    bool allIlpOptimal = true;
    /** The options' deadline/cancel token fired and at least one cut
     *  degraded to the greedy assignment. */
    bool interrupted = false;
    /** Aggregate over this device's bisection ILPs (provenOptimal
     *  initialized true — the merge() identity). */
    ilp::SolverStats stats;
};

/**
 * Floorplan one device: recursive bisection of @p verts (this
 * device's vertices, in the order the caller collected them — the
 * solve is order-sensitive) over the device slot grid. Reads only
 * @p verts' attributes and their intra-device edges; cross-device
 * edges are a level-1 cost and are skipped. Deterministic: equal
 * inputs produce equal outputs at any thread count, which is what
 * lets the compile cache key per-device solutions positionally.
 */
IntraDeviceResult floorplanIntraDevice(const TaskGraph &g,
                                       const DeviceModel &dev,
                                       const std::vector<VertexId> &verts,
                                       const IntraFpgaOptions &options);

/**
 * Place every task into a slot of its assigned device.
 *
 * @param g the task graph (validated).
 * @param cluster the cluster (provides the device slot grid).
 * @param partition level-1 result assigning tasks to devices.
 * @param options knobs above.
 */
IntraFpgaResult floorplanIntraFpga(const TaskGraph &g,
                                   const Cluster &cluster,
                                   const DevicePartition &partition,
                                   const IntraFpgaOptions &options = {});

} // namespace tapacs

#endif // TAPACS_FLOORPLAN_INTRA_FPGA_HH
