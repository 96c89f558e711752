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
 * floorplanLevel2 runs the whole step in one place: it places each
 * device and binds its HBM channels from that placement.
 */

#ifndef TAPACS_FLOORPLAN_INTRA_FPGA_HH
#define TAPACS_FLOORPLAN_INTRA_FPGA_HH

#include <optional>
#include <vector>

#include "common/context.hh"
#include "floorplan/hbm_binding.hh"
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

    static ilp::SolverOptions
    defaultSolverOptions()
    {
        ilp::SolverOptions s;
        s.maxNodes = 150;
        return s;
    }
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
 * One device's level-2 artifacts: the per-device record of
 * floorplanLevel2 and the compile cache's level-2 entry. `slots` is
 * parallel to the device's vertices in ascending graph id; `grants` is
 * parallel to the device's memory users (work.memChannels > 0) in
 * ascending graph id; `usersPerChannel` has one load per channel of
 * the device model.
 */
struct IntraDeviceEntry
{
    std::vector<SlotCoord> slots;
    std::vector<std::vector<int>> grants;
    std::vector<int> usersPerChannel;
    double displacement = 0.0;
    bool allIlpOptimal = true;
    ilp::SolverStats stats;
};

/** Result of level 2 across all devices. */
struct Level2Result
{
    SlotPlacement placement;
    HbmBinding binding;
    /** Per-device records, in device order. */
    std::vector<IntraDeviceEntry> devices;
    /** solved[d]: device d was solved by this call rather than taken
     *  from `known` — the records a cache has not seen yet. */
    std::vector<char> solved;
    /** eq. 4 objective across all devices. */
    double cost = 0.0;
    /** True if every bisection ILP was solved to proven optimality. */
    bool allIlpOptimal = true;
    /** True when the options' deadline/cancel token fired during a
     *  solve and at least one cut degraded to the greedy assignment. */
    bool interrupted = false;
    /** Aggregate solver effort over every bisection ILP of every
     *  device, folded in device order. */
    ilp::SolverStats solverStats;
};

/**
 * Level 2 of the flow (paper section 4.5): per device, the recursive
 * bisection of floorplanIntraDevice, then bindHbmDevice from that
 * placement. Devices are independent (cross-device edges are a
 * level-1 cost), so they run concurrently on the shared pool and are
 * folded in fixed device order: the result is identical at any thread
 * count.
 *
 * @param partition level-1 result assigning tasks to devices.
 * @param hbmSweep run the full binding candidate sweep per device
 *        (false: only the classic nearest-free walk).
 * @param numThreads cap on the threads solving devices, the caller
 *        included: 0 = default pool size (TAPACS_THREADS / hardware
 *        concurrency); 1 = serial.
 * @param known per-device records solved earlier (cache hits), used
 *        as they are; a missing record, or one whose sizes do not
 *        match its device, is solved.
 */
Level2Result
floorplanLevel2(const TaskGraph &g, const Cluster &cluster,
                const DevicePartition &partition,
                const IntraFpgaOptions &options, bool hbmSweep,
                int numThreads = 0,
                std::vector<std::optional<IntraDeviceEntry>> known = {});

} // namespace tapacs

#endif // TAPACS_FLOORPLAN_INTRA_FPGA_HH
