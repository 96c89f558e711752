/**
 * @file
 * Level-1 floorplanning: task -> FPGA assignment (paper section 4.3).
 *
 * The exact formulation is the paper's: binary placement variables,
 * per-resource utilization threshold (eq. 1) and the topology- and
 * media-aware communication objective (eq. 2 with eq. 3/4 distances,
 * provided here by Cluster::costDistance). To keep the exact ILP
 * tractable on large designs (the AutoSA CNN has 493 modules), the
 * solve is multilevel: heavy-edge-matching coarsening down to a
 * bounded coarse graph, branch-and-bound ILP on the coarse graph
 * (seeded with a greedy incumbent), then projection and
 * Fiduccia-Mattheyses-style single-move refinement on the full graph.
 * The greedy+refinement path doubles as the heuristic baseline for
 * the solver ablation bench.
 *
 * The partitioner intentionally does not always return the min-cut:
 * moving a module off-chip costs communication but may relieve
 * congestion; the threshold constraint encodes exactly that trade
 * (paper section 4.3, last paragraph).
 */

#ifndef TAPACS_FLOORPLAN_INTER_FPGA_HH
#define TAPACS_FLOORPLAN_INTER_FPGA_HH

#include "common/context.hh"
#include "common/status.hh"
#include "floorplan/partition.hh"
#include "ilp/solver.hh"

namespace tapacs
{

/**
 * Which level-1 engine solves the task -> FPGA assignment.
 *
 * Exact is this file's single-shot coarsen -> branch-and-bound ILP ->
 * FM pipeline (paper-faithful, scales to a few hundred modules).
 * Multilevel is the V-cycle hypergraph partitioner in src/partition/
 * (coarsening hierarchy, coarsest-level greedy/ILP, boundary-FM
 * refinement at every level, optional logic replication) for
 * cluster-scale graphs. Dispatch happens in partition::solveL1 — the
 * partition library layers above this one, so floorplanInterFpga
 * itself always runs the exact engine regardless of this knob.
 */
enum class L1Backend
{
    Exact,
    Multilevel,
};

const char *toString(L1Backend backend);

/** Options for the level-1 floorplanner. */
struct InterFpgaOptions
{
    /** Engine selection (see L1Backend; honored by
     *  partition::solveL1). */
    L1Backend backend = L1Backend::Exact;
    /** Utilization threshold T of eq. 1. */
    double threshold = 0.70;
    /**
     * Deadline/cancellation token. Forwarded into the coarse ILP's
     * branch-and-bound (which returns its best incumbent when it
     * fires) and polled between FM refinement passes. A context that
     * is already done degrades the solve to the deterministic
     * greedy + channel-repair path with no refinement.
     */
    Context ctx;
    /** Resources reserved per device (e.g. networking IPs). */
    ResourceVector reserved;
    /** Coarsen until at most this many vertices before the ILP. */
    int coarseLimit = 36;
    /**
     * Compute-load balance: no device may take more than
     * balanceSlack / numDevices of the design's total area in any
     * resource (plus a small absolute allowance). The paper lists
     * balanced compute load as a level-1 goal alongside the
     * communication objective (section 4.1).
     */
    double balanceSlack = 1.30;
    /**
     * Physical memory channels per device (0 = unlimited). Tasks
     * request work.memChannels each; a device cannot host tasks whose
     * total demand exceeds its channel count — this is the constraint
     * that makes the paper's 36-blue-module KNN configuration
     * impossible on a single U55C (32 channels).
     */
    int channelsPerDevice = 0;
    /** If false, skip the ILP and use greedy + refinement only
     *  (heuristic mode, used as the ablation baseline). */
    bool useIlp = true;
    /** RNG seed for coarsening tie-breaks. */
    std::uint64_t seed = 1;
    /**
     * Per-device availability mask (empty = every device usable).
     * A failed device keeps its id — eq. 3/4 distances are still
     * evaluated over the cabled topology — but may host no task.
     * This is how replan() excludes dead FPGAs after a fault.
     */
    std::vector<char> deviceAllowed;
    /**
     * Warm-start hint: the previous device of each vertex (-1 = no
     * hint; empty = no hints at all). The greedy seed biases toward
     * hinted devices, and that seed is the coarse ILP's incumbent — so a
     * replan keeps surviving placements wherever they remain feasible
     * instead of reshuffling the whole cluster.
     */
    std::vector<DeviceId> hint;
    /**
     * Migration penalty added to the eq. 2 objective (in the same
     * width-bits x distance units) for every hinted vertex placed off
     * its hint. Models the real cost of re-routing a live task after
     * a failure: the solver moves a survivor only when the
     * communication saving exceeds this. Ignored when hint is empty.
     */
    double hintWeight = 64.0;
    /**
     * Also plan RePart-style logic replication after the base
     * partition (honoured by partition::solveL1 for either backend;
     * floorplanInterFpga itself ignores it) — replicate small high-fanout,
     * memory-read-only tasks onto consumer devices when that reduces
     * the inter-FPGA FIFO cut width. The replication map comes back
     * in InterFpgaResult::replication; materializing it into an
     * expanded graph is the compiler's job (partition::applyReplication).
     */
    bool replicate = false;
    /**
     * Cap on the threads, the caller included, of the multilevel
     * backend's per-level gain computation. 0 = default pool size
     * (TAPACS_THREADS / hardware concurrency); 1 = serial. Results
     * are bit-identical at any thread count — gains are computed
     * into index-ordered slots and applied serially in a
     * deterministic order — so this knob is excluded from cache
     * keys. compile() sets it from CompileOptions::numThreads.
     */
    int numThreads = 0;
    /**
     * Multilevel backend: graphs with at most this many vertices are
     * delegated to the exact engine wholesale — inside the
     * branch-and-bound ILP's tractability window it is affordable and
     * strictly higher quality than any coarsen/refine cycle. The four
     * paper workloads (<= 493 modules) stay under it and get the
     * exact solve bit-for-bit; cluster-scale graphs run the V-cycle
     * (greedy coarse seed + per-level FM, no ILP), which is where the
     * order-of-magnitude speedup over the exact backend comes from.
     */
    int mlIlpVertexLimit = 600;

    /** True if device @p d may host tasks under deviceAllowed. */
    bool
    allowed(DeviceId d) const
    {
        return deviceAllowed.empty() ||
               (d < static_cast<int>(deviceAllowed.size()) &&
                deviceAllowed[d]);
    }

    /** Usable devices among @p numDevices. */
    int
    numAllowed(int numDevices) const
    {
        if (deviceAllowed.empty())
            return numDevices;
        int count = 0;
        for (int d = 0; d < numDevices; ++d)
            count += allowed(d) ? 1 : 0;
        return count;
    }
    /** Branch-and-bound limits for the coarse ILP. The node budget
     *  trades proven optimality for bounded runtime: the greedy warm
     *  start guarantees an incumbent and FM refinement polishes it, so
     *  a budget hit degrades quality marginally, never correctness.
     *  Counting nodes rather than seconds keeps the partition a pure
     *  function of the inputs. */
    ilp::SolverOptions solver = defaultSolverOptions();

    static ilp::SolverOptions
    defaultSolverOptions()
    {
        ilp::SolverOptions s;
        s.maxNodes = 150;
        return s;
    }
};

/** Result of a level-1 solve. */
struct InterFpgaResult
{
    /** False when no threshold-feasible partition exists (the design
     *  needs more FPGAs); partition is then empty. */
    bool feasible = true;
    /** Ok on success; InvalidInput for malformed options, Infeasible
     *  when no threshold-feasible partition exists. A feasible result
     *  produced under a fired deadline keeps status Ok and sets
     *  interrupted instead. */
    Status status;
    /** True when the options' deadline/cancel token fired during the
     *  solve (the partition is the best found under the budget). */
    bool interrupted = false;
    DevicePartition partition;
    /** eq. 2 objective of the final partition. */
    double cost = 0.0;
    /** Bytes crossing device boundaries per run. */
    double cutTrafficBytes = 0.0;
    /** Wall-clock seconds (the paper's "L1" overhead). */
    double elapsedSeconds = 0.0;
    /** True if the coarse ILP was solved to proven optimality. */
    bool ilpOptimal = false;
    /** Vertices in the coarse graph the ILP saw. */
    int coarseVertices = 0;
    /** Branch-and-bound effort of the coarse ILP (zeroed in heuristic
     *  mode, where no ILP runs). */
    ilp::SolverStats solverStats;
    /** Coarsening hierarchy depth (multilevel backend; 0 = exact). */
    int levels = 0;
    /**
     * Logic replication plan (multilevel backend with replicate=true;
     * empty otherwise). partition / cost / cutTrafficBytes above
     * always describe the *base* partition without replication; the
     * compiler applies the map (partition::applyReplication) and
     * recomputes the cut on the expanded graph.
     */
    ReplicationMap replication;
};

/**
 * Assign every task to a device.
 *
 * Returns feasible = false when the design cannot fit the cluster
 * under the threshold (the paper's "requires more resources than
 * available on a single device" outcome). Configuration errors
 * (mismatched masks/hints, negative budgets) return feasible = false
 * with an InvalidInput status instead of killing the process — this
 * runs inside the compile service, where a bad request must never
 * take down its neighbours.
 */
InterFpgaResult floorplanInterFpga(const TaskGraph &g,
                                   const Cluster &cluster,
                                   const InterFpgaOptions &options = {});

/**
 * Per-resource capacity budget of one device: the eq. 1 threshold
 * minus reservations, further capped by the compute-balance share
 * (each device takes at most balanceSlack/F of the total design plus
 * a small absolute allowance for indivisible modules). Shared by both
 * level-1 backends so feasibility means the same thing everywhere.
 */
ResourceVector interFpgaDeviceBudget(const TaskGraph &g,
                                     const Cluster &cluster,
                                     const InterFpgaOptions &options);

/**
 * Input validation shared by both level-1 backends: mask/hint sizes,
 * non-negative budgets, aggregate area and channel fit. Returns true
 * and sets *availOut (usable device count) when the inputs are sane;
 * returns false with *out filled (feasible = false + typed status)
 * otherwise.
 */
bool checkInterFpgaInputs(const TaskGraph &g, const Cluster &cluster,
                          const InterFpgaOptions &options, int *availOut,
                          InterFpgaResult *out);

} // namespace tapacs

#endif // TAPACS_FLOORPLAN_INTER_FPGA_HH
