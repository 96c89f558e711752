/**
 * @file
 * The TAPA-CS compiler: the seven-step flow of paper section 4.2.
 *
 *  1. task-graph construction     (done by the caller / app builder)
 *  2. parallel synthesis          (hls::synthesizeAll)
 *  3. inter-FPGA floorplanning    (floorplanInterFpga, eq. 1-3)
 *  4. communication logic insert  (AlveoLink IP overhead reservation)
 *  5. intra-FPGA floorplanning    (floorplanLevel2, eq. 4 + HBM)
 *  6. interconnect pipelining     (planPipelining + balancing)
 *  7. bitstream generation        (modeled by the timing estimate)
 *
 * Besides the full flow, the compiler implements the two baselines
 * of the evaluation:
 *  - F1-V (Vitis HLS): single FPGA, no global floorplanning — tasks
 *    are packed slot by slot without a chip-level view — and no
 *    interconnect pipelining. Routing gives up at a much lower
 *    device utilization (the paper's 13x4-routable/13x8-failing CNN).
 *  - F1-T (TAPA/AutoBridge): single FPGA with intra-FPGA
 *    floorplanning and pipelining.
 */

#ifndef TAPACS_COMPILER_COMPILER_HH
#define TAPACS_COMPILER_COMPILER_HH

#include <string>
#include <vector>

#include "cache/delta.hh"
#include "common/context.hh"
#include "common/status.hh"
#include "floorplan/hbm_binding.hh"
#include "floorplan/inter_fpga.hh"
#include "floorplan/intra_fpga.hh"
#include "hls/synthesis.hh"
#include "pipeline/pipelining.hh"
#include "timing/frequency.hh"

namespace tapacs
{

namespace cache
{
class CompileCache;
} // namespace cache

/** Which flow to run. */
enum class CompileMode
{
    VitisBaseline, ///< F1-V: 1 FPGA, no floorplan, no pipelining
    TapaSingle,    ///< F1-T: 1 FPGA, intra floorplan + pipelining
    TapaCs,        ///< full multi-FPGA flow
};

const char *toString(CompileMode mode);

/** Options for one compilation. */
struct CompileOptions
{
    CompileMode mode = CompileMode::TapaCs;
    /** Devices to target (forced to 1 for the baseline modes). */
    int numFpgas = 1;
    /** Intra-node wiring (the paper's testbed uses rings of 4). */
    TopologyKind topology = TopologyKind::Ring;
    /** Utilization threshold T of eq. 1 (TAPA-CS / TAPA modes). */
    double threshold = 0.70;
    /**
     * Slot-level utilization threshold λ of eq. 4 for the intra-FPGA
     * (level-2) floorplanner. Negative (the default) follows
     * `threshold`, preserving the single-knob behavior; a value in
     * (0, 1] sets the slot threshold independently of the
     * device-level T — the (T, λ) grid the DSE sweep explores. Flows
     * into the level-2 cache keys via IntraFpgaOptions::threshold.
     */
    double slotThreshold = -1.0;
    /**
     * Evaluate several candidate HBM bindings per device and keep the
     * best (bindHbmDevice's sweep); false runs only the classic
     * nearest-free walk. Both are deterministic; the flag is part of
     * the level-2 cache key, so either policy's entries address
     * correctly.
     */
    bool hbmBindingSweep = true;
    /** Device-level utilization above which the un-floorplanned
     *  Vitis flow fails routing (see Table 8: 13x8 at 49 % DSP does
     *  not route). */
    double vitisRoutableUtil = 0.45;
    /** Reserve the AlveoLink IP resources on every device when more
     *  than one FPGA is used. */
    bool addNetworkOverhead = true;
    /** QSFP28 ports driven per board (ring cabling uses both). */
    int networkPorts = 2;
    /**
     * Set for designs whose RTL already arrives fully registered
     * (e.g. AutoSA systolic arrays): the Vitis baseline then keeps
     * the interconnect pipelining instead of dropping it — this is
     * why the paper's CNN hits 300 MHz even under plain Vitis while
     * the irregular designs do not.
     */
    bool vitisPrePipelined = false;
    /** RNG seed for level-1 partitioning; level 2 is seed-free. */
    std::uint64_t seed = 1;
    /**
     * Deadline + cancellation token for this compilation. The flow
     * derives per-phase budgets from the remaining time (the
     * solver-heavy phases 3 and 5 each get a bounded slice) and every
     * inner loop polls the token, so a fired context drains
     * cooperatively: the ILP tiers fall back coarse-ILP -> greedy and
     * the result comes back with degraded = true rather than no
     * answer. Results computed under a deadline or live cancel token
     * are never written to the compile cache — a truncated solve must
     * not poison exact keys.
     */
    Context ctx;
    /**
     * Cap on the threads, the caller included, of every parallel
     * stage: phase 2's per-task synthesis, the multilevel V-cycle's
     * refinement gain map (set as inter.numThreads) and the
     * per-device level-2 place-and-bind loop (floorplanLevel2).
     * 0 = default pool size (TAPACS_THREADS / hardware concurrency);
     * 1 = serial in every phase. Results are identical at any value.
     */
    int numThreads = 0;
    /**
     * When non-empty, enable the process tracer for this compilation
     * and write a Chrome trace_event JSON (chrome://tracing /
     * Perfetto) to this path when the flow returns. Equivalent to
     * setting TAPACS_TRACE, but scoped to one compile. The trace
     * contains one span per flow phase (phase1.* .. phase7.*) plus
     * the ILP-solver and floorplanner worker spans.
     */
    std::string trace;
    /**
     * Content-addressed memoization of the solver-heavy phases: the
     * per-task HLS estimates (step 2), the inter-FPGA ILP solution
     * (step 3) and the intra-FPGA placement + HBM binding (step 5).
     * nullptr (the default) disables caching entirely; pass
     * &cache::CompileCache::global() for the process-wide store
     * (TAPACS_CACHE_DIR enables its disk tier) or a local instance in
     * tests. An exact-key hit returns the stored artifact
     * bit-for-bit, so a cached compile is byte-identical to a cold
     * one.
     */
    cache::CompileCache *cache = nullptr;

    InterFpgaOptions inter;
    IntraFpgaOptions intra;
    PipelineOptions pipeline;
    TimingOptions timing;
};

/** Everything the flow produced. */
struct CompileResult
{
    CompileMode mode = CompileMode::TapaCs;
    /** False when the design does not fit / route in this mode. */
    bool routable = false;
    /** Why routing failed (empty when routable). */
    std::string failureReason;
    /**
     * Typed outcome. Ok for any produced result — including degraded
     * ones; InvalidInput for malformed requests, Infeasible when no
     * partition/routing exists, DeadlineExceeded/Cancelled when the
     * context fired and not even a degraded answer could be formed.
     */
    Status status;
    /**
     * True when a deadline or cancellation forced a fallback (greedy
     * instead of ILP, best incumbent instead of optimum) anywhere in
     * the flow. The result is still valid and feasible — just not of
     * full quality.
     */
    bool degraded = false;
    /**
     * Which phase degraded and why. Incremental recompiles also note
     * typed cold-fallback reasons here ("incremental: ...") without
     * setting degraded — a cold compile is full quality, the note just
     * says why nothing could be reused.
     */
    std::string degradedReason;

    DevicePartition partition;
    SlotPlacement placement;
    HbmBinding binding;
    PipelinePlan pipeline;
    TimingResult timing;

    /**
     * Logic replication plan from the level-1 solve (non-empty only
     * when InterFpgaOptions::replicate was set and replication paid
     * off). When present, expandedGraph holds the materialized design
     * — original vertices first with their ids preserved, replicas
     * appended as "<name>@<device>" — and partition / placement /
     * binding / pipeline / timing / deviceAreas all describe that
     * expanded graph. Downstream consumers (simulation, constraint
     * emission) must use expandedGraph instead of the input graph;
     * replicated() says which. The *base* partition over the original
     * vertices is the first numVertices() entries of
     * partition.deviceOf (replication never moves an original).
     */
    ReplicationMap replication;
    TaskGraph expandedGraph;
    /** expanded vertex id -> original vertex id (identity prefix). */
    std::vector<VertexId> expandedOriginOf;

    /** True when replication expanded the design. */
    bool
    replicated() const
    {
        return !replication.empty();
    }

    /** Design clock (min over devices). */
    Hertz fmax = 0.0;
    /** Per-device clock, for the simulator. */
    std::vector<Hertz> deviceFmax;

    /** Floorplanning runtimes (the paper's L1/L2 overheads). */
    double l1Seconds = 0.0;
    double l2Seconds = 0.0;
    /** Branch-and-bound effort of the level-1 coarse ILP. */
    ilp::SolverStats l1SolverStats;
    /** Aggregate effort of every level-2 bisection ILP. */
    ilp::SolverStats l2SolverStats;

    /** Resources reserved per device for the networking IPs. */
    ResourceVector reservedPerDevice;
    /** Area placed on each device (graph vertices only). */
    std::vector<ResourceVector> deviceAreas;
    /** Bytes crossing device boundaries per run. */
    double cutTrafficBytes = 0.0;

    /**
     * Reuse signature of this compilation: the content keys and blobs
     * of every solver artifact (HLS estimates, L1 partition, per-device
     * L2 placements) the flow produced. recompile() seeds these into
     * the next compile's cache, so unchanged subgraphs rebind instead
     * of re-solving. Empty when the run had a volatile context (a
     * truncated solve must never be replayed) or failed before the
     * solver phases completed.
     */
    cache::CompileSignature signature;
    /**
     * Reuse report of a recompile() (attempted stays false on a plain
     * compile). Informational: see cache::CompileDelta.
     */
    cache::CompileDelta delta;
};

/**
 * Run one compilation.
 *
 * @param g the task graph; vertex areas must be set (run
 *        hls::synthesizeAll + applySynthesis first, or use
 *        compileProgram below).
 * @param cluster the target cluster; must have >= options.numFpgas
 *        devices for TapaCs mode.
 * @param fmaxCeiling optional per-vertex intrinsic fmax from
 *        synthesis.
 *
 * Never calls fatal(): malformed requests (bad graph, more FPGAs than
 * the cluster holds) come back with routable = false and an
 * InvalidInput status, so the compile service can run this on
 * arbitrary requests.
 */
CompileResult compile(const TaskGraph &g, const Cluster &cluster,
                      const CompileOptions &options,
                      const std::vector<Hertz> &fmaxCeiling = {});

/**
 * Failure-aware re-floorplan: recompile after losing FPGAs.
 *
 * Re-runs the full TapaCs flow with @p failedDevices excluded from
 * the inter-FPGA ILP (their topology ids — and hence eq. 3/4 cable
 * distances between survivors — are preserved). When @p previous is
 * given, surviving placements are fed to the level-1 solver as
 * placement hints so tasks stay put wherever that remains feasible
 * under the eq. 1 threshold; tasks stranded on a dead device get no
 * hint and are re-placed freely.
 *
 * Returns routable = false with a failure reason when every device
 * failed or the survivors cannot hold the design under the threshold.
 * Only meaningful for CompileMode::TapaCs with numFpgas > 1; other
 * modes return InvalidInput (a single-FPGA flow has nothing to fail
 * over to), as do out-of-range device ids and a mis-sized previous
 * partition.
 */
CompileResult replan(const TaskGraph &g, const Cluster &cluster,
                     const CompileOptions &options,
                     const std::vector<DeviceId> &failedDevices,
                     const DevicePartition *previous = nullptr,
                     const std::vector<Hertz> &fmaxCeiling = {});

/**
 * Convenience: synthesize the task IRs (step 2), stamp the areas onto
 * the graph, then compile. The per-task fmax ceilings from synthesis
 * feed the timing model.
 */
CompileResult compileProgram(TaskGraph &g,
                             const std::vector<hls::TaskIr> &tasks,
                             const Cluster &cluster,
                             const CompileOptions &options);

/**
 * Incremental recompilation: compile @p g reusing every solver
 * artifact of @p prior whose content key still matches.
 *
 * The prior's signature blobs are seeded into the compile cache (the
 * caller's CompileOptions::cache when set, a compile-local ephemeral
 * one otherwise) and the normal flow runs: clean subgraphs — tasks and
 * devices the edit did not touch, as judged by the solver-scoped
 * Weisfeiler-Leman fingerprints — rebind from the seeded entries,
 * dirty ones re-solve. Because reuse is purely content-keyed, the
 * result is bit-identical to a cold compile of @p g with the same
 * options.
 *
 * A prior that cannot be reused — no signature, cache-schema or L1
 * backend mismatch — degrades to a plain cold compile with a typed
 * "incremental: ..." note in degradedReason (degraded stays false: the
 * cold result is full quality). The reuse actually achieved is
 * reported in CompileResult::delta.
 */
CompileResult recompile(const CompileResult &prior, const TaskGraph &g,
                        const Cluster &cluster,
                        const CompileOptions &options);

/**
 * Incremental counterpart of compileProgram(): seeds the prior's
 * artifacts (including the per-task HLS estimates), synthesizes only
 * the tasks whose IR changed, then compiles with the same reuse rules
 * as recompile().
 */
CompileResult recompileProgram(const CompileResult &prior, TaskGraph &g,
                               const std::vector<hls::TaskIr> &tasks,
                               const Cluster &cluster,
                               const CompileOptions &options);

/** AlveoLink IP resources per board given the port count (paper
 *  section 5.6 overhead percentages applied to the device totals). */
ResourceVector networkIpArea(const DeviceModel &device, int ports);

} // namespace tapacs

#endif // TAPACS_COMPILER_COMPILER_HH
