/**
 * @file
 * Block-level dataflow simulator.
 *
 * Executes a placed, pipelined design and reports its end-to-end
 * latency. Tasks stream their workload in numBlocks equal blocks;
 * each block flows read -> compute -> write through the task, with
 * external-memory accesses serialized on the task's bound HBM
 * channels, compute serialized on the task's datapath, and
 * inter-FPGA tokens serialized on per-device-pair network ports.
 * Latency-insensitive semantics: a task fires a block as soon as one
 * token is available on every input FIFO.
 *
 * The model deliberately captures the first-order effects the paper
 * measures:
 *  - HBM ports narrower than the 512-bit saturating width only reach
 *    a proportional fraction of the per-channel bandwidth (the KNN
 *    motivation: 256-bit ports saturate ~51 % of a bank);
 *  - several tasks bound to one channel queue behind each other;
 *  - inter-FPGA transfers ride the AlveoLink curve and contend for
 *    the device-pair port (the CNN idle-PE effect);
 *  - block granularity sets the overlap: one giant block per stage
 *    serializes devices (the Stencil topology), many small blocks
 *    pipeline them (PageRank, KNN).
 */

#ifndef TAPACS_SIM_DATAFLOW_SIM_HH
#define TAPACS_SIM_DATAFLOW_SIM_HH

#include <vector>

#include "common/context.hh"
#include "common/stats.hh"
#include "common/status.hh"
#include "floorplan/hbm_binding.hh"
#include "floorplan/partition.hh"
#include "pipeline/pipelining.hh"

namespace tapacs::sim
{

/** Simulator options. */
struct SimOptions
{
    /** Cap on processed events (guards against model bugs). */
    std::uint64_t maxEvents = 50'000'000;
    /**
     * Deadline, polled inside the event loop every few thousand
     * events. An expired context stops the run and surfaces
     * DeadlineExceeded in SimResult::status together with the
     * partial stats.
     */
    Context ctx;
    /** Record one FiringRecord per block (for timeline export). */
    bool recordTimeline = false;
    /**
     * Export per-resource utilization (busy time, queueing delay,
     * request count for every HBM channel, task datapath and network
     * path) into obs::MetricsRegistry::global() as gauges named
     * `tapacs.sim.<resource>.<field>` when the run completes. Stale
     * `tapacs.sim.*` values from earlier runs are reset first so the
     * registry always describes the latest run only.
     */
    bool exportMetrics = true;
};

/** One block's journey through a task (timeline entry). */
struct FiringRecord
{
    VertexId task = -1;
    int block = 0;
    Seconds start = 0.0;        ///< inputs available, firing begins
    Seconds readDone = 0.0;     ///< external-memory reads complete
    Seconds computeStart = 0.0; ///< datapath service begins (after
                                ///< queueing behind earlier blocks)
    Seconds computeDone = 0.0;  ///< datapath finished
    Seconds writeDone = 0.0;    ///< write-back complete
};

/** Result of one simulated run. */
struct SimResult
{
    /** End-to-end latency: all tasks finished all blocks. */
    Seconds makespan = 0.0;
    /** Completion time per task. */
    std::vector<Seconds> taskFinish;
    /** Sum of compute busy time per device. */
    std::vector<Seconds> deviceComputeBusy;
    /** Tasks placed on each device. */
    std::vector<int> deviceTaskCount;
    /** Bytes moved between devices. */
    double interDeviceBytes = 0.0;
    /** Counters: hbm.busy, net.transfers, events, ... */
    StatRegistry stats;
    /** Per-block firing timeline (only when recordTimeline is set). */
    std::vector<FiringRecord> timeline;

    /**
     * True when every task fired all its blocks. False exactly when
     * status is not Ok: the deadline expired, the event cap tripped,
     * or the event queue drained with blocks still unfired (a
     * rate-inconsistent graph). firedBlocks then records how far each
     * task got.
     */
    bool completed = true;
    /** Blocks each task actually fired (== work.numBlocks when
     *  completed). */
    std::vector<int> firedBlocks;
    /**
     * Why the run stopped: Ok when every task fired all its blocks;
     * DeadlineExceeded when SimOptions::ctx expired mid-run;
     * ResourceExhausted when the maxEvents cap tripped; InvalidInput
     * when the event queue drained with blocks unfired because the
     * graph is not rate-consistent (e.g. a cycle without initial
     * tokens). Non-Ok runs still carry their partial stats (makespan
     * so far, firedBlocks, ...).
     */
    Status status;

    /** Mean fraction of the makespan the device's tasks spent
     *  computing (1.0 = every PE busy the whole run; low values =
     *  the idle-PE effect of paper section 5.5). */
    double deviceUtilization(DeviceId d) const;
};

/**
 * Simulate one run of the placed design.
 *
 * @param g task graph with work profiles (validated; every edge must
 *        connect tasks with equal numBlocks).
 * @param cluster cluster model.
 * @param partition level-1 device assignment.
 * @param binding HBM channel binding.
 * @param plan interconnect pipelining (for intra-FPGA FIFO latency).
 * @param deviceFmax clock of each device (from the timing model).
 * @param options simulator options.
 */
SimResult simulate(const TaskGraph &g, const Cluster &cluster,
                   const DevicePartition &partition,
                   const HbmBinding &binding, const PipelinePlan &plan,
                   const std::vector<Hertz> &deviceFmax,
                   const SimOptions &options = {});

/**
 * Total form of simulate() for request-reachable callers (the
 * compile service): invalid inputs — a malformed graph, non-integral
 * rate ratios, memory access without bound channels, inconsistent
 * partition/binding/fmax shapes — come back as an error Status
 * instead of fatal(). Mid-run conditions (deadline, the maxEvents
 * cap, a rate-inconsistent graph) return an
 * *Ok* StatusOr whose SimResult carries the typed reason in
 * SimResult::status along with the partial stats. simulate() is the
 * asserting wrapper over this.
 */
StatusOr<SimResult> trySimulate(const TaskGraph &g,
                                const Cluster &cluster,
                                const DevicePartition &partition,
                                const HbmBinding &binding,
                                const PipelinePlan &plan,
                                const std::vector<Hertz> &deviceFmax,
                                const SimOptions &options = {});

/**
 * Render a recorded timeline as CSV (task,block,start,read_done,
 * compute_done,write_done), one row per firing, sorted by start
 * time — loadable into any waterfall/Gantt viewer.
 */
std::string timelineCsv(const TaskGraph &g, const SimResult &result);

} // namespace tapacs::sim

#endif // TAPACS_SIM_DATAFLOW_SIM_HH
