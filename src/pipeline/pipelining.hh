/**
 * @file
 * Interconnect pipelining and latency balancing (paper section 4.6).
 *
 * After placement, every FIFO that crosses slot boundaries gets
 * pipeline registers at each crossing so long wires never set the
 * critical path. Because each module is an FSM-controlled RTL whose
 * timing cannot be predicted, TAPA-CS pipelines *conservatively*:
 * every slot-crossing wire is registered. Latency-insensitive design
 * guarantees functional correctness under any added latency; to keep
 * *throughput* intact the pass then balances reconvergent paths via
 * cut-set pipelining (Parhi): every path between a fork and the
 * matching join ends up with equal added latency, extra slack being
 * absorbed by deepening the FIFOs of the shorter paths.
 */

#ifndef TAPACS_PIPELINE_PIPELINING_HH
#define TAPACS_PIPELINE_PIPELINING_HH

#include <vector>

#include "floorplan/partition.hh"
#include "graph/task_graph.hh"

namespace tapacs
{

/** Options for the pipelining pass. */
struct PipelineOptions
{
    /** Register stages inserted per slot-boundary crossing. */
    int stagesPerCrossing = 2;
    /** Balance reconvergent-path latency (cut-set pipelining). */
    bool balanceReconvergent = true;
};

/** Pipelining decision for one edge. */
struct EdgePipelining
{
    /** Slot-boundary crossings the FIFO traverses (0 = same slot). */
    int crossings = 0;
    /** Pipeline register stages inserted. */
    int stages = 0;
    /** Extra FIFO depth added by latency balancing. */
    int balanceDepth = 0;
};

/** Result of the pipelining pass. */
struct PipelinePlan
{
    std::vector<EdgePipelining> edges; ///< indexed by EdgeId
    /** Total pipeline registers inserted (stages x edge width). */
    double totalRegisterBits = 0.0;
    /** Total balancing FIFO bits added. */
    double totalBalanceBits = 0.0;
    /** Resource cost of the inserted registers/FIFOs per device. */
    std::vector<ResourceVector> addedAreaPerDevice;
};

/**
 * Plan pipeline registers for every intra-device edge.
 *
 * Inter-device edges are handled by the communication layer (deep
 * FIFOs at the AlveoLink endpoints) and get no fabric stages here.
 */
PipelinePlan planPipelining(const TaskGraph &g, const Cluster &cluster,
                            const DevicePartition &partition,
                            const SlotPlacement &placement,
                            const PipelineOptions &options = {});

/**
 * Verify the cut-set balancing invariant: on the acyclic condensation
 * of each device's subgraph, all paths between any two vertices carry
 * equal added latency (stages + balanceDepth).
 *
 * The check is potential-based (a per-component level function must
 * exist), which is a *sufficient* condition for path balance —
 * slightly conservative, but exactly the invariant the construction
 * in planPipelining() establishes.
 *
 * @return true when balanced (always true for plans produced with
 *         balanceReconvergent = true).
 */
bool isLatencyBalanced(const TaskGraph &g, const DevicePartition &partition,
                       const PipelinePlan &plan);

} // namespace tapacs

#endif // TAPACS_PIPELINE_PIPELINING_HH
