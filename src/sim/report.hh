/**
 * @file
 * Post-simulation bottleneck analysis.
 *
 * The paper's evaluation repeatedly reasons about *why* a design
 * stops scaling — idle PEs behind inter-FPGA transfers (CNN), serial
 * devices (stencil), saturated HBM ports (KNN). This report derives
 * those diagnoses from a recorded timeline: per-task busy time, span
 * and stall fraction, aggregated into a printable table.
 */

#ifndef TAPACS_SIM_REPORT_HH
#define TAPACS_SIM_REPORT_HH

#include <string>
#include <vector>

#include "sim/dataflow_sim.hh"

namespace tapacs::sim
{

/** Activity summary of one task across the run. */
struct TaskActivity
{
    VertexId task = -1;
    /** First firing start. */
    Seconds firstStart = 0.0;
    /** Last write-back completion. */
    Seconds lastFinish = 0.0;
    /** Total datapath busy time (sum of compute intervals). */
    Seconds computeBusy = 0.0;
    /** Total external-memory time (read + write intervals). */
    Seconds memoryBusy = 0.0;

    /** Active span of the task. */
    Seconds span() const { return lastFinish - firstStart; }

    /** Fraction of the span spent neither computing nor on memory. */
    double stallFraction() const;
};

/**
 * Derive per-task activity from a timeline-recorded run.
 *
 * @param g the simulated graph.
 * @param result a SimResult produced with recordTimeline = true.
 * @return per-task activity ordered by task id, or InvalidInput when
 *         the timeline is empty but the graph is not (the run did
 *         not record one).
 */
StatusOr<std::vector<TaskActivity>>
analyzeActivity(const TaskGraph &g, const SimResult &result);

/**
 * Render the bottleneck report: tasks ranked by busy time, with span,
 * stall fraction and a utilization bar — the "who is idle and why"
 * view of paper sections 5.2-5.5.
 *
 * @param topN rows to include (0 = all).
 * @return the rendered table, or analyzeActivity()'s error.
 */
StatusOr<std::string> bottleneckReport(const TaskGraph &g,
                                       const SimResult &result,
                                       int topN = 10);

/**
 * Render the fault/recovery report: one row per FIFO that crossed a
 * device boundary, with message, retry, timeout and undelivered
 * counts plus the backoff and link-down time its sender absorbed;
 * footer lines list killed devices, tasks with unfired blocks and
 * the run's completion status. Deterministic formatting — for a
 * seeded FaultPlan the rendered string is a byte-exact regression
 * artifact.
 */
std::string faultReport(const TaskGraph &g, const SimResult &result);

} // namespace tapacs::sim

#endif // TAPACS_SIM_REPORT_HH
