/**
 * @file
 * Parallel task synthesis driver (paper section 4.2, step 2).
 *
 * TAPA-CS extracts every task and synthesizes them in parallel so the
 * floorplanner starts from an accurate per-module resource profile.
 * This driver does the same over the analytic estimator, fanning the
 * task list across a thread pool, and offers a helper that stamps
 * the results back onto a TaskGraph.
 */

#ifndef TAPACS_HLS_SYNTHESIS_HH
#define TAPACS_HLS_SYNTHESIS_HH

#include <vector>

#include "graph/task_graph.hh"
#include "hls/estimator.hh"

namespace tapacs::hls
{

/** Outcome of synthesizing a whole program. */
struct ProgramSynthesis
{
    std::vector<SynthesisResult> tasks;
    /** Wall-clock seconds spent in synthesis. */
    double elapsedSeconds = 0.0;
    /** Number of worker threads used. */
    int threadsUsed = 1;

    /** Find a result by task name; nullptr if absent. */
    const SynthesisResult *find(const std::string &name) const;
};

/**
 * Synthesize every task, in parallel on the shared pool. Each task
 * writes only its own result slot, so the result is identical at any
 * thread count.
 *
 * @param tasks one IR per task.
 * @param maxThreads cap on worker threads, the caller included
 *        (0 = the pool size; 1 = serial).
 */
ProgramSynthesis synthesizeAll(const std::vector<TaskIr> &tasks,
                               int maxThreads = 0);

/**
 * Copy synthesized areas onto the matching graph vertices (by name).
 * Vertices without a matching task keep their current area; calls
 * fatal() if a synthesized task has no graph vertex.
 */
void applySynthesis(TaskGraph &graph, const ProgramSynthesis &synth);

} // namespace tapacs::hls

#endif // TAPACS_HLS_SYNTHESIS_HH
