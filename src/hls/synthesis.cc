#include "hls/synthesis.hh"

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace tapacs::hls
{

const SynthesisResult *
ProgramSynthesis::find(const std::string &name) const
{
    for (const auto &t : tasks) {
        if (t.taskName == name)
            return &t;
    }
    return nullptr;
}

ProgramSynthesis
synthesizeAll(const std::vector<TaskIr> &tasks, int maxThreads)
{
    ProgramSynthesis out;
    out.tasks.resize(tasks.size());

    // Synthesis runs inside batch compiles whose requests may already
    // be pool work; a nested parallelFor never waits on a queued task.
    ThreadPool &pool = ThreadPool::defaultPool();
    const auto n = static_cast<std::int64_t>(tasks.size());
    pool.parallelFor(
        0, n, [&](std::int64_t i) { out.tasks[i] = estimateTask(tasks[i]); },
        maxThreads);
    return out;
}

void
applySynthesis(TaskGraph &graph, const ProgramSynthesis &synth)
{
    for (const auto &result : synth.tasks) {
        const VertexId v = graph.findVertex(result.taskName);
        if (v < 0)
            fatal("synthesized task '%s' has no vertex in graph '%s'",
                  result.taskName.c_str(), graph.name().c_str());
        graph.vertex(v).area = result.area;
    }
}

} // namespace tapacs::hls
