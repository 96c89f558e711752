#include "hls/synthesis.hh"

#include <algorithm>
#include <chrono>

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
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();

    ProgramSynthesis out;
    out.tasks.resize(tasks.size());

    // Synthesis runs inside batch compiles whose requests may already
    // be pool work; a nested parallelFor never waits on a queued task.
    ThreadPool &pool = ThreadPool::defaultPool();
    const auto n = static_cast<std::int64_t>(tasks.size());
    out.threadsUsed = static_cast<int>(std::max<std::int64_t>(
        1, std::min<std::int64_t>(
               maxThreads > 0 ? maxThreads : pool.size(), n)));
    pool.parallelFor(
        0, n, [&](std::int64_t i) { out.tasks[i] = estimateTask(tasks[i]); },
        maxThreads);

    out.elapsedSeconds =
        std::chrono::duration<double>(clock::now() - t0).count();
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
