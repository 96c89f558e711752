#include "sim/report.hh"

#include <algorithm>
#include <map>

#include "common/logging.hh"
#include "common/table.hh"

namespace tapacs::sim
{

double
TaskActivity::stallFraction() const
{
    const Seconds s = span();
    if (s <= 0.0)
        return 0.0;
    const double active = std::min(s, computeBusy + memoryBusy);
    return 1.0 - active / s;
}

StatusOr<std::vector<TaskActivity>>
analyzeActivity(const TaskGraph &g, const SimResult &result)
{
    if (result.timeline.empty() && g.numVertices() > 0) {
        return Status::invalidInput(
            "analyzeActivity: no timeline; run the simulation with "
            "SimOptions::recordTimeline = true");
    }
    std::map<VertexId, TaskActivity> acc;
    for (const FiringRecord &f : result.timeline) {
        auto [it, fresh] = acc.try_emplace(f.task);
        TaskActivity &a = it->second;
        if (fresh) {
            a.task = f.task;
            a.firstStart = f.start;
        }
        a.firstStart = std::min(a.firstStart, f.start);
        a.lastFinish = std::max(a.lastFinish, f.writeDone);
        a.computeBusy += f.computeDone - f.computeStart;
        a.memoryBusy +=
            (f.readDone - f.start) + (f.writeDone - f.computeDone);
    }
    std::vector<TaskActivity> out;
    out.reserve(acc.size());
    for (auto &[task, a] : acc)
        out.push_back(a);
    return out;
}

StatusOr<std::string>
bottleneckReport(const TaskGraph &g, const SimResult &result, int topN)
{
    StatusOr<std::vector<TaskActivity>> analyzed =
        analyzeActivity(g, result);
    if (!analyzed.ok())
        return analyzed.status();
    std::vector<TaskActivity> acts = analyzed.moveValue();
    std::sort(acts.begin(), acts.end(),
              [](const TaskActivity &a, const TaskActivity &b) {
                  return a.computeBusy + a.memoryBusy >
                         b.computeBusy + b.memoryBusy;
              });
    if (topN > 0 && static_cast<int>(acts.size()) > topN)
        acts.resize(topN);

    TextTable t({"Task", "Busy (compute)", "Busy (memory)", "Span",
                 "Stall %", "Utilization"});
    t.setTitle(strprintf("Bottleneck report — makespan %s",
                         formatSeconds(result.makespan).c_str()));
    for (const TaskActivity &a : acts) {
        const double util =
            result.makespan > 0.0
                ? (a.computeBusy + a.memoryBusy) / result.makespan
                : 0.0;
        const int bar =
            static_cast<int>(std::min(1.0, util) * 20.0 + 0.5);
        t.addRow({g.vertex(a.task).name,
                  formatSeconds(a.computeBusy),
                  formatSeconds(a.memoryBusy), formatSeconds(a.span()),
                  strprintf("%.0f", a.stallFraction() * 100.0),
                  std::string(bar, '#')});
    }
    return t.render();
}

std::string
faultReport(const TaskGraph &g, const SimResult &result)
{
    TextTable t({"FIFO", "Msgs", "Retries", "Timeouts", "Lost",
                 "Backoff", "Link-down wait"});
    t.setTitle(strprintf("Fault/recovery report — makespan %s, run %s",
                         formatSeconds(result.makespan).c_str(),
                         result.completed ? "completed" : "INCOMPLETE"));
    for (EdgeId e = 0;
         e < static_cast<EdgeId>(result.edgeComm.size()); ++e) {
        const EdgeCommStats &ec = result.edgeComm[e];
        if (ec.messages == 0)
            continue;
        const Edge &edge = g.edge(e);
        t.addRow({g.vertex(edge.src).name + "->" +
                      g.vertex(edge.dst).name,
                  strprintf("%d", ec.messages),
                  strprintf("%d", ec.retries),
                  strprintf("%d", ec.timeouts),
                  strprintf("%d", ec.undelivered),
                  formatSeconds(ec.backoffSeconds),
                  formatSeconds(ec.linkDownWaitSeconds)});
    }
    std::string out = t.render();
    if (!result.deadDevices.empty()) {
        out += "dead devices:";
        for (DeviceId d : result.deadDevices)
            out += strprintf(" %d", d);
        out += "\n";
    }
    if (!result.completed) {
        out += "unfinished tasks:";
        for (VertexId v = 0;
             v < static_cast<VertexId>(result.firedBlocks.size()); ++v) {
            const int want = g.vertex(v).work.numBlocks;
            if (result.firedBlocks[v] != want) {
                out += strprintf(" %s(%d/%d)", g.vertex(v).name.c_str(),
                                 result.firedBlocks[v], want);
            }
        }
        out += "\n";
    }
    return out;
}

} // namespace tapacs::sim
