/**
 * @file
 * Throughput bench for the dataflow simulator.
 *
 * Two measurements, both reported as events/second (and to --json):
 *
 *  1. Event throughput on deep single-device pipelines (the
 *     tight-loop cost of one pop/fire/push cycle).
 *  2. Event throughput on an 8-FPGA CNN (13x32 systolic grid, batch
 *     32) placed over a single-node ring of eight U55Cs: the largest
 *     cross-device event mix of the paper-style designs. The design is
 *     compiled once; each timing is the best of three runs, so the
 *     bench finishes in a few seconds.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "apps/cnn.hh"
#include "bench/bench_util.hh"

using namespace tapacs;
using namespace tapacs::bench;

namespace
{

using Clock = std::chrono::steady_clock;

/** Event count and best-of-3 wall seconds of one simulate() call. */
struct Timing
{
    double events = 0.0;
    double seconds = 1.0e300;
};

Timing
timeSimulate(const TaskGraph &g, const Cluster &cluster,
             const DevicePartition &part, const HbmBinding &binding,
             const PipelinePlan &plan, const std::vector<Hertz> &fmax)
{
    Timing out;
    for (int i = 0; i < 3; ++i) {
        const auto t0 = Clock::now();
        const sim::SimResult r =
            sim::simulate(g, cluster, part, binding, plan, fmax);
        const double s =
            std::chrono::duration<double>(Clock::now() - t0).count();
        out.events = r.stats.get("events");
        out.seconds = std::min(out.seconds, s);
    }
    return out;
}

/** Event throughput on a depth-deep, blocks-block pipeline. */
double
pipelineEventsPerSecond(int depth, int blocks)
{
    TaskGraph g("pipe");
    DevicePartition part;
    for (int i = 0; i < depth; ++i) {
        WorkProfile w;
        w.computeOps = 1.0e6;
        w.opsPerCycle = 4.0;
        w.numBlocks = blocks;
        g.addVertex(strprintf("t%d", i), ResourceVector{}, w);
        part.deviceOf.push_back(0);
        if (i > 0)
            g.addEdge(i - 1, i, 64);
    }
    const Cluster cluster = makePaperTestbed(1);
    HbmBinding binding;
    binding.channelsOf.assign(depth, {});
    binding.usersPerChannel.assign(1, std::vector<int>(32, 0));
    PipelinePlan plan;
    plan.edges.assign(g.numEdges(), EdgePipelining{});
    plan.addedAreaPerDevice.assign(1, ResourceVector{});
    const Timing t = timeSimulate(g, cluster, part, binding, plan,
                                  std::vector<Hertz>(1, 300.0e6));
    return t.events / t.seconds;
}

} // namespace

int
main(int argc, char **argv)
{
    JsonReport report(argc, argv);

    std::printf("Simulator event throughput\n\n");
    {
        TextTable t({"Pipeline", "events/s"});
        const int shapes[][2] = {{8, 64}, {32, 64}, {32, 512},
                                 {128, 128}};
        for (const auto &s : shapes) {
            const double eps = pipelineEventsPerSecond(s[0], s[1]);
            t.addRow({strprintf("depth=%d blocks=%d", s[0], s[1]),
                      strprintf("%.3g", eps)});
            report.add(strprintf("pipeline.d%d.b%d.events_per_s", s[0],
                                 s[1]),
                       eps);
        }
        t.print();
    }

    apps::CnnConfig cfg;
    cfg.rows = 13;
    cfg.cols = 32;
    cfg.numFpgas = 8;
    cfg.batch = 32;
    cfg.numBlocks = 224;
    apps::AppDesign app = apps::buildCnn(cfg);
    const Cluster cluster(makeU55C(), Topology(TopologyKind::Ring, 8),
                          1);
    CompileOptions copt;
    copt.mode = CompileMode::TapaCs;
    copt.numFpgas = 8;
    const CompileResult compiled =
        compileProgram(app.graph, app.tasks, cluster, copt);
    if (!compiled.routable)
        fatal("8-FPGA CNN did not route: %s",
              compiled.failureReason.c_str());

    const Timing cnn =
        timeSimulate(app.graph, cluster, compiled.partition,
                     compiled.binding, compiled.pipeline,
                     compiled.deviceFmax);

    std::printf("\n8-FPGA CNN (13x32, batch 32): %.0f events\n",
                cnn.events);
    TextTable t({"Design", "seconds", "events/s"});
    t.addRow({"cnn 13x32 / F8", strprintf("%.4f", cnn.seconds),
              strprintf("%.3g", cnn.events / cnn.seconds)});
    t.print();

    report.add("cnn8.events", cnn.events);
    report.add("cnn8.serial_seconds", cnn.seconds);
    report.write();
    return 0;
}
