/**
 * @file
 * Tests for the dataflow simulator: timing arithmetic, pipelining,
 * contention, SDF rates, cycles, network transfers, and the typed
 * abort and error paths of trySimulate().
 */

#include <string>

#include <gtest/gtest.h>

#include "obs/metrics.hh"
#include "sim/dataflow_sim.hh"
#include "sim/server.hh"

namespace tapacs::sim
{
namespace
{

/** Environment with trivially-routable placement/pipelining. */
struct Rig
{
    TaskGraph g{"sim"};
    Cluster cluster = makePaperTestbed(1);
    DevicePartition part;
    HbmBinding binding;
    PipelinePlan plan;
    std::vector<Hertz> fmax;

    VertexId
    add(const std::string &name, const WorkProfile &w, DeviceId dev = 0)
    {
        const VertexId v = g.addVertex(name, ResourceVector{}, w);
        part.deviceOf.push_back(dev);
        return v;
    }

    /** Default placement: every HBM task gets its requested
     *  channels, no interconnect pipelining, 300 MHz devices. */
    void
    prepare()
    {
        binding.channelsOf.assign(g.numVertices(), {});
        binding.usersPerChannel.assign(
            cluster.numDevices(),
            std::vector<int>(cluster.device().memory().channels, 0));
        std::vector<int> next(cluster.numDevices(), 0);
        for (VertexId v = 0; v < g.numVertices(); ++v) {
            const int dev = part.deviceOf[v];
            for (int c = 0; c < g.vertex(v).work.memChannels; ++c) {
                const int ch =
                    next[dev]++ % cluster.device().memory().channels;
                binding.channelsOf[v].push_back(ch);
                ++binding.usersPerChannel[dev][ch];
            }
        }
        plan.edges.assign(g.numEdges(), EdgePipelining{});
        plan.addedAreaPerDevice.assign(cluster.numDevices(),
                                       ResourceVector{});
        if (fmax.empty())
            fmax.assign(cluster.numDevices(), 300.0e6);
    }

    SimResult
    run()
    {
        prepare();
        return simulate(g, cluster, part, binding, plan, fmax);
    }

    StatusOr<SimResult>
    tryRun(const SimOptions &options)
    {
        prepare();
        return trySimulate(g, cluster, part, binding, plan, fmax,
                           options);
    }
};

/** Eight-task chain with one task per device of an 8-FPGA testbed,
 *  so tokens cross both intra-node ports and the node boundary. */
void
buildCrossNodeChain(Rig &r)
{
    r.cluster = makePaperTestbed(8);
    for (int i = 0; i < 8; ++i) {
        WorkProfile w;
        w.computeOps = 2.0e6 + 1.0e5 * i;
        w.numBlocks = 16;
        const VertexId v = r.add("t" + std::to_string(i), w, i);
        if (i > 0)
            r.g.addEdge(v - 1, v, 64, 4.0e5);
    }
}

TEST(Server, SerializesRequests)
{
    Server s;
    EXPECT_DOUBLE_EQ(s.acquire(0.0, 2.0), 2.0);
    EXPECT_DOUBLE_EQ(s.acquire(0.0, 3.0), 5.0); // queued behind first
    EXPECT_DOUBLE_EQ(s.acquire(10.0, 1.0), 11.0);
    EXPECT_DOUBLE_EQ(s.busyTime(), 6.0);
    EXPECT_EQ(s.requests(), 3u);
    s.reset();
    EXPECT_DOUBLE_EQ(s.busyUntil(), 0.0);
}

TEST(Server, BackToBackAcquiresAccrueWaitNotIdle)
{
    Server s;
    EXPECT_DOUBLE_EQ(s.acquire(0.0, 2.0), 2.0);
    EXPECT_DOUBLE_EQ(s.acquire(0.0, 3.0), 5.0);
    // Two requests with no idle gap: busy is the full span, and the
    // second waited 2 s behind the first.
    EXPECT_DOUBLE_EQ(s.busyTime(), 5.0);
    EXPECT_DOUBLE_EQ(s.waitTime(), 2.0);

    Server g;
    EXPECT_DOUBLE_EQ(g.acquire(0.0, 2.0), 2.0);
    EXPECT_DOUBLE_EQ(g.acquire(10.0, 1.0), 11.0);
    // Gapped requests: the idle 8 s is neither busy nor waiting.
    EXPECT_DOUBLE_EQ(g.busyTime(), 3.0);
    EXPECT_DOUBLE_EQ(g.waitTime(), 0.0);
}

TEST(Server, ResetReturnsAllAccountingToZero)
{
    Server s;
    s.acquire(0.0, 2.0);
    s.acquire(0.0, 3.0);
    ASSERT_GT(s.busyTime(), 0.0);
    ASSERT_GT(s.waitTime(), 0.0);
    ASSERT_EQ(s.requests(), 2u);

    s.reset();
    EXPECT_DOUBLE_EQ(s.busyUntil(), 0.0);
    EXPECT_DOUBLE_EQ(s.busyTime(), 0.0);
    EXPECT_DOUBLE_EQ(s.waitTime(), 0.0);
    EXPECT_EQ(s.requests(), 0u);

    // Usable again from time zero, with fresh accounting.
    EXPECT_DOUBLE_EQ(s.acquire(5.0, 1.0), 6.0);
    EXPECT_DOUBLE_EQ(s.busyTime(), 1.0);
    EXPECT_EQ(s.requests(), 1u);
}

/**
 * Acceptance: the metrics snapshot after a run reports per-resource
 * utilization matching the servers' busy-time accounting to 1e-9.
 */
TEST(Sim, MetricsExportMatchesServerBusyTime)
{
    obs::MetricsRegistry::global().clear();
    Rig r;
    WorkProfile w;
    w.computeOps = 3.0e9;
    w.opsPerCycle = 10.0;
    w.numBlocks = 4;
    w.memReadBytes = 1.0e9;
    w.memChannels = 2;
    w.memPortWidthBits = 512;
    r.add("t", w);
    SimResult res = r.run();

    obs::MetricsSnapshot snap =
        obs::MetricsRegistry::global().snapshot();
    // The task datapath gauge mirrors the compute busy accounting.
    ASSERT_TRUE(snap.hasGauge("tapacs.sim.task.t.busy_seconds"));
    EXPECT_NEAR(snap.gaugeValue("tapacs.sim.task.t.busy_seconds"),
                res.deviceComputeBusy[0], 1e-9);
    EXPECT_DOUBLE_EQ(snap.gaugeValue("tapacs.sim.task.t.requests"),
                     static_cast<double>(w.numBlocks));
    EXPECT_TRUE(snap.hasGauge("tapacs.sim.task.t.wait_seconds"));

    // HBM gauges sum to the run's aggregate channel busy time.
    // (clear() zeroes but keeps names registered by earlier tests in
    // this binary, so only count the gauges this run populated.)
    double hbm_busy = 0.0;
    int hbm_gauges = 0;
    for (const auto &[name, value] : snap.gauges) {
        if (name.rfind("tapacs.sim.hbm.", 0) == 0 &&
            name.size() > 13 &&
            name.compare(name.size() - 13, 13, ".busy_seconds") == 0) {
            hbm_busy += value;
            if (value > 0.0)
                ++hbm_gauges;
        }
    }
    EXPECT_EQ(hbm_gauges, 2); // one per bound channel; idle skipped
    EXPECT_NEAR(hbm_busy, res.stats.get("hbm.busy_seconds"), 1e-9);
}

TEST(Sim, MetricsExportCanBeDisabled)
{
    obs::MetricsRegistry::global().clear();
    Rig r;
    WorkProfile w;
    w.computeOps = 1000.0;
    r.add("t", w);
    r.binding.channelsOf.assign(1, {});
    r.binding.usersPerChannel.assign(1, std::vector<int>(32, 0));
    r.plan.edges.assign(r.g.numEdges(), EdgePipelining{});
    r.plan.addedAreaPerDevice.assign(1, ResourceVector{});
    r.fmax.assign(1, 300.0e6);
    SimOptions opt;
    opt.exportMetrics = false;
    simulate(r.g, r.cluster, r.part, r.binding, r.plan, r.fmax, opt);
    // clear() keeps names registered by earlier tests, so "absent"
    // means every sim gauge stayed at its cleared zero.
    obs::MetricsSnapshot snap =
        obs::MetricsRegistry::global().snapshot();
    for (const auto &[name, value] : snap.gauges) {
        if (name.rfind("tapacs.sim.", 0) == 0) {
            EXPECT_DOUBLE_EQ(value, 0.0) << name;
        }
    }
}

TEST(Sim, StaleSimGaugesClearedBetweenRuns)
{
    // Regression for the between-runs accounting bug: a resource
    // exported by run A but absent in run B must not keep reporting
    // A's numbers after B exports.
    obs::MetricsRegistry::global().clear();
    {
        // Producer on device 0 streams 8 blocks to a consumer on 1.
        Rig r;
        r.cluster = makePaperTestbed(2);
        WorkProfile w;
        w.computeOps = 3.0e7 * 8; // 0.1 s per block at 300 MHz
        w.opsPerCycle = 1.0;
        w.numBlocks = 8;
        r.g.addEdge(r.add("src", w, 0), r.add("dst", w, 1), 64, 112.5e6);
        r.run();
    }
    const auto snap1 = obs::MetricsRegistry::global().snapshot();
    ASSERT_TRUE(snap1.hasGauge("tapacs.sim.task.dst.busy_seconds"));
    ASSERT_GT(snap1.gaugeValue("tapacs.sim.task.dst.busy_seconds"), 0.0);

    // Second run with a different graph: no task named "dst".
    TaskGraph g("solo");
    WorkProfile w;
    w.computeOps = 1000.0;
    g.addVertex("alone", ResourceVector{}, w);
    Cluster cluster = makePaperTestbed(1);
    DevicePartition part;
    part.deviceOf = {0};
    HbmBinding binding;
    binding.channelsOf.assign(1, {});
    binding.usersPerChannel.assign(
        1, std::vector<int>(cluster.device().memory().channels, 0));
    PipelinePlan plan;
    plan.edges.assign(0, EdgePipelining{});
    plan.addedAreaPerDevice.assign(1, ResourceVector{});
    simulate(g, cluster, part, binding, plan, {300.0e6});

    const auto snap2 = obs::MetricsRegistry::global().snapshot();
    EXPECT_DOUBLE_EQ(snap2.gaugeValue("tapacs.sim.task.dst.busy_seconds"),
                     0.0);
    EXPECT_GT(snap2.gaugeValue("tapacs.sim.task.alone.busy_seconds"),
              0.0);
}

TEST(Sim, SingleTaskComputeTime)
{
    Rig r;
    WorkProfile w;
    w.computeOps = 3.0e9;
    w.opsPerCycle = 10.0;
    w.numBlocks = 4;
    r.add("t", w);
    SimResult res = r.run();
    // 3e9 ops / (10 ops/cycle * 300 MHz) = 1 s.
    EXPECT_NEAR(res.makespan, 1.0, 1e-9);
    EXPECT_NEAR(res.deviceUtilization(0), 1.0, 1e-9);
}

TEST(Sim, FrequencyScalesCompute)
{
    Rig r;
    WorkProfile w;
    w.computeOps = 3.0e9;
    w.opsPerCycle = 10.0;
    r.add("t", w);
    r.fmax.assign(1, 150.0e6);
    SimResult res = r.run();
    EXPECT_NEAR(res.makespan, 2.0, 1e-9);
}

TEST(Sim, HbmReadTimeAtChannelBandwidth)
{
    Rig r;
    WorkProfile w;
    w.memReadBytes = 460.0e9 / 32.0; // one channel-second of data
    w.memChannels = 1;
    w.memPortWidthBits = 512;
    r.add("t", w);
    SimResult res = r.run();
    EXPECT_NEAR(res.makespan, 1.0, 1e-6);
}

TEST(Sim, NarrowPortLimitsChannelRate)
{
    // 256-bit port at 300 MHz moves 9.6 GB/s < 14.4 GB/s channel
    // bandwidth (the paper's 51 % HBM saturation effect at the
    // design's real clock).
    Rig r;
    WorkProfile w;
    w.memReadBytes = 9.6e9;
    w.memChannels = 1;
    w.memPortWidthBits = 256;
    r.add("t", w);
    SimResult res = r.run();
    EXPECT_NEAR(res.makespan, 1.0, 1e-6);
}

TEST(Sim, ChannelsSplitTraffic)
{
    Rig r;
    WorkProfile w;
    w.memReadBytes = 4.0 * 460.0e9 / 32.0;
    w.memChannels = 4;
    w.memPortWidthBits = 512;
    r.add("t", w);
    SimResult res = r.run();
    EXPECT_NEAR(res.makespan, 1.0, 1e-6);
}

TEST(Sim, HbmContentionSerializes)
{
    // Two tasks sharing one channel take twice as long as two tasks
    // on distinct channels.
    auto build = [](bool share) {
        Rig r;
        WorkProfile w;
        w.memReadBytes = 460.0e9 / 32.0;
        w.memChannels = 1;
        w.memPortWidthBits = 512;
        r.add("a", w);
        r.add("b", w);
        SimResult res;
        // run() binds round-robin: distinct channels. For sharing we
        // bind manually afterwards.
        if (!share)
            return r.run();
        r.binding.channelsOf = {{0}, {0}};
        r.binding.usersPerChannel.assign(1, std::vector<int>(32, 0));
        r.binding.usersPerChannel[0][0] = 2;
        r.plan.edges.assign(r.g.numEdges(), EdgePipelining{});
        r.plan.addedAreaPerDevice.assign(1, ResourceVector{});
        r.fmax.assign(1, 300.0e6);
        return simulate(r.g, r.cluster, r.part, r.binding, r.plan,
                        r.fmax);
    };
    const Seconds separate = build(false).makespan;
    const Seconds shared = build(true).makespan;
    EXPECT_NEAR(separate, 1.0, 1e-6);
    EXPECT_NEAR(shared, 2.0, 1e-6);
}

TEST(Sim, PipelineChainThroughput)
{
    // Three equal stages streaming 10 blocks: makespan ~= bottleneck
    // stage total time + fill, far below 3x.
    Rig r;
    WorkProfile w;
    w.computeOps = 3.0e9;
    w.opsPerCycle = 10.0;
    w.numBlocks = 10;
    const VertexId a = r.add("a", w);
    const VertexId b = r.add("b", w);
    const VertexId c = r.add("c", w);
    r.g.addEdge(a, b, 64);
    r.g.addEdge(b, c, 64);
    SimResult res = r.run();
    EXPECT_GT(res.makespan, 1.0);
    EXPECT_LT(res.makespan, 1.35); // 1.0 + 2 fill blocks of 0.1
}

TEST(Sim, CoarseBlocksSerializeChain)
{
    // Same chain with numBlocks = 1: stages cannot overlap at all.
    Rig r;
    WorkProfile w;
    w.computeOps = 3.0e9;
    w.opsPerCycle = 10.0;
    w.numBlocks = 1;
    const VertexId a = r.add("a", w);
    const VertexId b = r.add("b", w);
    r.g.addEdge(a, b, 64);
    SimResult res = r.run();
    EXPECT_NEAR(res.makespan, 2.0, 1e-6);
}

TEST(Sim, RateMismatchGatherAndScatter)
{
    // Producer with 8 blocks feeding a 1-block gatherer, then a
    // 1-block scatterer feeding an 8-block consumer.
    Rig r;
    WorkProfile fine;
    fine.computeOps = 8.0e8;
    fine.opsPerCycle = 1.0;
    fine.numBlocks = 8;
    WorkProfile coarse;
    coarse.computeOps = 1.0e8;
    coarse.opsPerCycle = 1.0;
    coarse.numBlocks = 1;
    const VertexId p = r.add("p", fine);
    const VertexId gather = r.add("gather", coarse);
    const VertexId q = r.add("q", fine);
    r.g.addEdge(p, gather, 64);  // need 8 per firing
    r.g.addEdge(gather, q, 64);  // credit 8 per token
    SimResult res = r.run();
    // p: 8/3 s; gather waits for all of p then 1/3 s; q streams 8/3 s.
    const double expect = 8.0 / 3.0 + 1.0 / 3.0 + 8.0 / 3.0;
    EXPECT_NEAR(res.makespan, expect, 0.05);
}

TEST(SimDeath, IrregularRateRejected)
{
    Rig r;
    WorkProfile a;
    a.numBlocks = 3;
    WorkProfile b;
    b.numBlocks = 2;
    const VertexId x = r.add("x", a);
    const VertexId y = r.add("y", b);
    r.g.addEdge(x, y, 64);
    EXPECT_DEATH(r.run(), "rate ratio");
}

TEST(SimDeath, MemoryWithoutChannelsRejected)
{
    Rig r;
    WorkProfile w;
    w.memReadBytes = 1024.0;
    w.memChannels = 0;
    r.add("t", w);
    EXPECT_DEATH(r.run(), "binds no channels");
}

TEST(SimDeath, CycleWithoutTokensDeadlocks)
{
    Rig r;
    WorkProfile w;
    w.computeOps = 100.0;
    const VertexId a = r.add("a", w);
    const VertexId b = r.add("b", w);
    r.g.addEdge(a, b, 64);
    r.g.addEdge(b, a, 64);
    EXPECT_DEATH(r.run(), "rate-consistent");
}

TEST(Sim, CycleWithInitialTokensRuns)
{
    Rig r;
    WorkProfile w;
    w.computeOps = 3.0e8;
    w.opsPerCycle = 1.0;
    w.numBlocks = 10;
    const VertexId a = r.add("a", w);
    const VertexId b = r.add("b", w);
    r.g.addEdge(a, b, 64);
    const EdgeId back = r.g.addEdge(b, a, 64);
    r.g.edge(back).initialTokens = 1;
    SimResult res = r.run();
    // Strict alternation: a1 b1 a2 b2 ... 20 x 0.1 s.
    EXPECT_NEAR(res.makespan, 2.0, 1e-6);
}

TEST(Sim, LookaheadTokensOverlapCycle)
{
    Rig r;
    WorkProfile w;
    w.computeOps = 3.0e8;
    w.opsPerCycle = 1.0;
    w.numBlocks = 10;
    const VertexId a = r.add("a", w);
    const VertexId b = r.add("b", w);
    r.g.addEdge(a, b, 64);
    const EdgeId back = r.g.addEdge(b, a, 64);
    r.g.edge(back).initialTokens = 10; // full lookahead
    SimResult res = r.run();
    EXPECT_NEAR(res.makespan, 1.1, 0.01); // pipelined + one fill
}

TEST(Sim, InterFpgaTransferAddsLatencyAndBytes)
{
    Rig r;
    r.cluster = makePaperTestbed(2);
    WorkProfile w;
    w.computeOps = 3.0e7; // 0.1 s at 1 op/cycle, 300 MHz
    w.opsPerCycle = 1.0;
    w.numBlocks = 1;
    const VertexId a = r.add("a", w, 0);
    const VertexId b = r.add("b", w, 1);
    r.g.addEdge(a, b, 64, 112.5e6); // 10 ms at 11.25 GB/s
    SimResult res = r.run();
    EXPECT_GT(res.interDeviceBytes, 0.0);
    EXPECT_NEAR(res.makespan, 0.1 + 0.01 + 0.1, 0.002);
}

TEST(Sim, IntraFpgaFifoLatencyFromPlan)
{
    Rig r;
    WorkProfile w;
    w.computeOps = 300.0; // 1 cycle at fmax... negligible
    w.opsPerCycle = 1.0;
    w.numBlocks = 1;
    const VertexId a = r.add("a", w);
    const VertexId b = r.add("b", w);
    r.g.addEdge(a, b, 64);
    // Manually deepen the pipeline: 300e6 cycles = 1 s of latency.
    r.binding.channelsOf.assign(2, {});
    r.binding.usersPerChannel.assign(1, std::vector<int>(32, 0));
    r.plan.edges.assign(1, EdgePipelining{});
    r.plan.edges[0].stages = 300000000;
    r.plan.addedAreaPerDevice.assign(1, ResourceVector{});
    r.fmax.assign(1, 300.0e6);
    SimResult res = simulate(r.g, r.cluster, r.part, r.binding, r.plan,
                             r.fmax);
    EXPECT_GT(res.makespan, 1.0);
}

TEST(Sim, CrossNodeTransfersUseHostPath)
{
    Rig r;
    r.cluster = makePaperTestbed(8);
    WorkProfile w;
    w.computeOps = 3.0e6;
    w.opsPerCycle = 1.0;
    w.numBlocks = 1;
    const VertexId a = r.add("a", w, 0);
    const VertexId b = r.add("b", w, 4); // other node
    r.part.deviceOf = {0, 4};
    r.g.addEdge(a, b, 64, 1.25e6); // 1 ms at 10 Gbps
    SimResult res = r.run();
    EXPECT_DOUBLE_EQ(res.stats.get("net.inter.transfers"), 1.0);
    // Must include the 10 Gbps leg plus two PCIe host hops.
    EXPECT_GT(res.makespan, 1.0e-3);
}

TEST(Sim, ExpiredDeadlineIsTyped)
{
    Rig r;
    buildCrossNodeChain(r);
    SimOptions opt;
    opt.exportMetrics = false;
    opt.ctx = Context::withTimeout(0.0); // already expired
    const StatusOr<SimResult> res = r.tryRun(opt);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.value().status.code(), StatusCode::DeadlineExceeded);
    EXPECT_FALSE(res.value().completed);
}

TEST(Sim, EventCapIsTyped)
{
    Rig r;
    buildCrossNodeChain(r);
    SimOptions opt;
    opt.exportMetrics = false;
    opt.maxEvents = 4;
    const StatusOr<SimResult> res = r.tryRun(opt);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.value().status.code(), StatusCode::ResourceExhausted);
    EXPECT_NE(res.value().status.message().find("event cap"),
              std::string::npos);
    EXPECT_DOUBLE_EQ(res.value().stats.get("events"), 4.0);
}

TEST(Sim, TrySimulateReturnsInvalidInputInsteadOfFatal)
{
    Rig rate; // non-integral rate ratio: 3 blocks feeding 2
    WorkProfile w3;
    w3.computeOps = 1e6;
    w3.numBlocks = 3;
    WorkProfile w2 = w3;
    w2.numBlocks = 2;
    rate.g.addEdge(rate.add("a", w3), rate.add("b", w2), 32, 1e4);
    StatusOr<SimResult> res = rate.tryRun({});
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::InvalidInput);
    EXPECT_NE(res.status().message().find("rate ratio"),
              std::string::npos);

    Rig mem; // memory access with no bound channels
    WorkProfile wm;
    wm.computeOps = 1e6;
    wm.numBlocks = 2;
    wm.memReadBytes = 1e6;
    mem.add("m", wm);
    res = mem.tryRun({});
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::InvalidInput);
    EXPECT_NE(res.status().message().find("binds no channels"),
              std::string::npos);
}

TEST(Sim, StatsPopulated)
{
    Rig r;
    WorkProfile w;
    w.computeOps = 1000.0;
    w.memReadBytes = 1.0e6;
    w.memChannels = 2;
    r.add("t", w);
    SimResult res = r.run();
    EXPECT_GT(res.stats.get("hbm.busy_seconds"), 0.0);
    EXPECT_DOUBLE_EQ(res.stats.get("events"), 0.0); // no edges
    EXPECT_EQ(res.deviceTaskCount[0], 1);
}

} // namespace
} // namespace tapacs::sim
