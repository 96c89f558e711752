/**
 * @file
 * Fault-injection tests: the FaultPlan/FaultInjector model, the
 * reliable transport's retry policy, graceful degradation of the
 * simulator under scripted fault scenarios (link degrade, flap storm,
 * mid-run FPGA death), and byte-exact replay of seeded scenarios,
 * including across compile worker thread counts.
 */

#include <string>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "compiler/compiler.hh"
#include "network/faults.hh"
#include "network/protocols.hh"
#include "obs/metrics.hh"
#include "sim/dataflow_sim.hh"
#include "sim/report.hh"

namespace tapacs
{
namespace
{

using sim::SimOptions;
using sim::SimResult;

// ---------------------------------------------------------------
// FaultPlan / FaultInjector model
// ---------------------------------------------------------------

TEST(FaultPlan, BuilderRecordsEvents)
{
    FaultPlan plan(42);
    plan.degradeLink(0, 1, 1.0, 0.5)
        .jitterLink(1, 2, 0.0, 1e-6)
        .dropLink(0, 1, 0.0, 0.05)
        .flapLink(2, 3, 1.0, 2.0)
        .killDevice(3, 5.0);
    EXPECT_EQ(plan.seed(), 42u);
    EXPECT_EQ(plan.events().size(), 5u);
    EXPECT_FALSE(plan.empty());
}

TEST(FaultPlanDeath, InvalidMagnitudesRejected)
{
    FaultPlan plan;
    EXPECT_DEATH(plan.degradeLink(0, 1, 0.0, 0.0), "factor");
    EXPECT_DEATH(plan.dropLink(0, 1, 0.0, 1.5), "probability");
    EXPECT_DEATH(plan.flapLink(0, 1, 2.0, 1.0), "flap");
}

TEST(FaultInjector, LinkConditionWindowsAndCombination)
{
    FaultPlan plan(7);
    plan.degradeLink(0, 1, 1.0, 0.5, 3.0)
        .degradeLink(1, 0, 2.0, 0.25, 4.0) // overlapping, worse
        .jitterLink(0, 1, 0.0, 2e-6)
        .flapLink(0, 1, 5.0, 6.0);
    FaultInjector inj(plan, 4);

    // Before onset: healthy except the always-on jitter.
    LinkCondition c = inj.linkAt(0, 1, 0.5);
    EXPECT_TRUE(c.up);
    EXPECT_DOUBLE_EQ(c.bandwidthFactor, 1.0);
    EXPECT_DOUBLE_EQ(c.maxJitter, 2e-6);

    // Overlap window: conservative combination (min factor).
    c = inj.linkAt(1, 0, 2.5); // endpoint order must not matter
    EXPECT_DOUBLE_EQ(c.bandwidthFactor, 0.25);

    // Flap window: down, with a recovery time.
    c = inj.linkAt(0, 1, 5.5);
    EXPECT_FALSE(c.up);
    EXPECT_DOUBLE_EQ(c.upAt, 6.0);

    // After recovery and every degrade window: healthy again.
    c = inj.linkAt(0, 1, 7.0);
    EXPECT_TRUE(c.up);
    EXPECT_DOUBLE_EQ(c.bandwidthFactor, 1.0);

    // Unrelated link never affected.
    c = inj.linkAt(2, 3, 2.5);
    EXPECT_TRUE(c.up);
    EXPECT_DOUBLE_EQ(c.bandwidthFactor, 1.0);
    EXPECT_DOUBLE_EQ(c.maxJitter, 0.0);
}

TEST(FaultInjector, DeviceDeathTakesLinksDownForever)
{
    FaultPlan plan(7);
    plan.killDevice(2, 1.5);
    FaultInjector inj(plan, 4);

    EXPECT_FALSE(inj.deviceDead(2, 1.0));
    EXPECT_TRUE(inj.deviceDead(2, 1.5));
    EXPECT_DOUBLE_EQ(inj.deviceDeathTime(2), 1.5);
    EXPECT_EQ(inj.deviceDeathTime(0), kFaultForever);
    ASSERT_EQ(inj.scheduledDeaths().size(), 1u);
    EXPECT_EQ(inj.scheduledDeaths()[0], 2);

    LinkCondition c = inj.linkAt(1, 2, 2.0);
    EXPECT_FALSE(c.up);
    EXPECT_EQ(c.upAt, kFaultForever);
    // Links not touching the dead device stay up.
    EXPECT_TRUE(inj.linkAt(0, 1, 2.0).up);
}

TEST(FaultInjector, DrawsArePureFunctionsOfSeedAndIdentity)
{
    FaultPlan plan(1234);
    plan.dropLink(0, 1, 0.0, 0.5);
    FaultInjector a(plan, 2);
    FaultInjector b(plan, 2);

    int drops = 0;
    for (std::uint64_t m = 0; m < 200; ++m) {
        const bool d = a.dropsMessage(0, 1, m, 0, 0.5);
        // Bit-identical across injector instances and query order.
        EXPECT_EQ(d, b.dropsMessage(0, 1, m, 0, 0.5));
        EXPECT_EQ(d, a.dropsMessage(1, 0, m, 0, 0.5)); // unordered link
        drops += d ? 1 : 0;
        const double u = a.uniformDraw(0, 1, m, 0, 2);
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        EXPECT_DOUBLE_EQ(u, b.uniformDraw(0, 1, m, 0, 2));
        // Distinct streams decorrelate.
        EXPECT_NE(u, a.uniformDraw(0, 1, m, 0, 3));
    }
    // p = 0.5 over 200 attempts: a draw that is not degenerate.
    EXPECT_GT(drops, 60);
    EXPECT_LT(drops, 140);

    FaultPlan other(99);
    other.dropLink(0, 1, 0.0, 0.5);
    FaultInjector c(other, 2);
    int differs = 0;
    for (std::uint64_t m = 0; m < 200; ++m) {
        differs += a.dropsMessage(0, 1, m, 0, 0.5) !=
                           c.dropsMessage(0, 1, m, 0, 0.5)
                       ? 1
                       : 0;
    }
    EXPECT_GT(differs, 0); // the seed matters
}

// ---------------------------------------------------------------
// ReliableTransport retry policy
// ---------------------------------------------------------------

/** Unlimited-capacity acquire: the attempt starts immediately. */
Seconds
freeAcquire(Seconds earliest, Seconds duration)
{
    return earliest + duration;
}

TEST(ReliableTransport, HealthyLinkIsSingleAttemptZeroOverhead)
{
    ReliableTransport tr(ReliableTransportConfig{}, nullptr);
    const TransferOutcome out =
        tr.send(0, 1, 1, /*earliest=*/2.0, /*occupancy=*/0.5,
                /*flightLatency=*/0.1, freeAcquire);
    EXPECT_TRUE(out.delivered);
    EXPECT_EQ(out.attempts, 1);
    EXPECT_EQ(out.retries, 0);
    EXPECT_EQ(out.timeouts, 0);
    EXPECT_DOUBLE_EQ(out.backoffSeconds, 0.0);
    EXPECT_DOUBLE_EQ(out.finishTime, 2.6);
}

TEST(ReliableTransport, DegradedBandwidthStretchesOccupancy)
{
    FaultPlan plan(5);
    plan.degradeLink(0, 1, 0.0, 0.25);
    FaultInjector inj(plan, 2);
    ReliableTransport tr(ReliableTransportConfig{}, &inj);
    const TransferOutcome out =
        tr.send(0, 1, 1, 0.0, 1.0, 0.0, freeAcquire);
    EXPECT_TRUE(out.delivered);
    EXPECT_DOUBLE_EQ(out.finishTime, 4.0); // 1 s / 0.25
}

TEST(ReliableTransport, DropsRetryWithBoundedBackoffUntilDelivered)
{
    FaultPlan plan(11);
    plan.dropLink(0, 1, 0.0, 0.90); // brutal but recoverable
    FaultInjector inj(plan, 2);
    ReliableTransportConfig cfg;
    cfg.maxRetries = 200;
    ReliableTransport tr(cfg, &inj);

    const TransferOutcome out =
        tr.send(0, 1, 77, 0.0, 1e-6, 0.0, freeAcquire);
    ASSERT_TRUE(out.delivered);
    EXPECT_GT(out.retries, 0);
    EXPECT_EQ(out.timeouts, out.retries);
    EXPECT_EQ(out.attempts, out.retries + 1);
    EXPECT_GT(out.backoffSeconds, 0.0);
    // Every backoff interval is bounded by cap * (1 + jitterFrac).
    EXPECT_LE(out.backoffSeconds,
              out.retries * cfg.backoffCap *
                  (1.0 + cfg.backoffJitterFrac));
    EXPECT_EQ(tr.totalRetries(), out.retries);
    EXPECT_EQ(tr.totalUndelivered(), 0);
}

TEST(ReliableTransport, FlapParksSenderUntilRecovery)
{
    FaultPlan plan(3);
    plan.flapLink(0, 1, 0.0, 2.0);
    FaultInjector inj(plan, 2);
    ReliableTransport tr(ReliableTransportConfig{}, &inj);
    const TransferOutcome out =
        tr.send(0, 1, 1, 0.5, 0.25, 0.0, freeAcquire);
    ASSERT_TRUE(out.delivered);
    EXPECT_DOUBLE_EQ(out.linkDownWaitSeconds, 1.5);
    EXPECT_DOUBLE_EQ(out.finishTime, 2.25);
}

TEST(ReliableTransport, DeadEndpointIsUndeliverable)
{
    FaultPlan plan(3);
    plan.killDevice(1, 0.0);
    FaultInjector inj(plan, 2);
    ReliableTransport tr(ReliableTransportConfig{}, &inj);
    const TransferOutcome out =
        tr.send(0, 1, 1, 1.0, 0.25, 0.0, freeAcquire);
    EXPECT_FALSE(out.delivered);
    EXPECT_EQ(tr.totalUndelivered(), 1);
}

// ---------------------------------------------------------------
// Simulator scenarios
// ---------------------------------------------------------------

/** Two-device rig: producer on device 0 streams to consumer on 1. */
struct NetRig
{
    TaskGraph g{"faultsim"};
    Cluster cluster = makePaperTestbed(2);
    DevicePartition part;
    HbmBinding binding;
    PipelinePlan plan;
    std::vector<Hertz> fmax;
    EdgeId edge = -1;

    explicit NetRig(int blocks = 8, double edgeBytes = 112.5e6)
    {
        WorkProfile w;
        w.computeOps = 3.0e7; // 0.1 s per block at 1 op/cycle, 300 MHz
        w.opsPerCycle = 1.0;
        w.numBlocks = blocks;
        w.computeOps *= blocks;
        const VertexId a =
            g.addVertex("src", ResourceVector{}, w);
        const VertexId b =
            g.addVertex("dst", ResourceVector{}, w);
        part.deviceOf = {0, 1};
        edge = g.addEdge(a, b, 64, edgeBytes);
    }

    SimResult
    run(const FaultPlan *faults = nullptr,
        ReliableTransportConfig transport = {})
    {
        binding.channelsOf.assign(g.numVertices(), {});
        binding.usersPerChannel.assign(
            cluster.numDevices(),
            std::vector<int>(cluster.device().memory().channels, 0));
        plan.edges.assign(g.numEdges(), EdgePipelining{});
        plan.addedAreaPerDevice.assign(cluster.numDevices(),
                                       ResourceVector{});
        fmax.assign(cluster.numDevices(), 300.0e6);
        SimOptions opt;
        opt.faults = faults;
        opt.transport = transport;
        return sim::simulate(g, cluster, part, binding, plan, fmax, opt);
    }
};

TEST(FaultSim, EmptyPlanMatchesHealthyRunExactly)
{
    NetRig rig;
    const SimResult healthy = rig.run();
    FaultPlan empty(1);
    NetRig rig2;
    const SimResult faulted = rig2.run(&empty);
    EXPECT_DOUBLE_EQ(healthy.makespan, faulted.makespan);
    EXPECT_TRUE(faulted.completed);
}

TEST(FaultSim, SingleLinkDegradeSlowsOnlyThatPath)
{
    NetRig rig;
    const SimResult healthy = rig.run();

    FaultPlan plan(21);
    plan.degradeLink(0, 1, 0.0, 0.25);
    NetRig rig2;
    const SimResult degraded = rig2.run(&plan);

    EXPECT_TRUE(degraded.completed);
    EXPECT_GT(degraded.makespan, healthy.makespan);
    // All tokens still arrive exactly once.
    EXPECT_EQ(degraded.edgeComm[rig2.edge].messages, 8);
    EXPECT_EQ(degraded.edgeComm[rig2.edge].undelivered, 0);
    EXPECT_EQ(degraded.firedBlocks, (std::vector<int>{8, 8}));
}

TEST(FaultSim, DropStormDeliversExactlyOnceWithRetries)
{
    FaultPlan plan(4242);
    plan.dropLink(0, 1, 0.0, 0.40);
    NetRig rig(/*blocks=*/32);
    const SimResult res = rig.run(&plan);

    EXPECT_TRUE(res.completed);
    const sim::EdgeCommStats &ec = res.edgeComm[rig.edge];
    EXPECT_EQ(ec.messages, 32);
    EXPECT_EQ(ec.undelivered, 0);
    EXPECT_GT(ec.retries, 0);
    EXPECT_EQ(ec.retries, ec.timeouts);
    EXPECT_GT(ec.backoffSeconds, 0.0);
    EXPECT_DOUBLE_EQ(res.stats.get("net.retries"),
                     static_cast<double>(ec.retries));
}

TEST(FaultSim, FlapStormReplaysByteExactly)
{
    FaultPlan plan(777);
    plan.flapLink(0, 1, 0.05, 0.12)
        .flapLink(0, 1, 0.3, 0.33)
        .flapLink(0, 1, 0.5, 0.58)
        .dropLink(0, 1, 0.0, 0.10)
        .jitterLink(0, 1, 0.0, 5e-4);

    NetRig rig1(/*blocks=*/16);
    const SimResult a = rig1.run(&plan);
    NetRig rig2(/*blocks=*/16);
    const SimResult b = rig2.run(&plan);

    EXPECT_TRUE(a.completed);
    ASSERT_EQ(a.edgeComm.size(), b.edgeComm.size());
    EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
    EXPECT_GT(a.edgeComm[rig1.edge].linkDownWaitSeconds, 0.0);

    // The rendered report is the regression artifact: byte-exact.
    const std::string ra = sim::faultReport(rig1.g, a);
    const std::string rb = sim::faultReport(rig2.g, b);
    EXPECT_EQ(ra, rb);
    EXPECT_NE(ra.find("Fault/recovery report"), std::string::npos);
}

TEST(FaultSim, FpgaDeathMidRunCompletesWithoutHang)
{
    // Kill the consumer device after ~3 of 8 blocks: the sim must
    // drain, not hang, and report the damage.
    FaultPlan plan(99);
    plan.killDevice(1, 0.35);
    NetRig rig;
    const SimResult res = rig.run(&plan);

    EXPECT_FALSE(res.completed);
    ASSERT_EQ(res.deadDevices.size(), 1u);
    EXPECT_EQ(res.deadDevices[0], 1);
    // The producer still finishes every block; the consumer does not.
    EXPECT_EQ(res.firedBlocks[0], 8);
    EXPECT_LT(res.firedBlocks[1], 8);
    // Undeliverable tokens are accounted, not silently lost.
    const sim::EdgeCommStats &ec = res.edgeComm[rig.edge];
    EXPECT_GT(ec.undelivered, 0);
    EXPECT_EQ(ec.messages, 8);

    const std::string report = sim::faultReport(rig.g, res);
    EXPECT_NE(report.find("INCOMPLETE"), std::string::npos);
    EXPECT_NE(report.find("dead devices: 1"), std::string::npos);
    EXPECT_NE(report.find("dst("), std::string::npos);

    // Bit-identical replay.
    NetRig rig2;
    const SimResult res2 = rig2.run(&plan);
    EXPECT_EQ(report, sim::faultReport(rig2.g, res2));
    EXPECT_DOUBLE_EQ(res.makespan, res2.makespan);
}

TEST(FaultSim, NetMetricsResetBetweenRuns)
{
    // Regression: counters and gauges must describe the latest run
    // only — a second, healthier run must not inherit the first
    // run's retry counts.
    FaultPlan stormy(4242);
    stormy.dropLink(0, 1, 0.0, 0.40);
    NetRig rig(/*blocks=*/32);
    rig.run(&stormy);
    const auto snap1 = obs::MetricsRegistry::global().snapshot();
    ASSERT_TRUE(snap1.hasCounter("tapacs.net.retries"));
    EXPECT_GT(snap1.counterValue("tapacs.net.retries"), 0);

    FaultPlan calm(4242);
    calm.jitterLink(0, 1, 0.0, 1e-9);
    NetRig rig2(/*blocks=*/32);
    rig2.run(&calm);
    const auto snap2 = obs::MetricsRegistry::global().snapshot();
    EXPECT_EQ(snap2.counterValue("tapacs.net.retries"), 0);
    EXPECT_EQ(snap2.counterValue("tapacs.net.timeouts"), 0);
}

TEST(FaultSim, StaleSimGaugesClearedBetweenRuns)
{
    // Regression for the between-runs accounting bug: a resource
    // exported by run A but absent in run B must not keep reporting
    // A's numbers after B exports.
    obs::MetricsRegistry::global().clear();
    {
        NetRig rig;
        rig.run();
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
    sim::simulate(g, cluster, part, binding, plan, {300.0e6});

    const auto snap2 = obs::MetricsRegistry::global().snapshot();
    EXPECT_DOUBLE_EQ(snap2.gaugeValue("tapacs.sim.task.dst.busy_seconds"),
                     0.0);
    EXPECT_GT(snap2.gaugeValue("tapacs.sim.task.alone.busy_seconds"),
              0.0);
}

// ---------------------------------------------------------------
// Faulted simulation of a compiled design
// ---------------------------------------------------------------

/** Random layered DAG sized to fit 4 paper-testbed FPGAs. */
TaskGraph
faultDesign(std::uint64_t seed)
{
    Rng rng(seed);
    TaskGraph g("faults");
    std::vector<VertexId> prev;
    for (int l = 0; l < 4; ++l) {
        std::vector<VertexId> cur;
        for (int i = 0; i < 4; ++i) {
            Vertex v;
            v.name = strprintf("t%d_%d", l, i);
            v.area = ResourceVector(rng.uniformReal(5000, 60000),
                                    rng.uniformReal(8000, 90000),
                                    rng.uniformReal(0, 40),
                                    rng.uniformReal(0, 80), 0);
            v.work.computeOps = rng.uniformReal(1e6, 1e8);
            v.work.numBlocks = 8;
            cur.push_back(g.addVertex(v));
        }
        if (!prev.empty()) {
            for (VertexId v : cur) {
                g.addEdge(prev[rng.uniformInt(0, prev.size() - 1)], v,
                          64, rng.uniformReal(1e4, 1e6));
            }
        }
        prev = cur;
    }
    return g;
}

TEST(FaultSim, ReportDeterministicAcrossWorkerThreadCounts)
{
    // Acceptance: the same seed gives bit-identical fault reports
    // whether the compile flow runs serial or with 4 workers.
    TaskGraph g1 = faultDesign(57);
    TaskGraph g2 = faultDesign(57);
    Cluster cluster = makePaperTestbed(4);
    FaultPlan plan(2026);
    plan.killDevice(2, 0.01).dropLink(0, 1, 0.0, 0.05);

    auto runOnce = [&](TaskGraph &g, int threads) {
        CompileOptions opt;
        opt.mode = CompileMode::TapaCs;
        opt.numFpgas = 4;
        opt.numThreads = threads;
        const CompileResult r = compile(g, cluster, opt);
        EXPECT_TRUE(r.routable) << r.failureReason;
        SimOptions sopt;
        sopt.faults = &plan;
        const SimResult run =
            sim::simulate(g, cluster, r.partition, r.binding,
                          r.pipeline, r.deviceFmax, sopt);
        return sim::faultReport(g, run);
    };
    EXPECT_EQ(runOnce(g1, 1), runOnce(g2, 4));
}

} // namespace
} // namespace tapacs
