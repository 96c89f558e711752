/**
 * @file
 * Tests for the two-level floorplanners and HBM channel binding —
 * the paper's eq. 1-4 machinery.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "common/rng.hh"
#include "floorplan/hbm_binding.hh"
#include "floorplan/inter_fpga.hh"
#include "floorplan/intra_fpga.hh"

namespace tapacs
{
namespace
{

/** A chain graph of n equal vertices with wide links. */
TaskGraph
makeChain(int n, double lut_each = 50000.0, int width = 512)
{
    TaskGraph g("chain");
    for (int i = 0; i < n; ++i) {
        g.addVertex(strprintf("t%d", i),
                    ResourceVector(lut_each, lut_each * 2.0, 10, 20, 0));
    }
    for (int i = 0; i + 1 < n; ++i)
        g.addEdge(i, i + 1, width, 1.0e6);
    return g;
}

/** Random connected graph for property tests. */
TaskGraph
makeRandomGraph(int n, std::uint64_t seed)
{
    Rng rng(seed);
    TaskGraph g("rand");
    for (int i = 0; i < n; ++i) {
        g.addVertex(strprintf("t%d", i),
                    ResourceVector(rng.uniformReal(1000, 80000),
                                   rng.uniformReal(1000, 120000),
                                   rng.uniformReal(0, 40),
                                   rng.uniformReal(0, 100), 0));
    }
    for (int i = 1; i < n; ++i) {
        g.addEdge(static_cast<int>(rng.uniformInt(0, i - 1)), i,
                  32 << rng.uniformInt(0, 4), 1.0e5);
    }
    for (int extra = 0; extra < n / 2; ++extra) {
        const int a = static_cast<int>(rng.uniformInt(0, n - 1));
        const int b = static_cast<int>(rng.uniformInt(0, n - 1));
        if (a != b)
            g.addEdge(a, b, 64, 1.0e5);
    }
    return g;
}

TEST(InterFpga, SingleDeviceTrivial)
{
    TaskGraph g = makeChain(5);
    Cluster c = makePaperTestbed(1);
    InterFpgaResult r = floorplanInterFpga(g, c);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.partition.devicesUsed(), 1);
    EXPECT_DOUBLE_EQ(r.cost, 0.0);
    EXPECT_DOUBLE_EQ(r.cutTrafficBytes, 0.0);
}

TEST(InterFpga, ChainSplitsContiguously)
{
    // A 10-vertex chain on 2 FPGAs: the optimal partition cuts the
    // chain once; balance forces roughly half on each side.
    TaskGraph g = makeChain(10);
    Cluster c = makePaperTestbed(2);
    InterFpgaResult r = floorplanInterFpga(g, c);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.partition.devicesUsed(), 2);
    EXPECT_EQ(cutEdgeCount(g, r.partition), 1);
}

TEST(InterFpga, RespectsThresholdOnRandomGraphs)
{
    for (int seed = 0; seed < 6; ++seed) {
        TaskGraph g = makeRandomGraph(24, 900 + seed);
        Cluster c = makePaperTestbed(3);
        InterFpgaOptions opt;
        opt.seed = seed;
        InterFpgaResult r = floorplanInterFpga(g, c, opt);
        ASSERT_TRUE(r.feasible) << "seed " << seed;
        EXPECT_TRUE(respectsThreshold(g, c, r.partition, opt.reserved,
                                      opt.threshold))
            << "seed " << seed;
    }
}

TEST(InterFpga, InfeasibleWhenTooBig)
{
    // One vertex larger than a whole device.
    TaskGraph g("huge");
    g.addVertex("big", ResourceVector(2.0e6, 4.0e6, 2000, 9000, 1000));
    Cluster c = makePaperTestbed(2);
    InterFpgaResult r = floorplanInterFpga(g, c);
    EXPECT_FALSE(r.feasible);
}

TEST(InterFpga, HeuristicModeAlsoFeasible)
{
    TaskGraph g = makeRandomGraph(30, 42);
    Cluster c = makePaperTestbed(4);
    InterFpgaOptions opt;
    opt.useIlp = false;
    InterFpgaResult r = floorplanInterFpga(g, c, opt);
    ASSERT_TRUE(r.feasible);
    EXPECT_TRUE(respectsThreshold(g, c, r.partition, opt.reserved,
                                  opt.threshold));
}

TEST(InterFpga, IlpNoWorseThanHeuristicOnSmallGraph)
{
    TaskGraph g = makeChain(8, 80000.0);
    Cluster c = makePaperTestbed(2);
    InterFpgaOptions ilp_opt;
    InterFpgaOptions greedy_opt;
    greedy_opt.useIlp = false;
    InterFpgaResult with_ilp = floorplanInterFpga(g, c, ilp_opt);
    InterFpgaResult greedy = floorplanInterFpga(g, c, greedy_opt);
    ASSERT_TRUE(with_ilp.feasible);
    ASSERT_TRUE(greedy.feasible);
    EXPECT_LE(with_ilp.cost, greedy.cost + 1e-9);
}

TEST(InterFpga, ProvenOptimumMatchesEnumerationOnRing)
{
    // The compact eq. 2 rows must price every integral assignment at
    // its true ring distance: a proven-optimal level-1 solve equals
    // the best eq. 2 cost over all 4^7 assignments within budget.
    for (int seed = 0; seed < 3; ++seed) {
        TaskGraph g = makeRandomGraph(7, 310 + seed);
        Cluster c = makePaperTestbed(4);
        InterFpgaOptions opt;
        opt.solver.maxNodes = 1000000;
        const InterFpgaResult r = floorplanInterFpga(g, c, opt);
        ASSERT_TRUE(r.feasible) << "seed " << seed;
        ASSERT_TRUE(r.ilpOptimal) << "seed " << seed;

        const ResourceVector budget = interFpgaDeviceBudget(g, c, opt);
        const int n = g.numVertices();
        DevicePartition p;
        p.deviceOf.assign(n, 0);
        double best = std::numeric_limits<double>::infinity();
        for (int code = 0; code < (1 << (2 * n)); ++code) {
            std::vector<ResourceVector> used(4);
            for (int v = 0; v < n; ++v) {
                p.deviceOf[v] = (code >> (2 * v)) & 3;
                used[p.deviceOf[v]] += g.vertex(v).area;
            }
            if (std::all_of(used.begin(), used.end(),
                            [&](const ResourceVector &u) {
                                return u.fitsWithin(budget);
                            }))
                best = std::min(best, interFpgaCost(g, c, p));
        }
        EXPECT_DOUBLE_EQ(r.cost, best) << "seed " << seed;
    }
}

TEST(InterFpga, Deterministic)
{
    TaskGraph g = makeRandomGraph(20, 7);
    Cluster c = makePaperTestbed(2);
    InterFpgaResult a = floorplanInterFpga(g, c);
    InterFpgaResult b = floorplanInterFpga(g, c);
    ASSERT_TRUE(a.feasible && b.feasible);
    EXPECT_EQ(a.partition.deviceOf, b.partition.deviceOf);
    EXPECT_DOUBLE_EQ(a.cost, b.cost);
}

TEST(InterFpga, CostMatchesEvaluator)
{
    TaskGraph g = makeRandomGraph(16, 3);
    Cluster c = makePaperTestbed(2);
    InterFpgaResult r = floorplanInterFpga(g, c);
    ASSERT_TRUE(r.feasible);
    EXPECT_DOUBLE_EQ(r.cost, interFpgaCost(g, c, r.partition));
    EXPECT_DOUBLE_EQ(r.cutTrafficBytes,
                     interFpgaTrafficBytes(g, r.partition));
}

TEST(InterFpga, SolverStatsRecorded)
{
    TaskGraph g = makeRandomGraph(20, 7);
    Cluster c = makePaperTestbed(2);
    InterFpgaResult r = floorplanInterFpga(g, c);
    ASSERT_TRUE(r.feasible);
    // The coarse ILP ran: effort must be visible in the result.
    EXPECT_GE(r.solverStats.lpSolves, 1);
    EXPECT_GE(r.solverStats.nodesExplored, 1);
    EXPECT_EQ(r.solverStats.threadsUsed, 1); // one serial search
}

TEST(InterFpga, ReportsElapsedAndCoarseSize)
{
    TaskGraph g = makeRandomGraph(60, 5);
    Cluster c = makePaperTestbed(4);
    InterFpgaOptions opt;
    opt.coarseLimit = 20;
    InterFpgaResult r = floorplanInterFpga(g, c, opt);
    ASSERT_TRUE(r.feasible);
    EXPECT_GT(r.elapsedSeconds, 0.0);
    EXPECT_LE(r.coarseVertices, 60);
    EXPECT_GE(r.coarseVertices, 1);
}

// ---- Intra-FPGA ---------------------------------------------------------

TEST(IntraFpga, AllSlotsInsideGrid)
{
    TaskGraph g = makeRandomGraph(20, 17);
    Cluster c = makePaperTestbed(1);
    DevicePartition part;
    part.deviceOf.assign(g.numVertices(), 0);
    IntraFpgaResult r = floorplanIntraFpga(g, c, part);
    const DeviceModel &dev = c.device();
    for (const SlotCoord &sc : r.placement.slotOf) {
        EXPECT_GE(sc.col, 0);
        EXPECT_LT(sc.col, dev.cols());
        EXPECT_GE(sc.row, 0);
        EXPECT_LT(sc.row, dev.rows());
    }
    EXPECT_GE(r.cost, 0.0);
    EXPECT_DOUBLE_EQ(r.cost, intraFpgaCost(g, part, r.placement));
}

TEST(IntraFpga, MemoryTasksAttractedToHbmRow)
{
    // One memory-heavy task plus an unconnected compute task: the
    // memory task must land in the memory row.
    TaskGraph g("hbm");
    Vertex mem_task;
    mem_task.name = "mem";
    mem_task.area = ResourceVector(1000, 1000, 10, 0, 0);
    mem_task.work.memChannels = 16;
    g.addVertex(mem_task);
    g.addVertex("compute", ResourceVector(1000, 1000, 0, 10, 0));
    Cluster c = makePaperTestbed(1);
    DevicePartition part;
    part.deviceOf = {0, 0};
    IntraFpgaResult r = floorplanIntraFpga(g, c, part);
    EXPECT_EQ(r.placement.slotOf[0].row, c.device().memoryRow());
}

TEST(IntraFpga, ConnectedTasksPlacedTogether)
{
    // Two tiny connected tasks with no other pressure share a slot.
    TaskGraph g("pair");
    g.addVertex("a", ResourceVector(100, 100, 0, 0, 0));
    g.addVertex("b", ResourceVector(100, 100, 0, 0, 0));
    g.addEdge(0, 1, 512);
    Cluster c = makePaperTestbed(1);
    DevicePartition part;
    part.deviceOf = {0, 0};
    IntraFpgaResult r = floorplanIntraFpga(g, c, part);
    EXPECT_EQ(r.placement.slotOf[0].manhattan(r.placement.slotOf[1]), 0);
}

TEST(IntraFpga, BisectionMatchesEnumeration)
{
    // The one-row |y_u - y_v| split must price every side assignment
    // at its true cut: on a two-slot device (one bisection, memory row
    // below) a proven-optimal cut equals the best eq. 4 + HBM-pull
    // objective over all 2^n assignments within the side budgets.
    MemorySystem hbm;
    hbm.channels = 8;
    const ResourceVector total(200000, 400000, 200, 400, 100);
    const DeviceModel dev("two", /*cols=*/1, /*rows=*/2, /*rowsPerDie=*/1,
                          total, hbm, /*memoryRow=*/0, 300_MHz);
    IntraFpgaOptions opt;
    opt.solver.maxNodes = 1000000;
    int feasible = 0, bound = 0;
    for (int seed = 0; seed < 100; ++seed) {
        Rng rng(900 + seed);
        const int n = static_cast<int>(rng.uniformInt(2, 12));
        // Small areas mostly leave the balance budgets slack; areas
        // summing past one slot make them bind.
        const double scale = seed % 2 == 0 ? 4000.0 : 120000.0 / n;
        TaskGraph g("bisect");
        for (int i = 0; i < n; ++i) {
            Vertex v;
            v.name = strprintf("t%d", i);
            v.area = ResourceVector(rng.uniformReal(100, scale),
                                    rng.uniformReal(100, 2 * scale),
                                    rng.uniformReal(0, scale / 1000),
                                    0, 0);
            v.work.memChannels =
                rng.uniformInt(0, 3) == 0
                    ? static_cast<int>(rng.uniformInt(1, 4))
                    : 0;
            g.addVertex(v);
        }
        for (int extra = 0; extra < 2 * n; ++extra) {
            const int a = static_cast<int>(rng.uniformInt(0, n - 1));
            const int b = static_cast<int>(rng.uniformInt(0, n - 1));
            if (a != b)
                g.addEdge(a, b, 32 << rng.uniformInt(0, 4), 1.0e5);
        }

        // Side budgets: the slot capacity under the threshold, capped
        // at the side's half of the total plus 10% slack and one unit.
        ResourceVector cap = dev.slot(0, 0).capacity;
        cap *= opt.threshold;
        ResourceVector sum;
        for (VertexId v = 0; v < n; ++v)
            sum += g.vertex(v).area;
        ResourceVector budget;
        for (int r = 0; r < kNumResourceKinds; ++r) {
            const auto kind = static_cast<ResourceKind>(r);
            budget[kind] = std::min(cap[kind], sum[kind] * cap[kind] /
                                                       (cap[kind] +
                                                        cap[kind]) +
                                                   0.10 * cap[kind] + 1.0);
        }
        // y_v = 1 puts v in row 1, one step away from the memory row.
        auto objective = [&](const std::vector<int> &y) {
            double cost = 0.0;
            for (const Edge &e : g.edges())
                cost += e.widthBits * std::abs(y[e.src] - y[e.dst]);
            for (VertexId v = 0; v < n; ++v)
                cost += opt.memAttractionWidth *
                        g.vertex(v).work.memChannels * y[v];
            return cost;
        };
        double best = std::numeric_limits<double>::infinity();
        double unconstrained = best;
        std::vector<int> y(n);
        for (int code = 0; code < (1 << n); ++code) {
            ResourceVector used[2];
            for (int v = 0; v < n; ++v) {
                y[v] = (code >> v) & 1;
                used[y[v]] += g.vertex(v).area;
            }
            const double c = objective(y);
            unconstrained = std::min(unconstrained, c);
            if (used[0].fitsWithin(budget) && used[1].fitsWithin(budget))
                best = std::min(best, c);
        }
        if (best == std::numeric_limits<double>::infinity())
            continue;
        ++feasible;
        if (best > unconstrained)
            ++bound;

        std::vector<VertexId> verts(n);
        for (int v = 0; v < n; ++v)
            verts[v] = v;
        const IntraDeviceResult r = floorplanIntraDevice(g, dev, verts, opt);
        ASSERT_TRUE(r.allIlpOptimal) << "seed " << seed;
        for (int v = 0; v < n; ++v)
            y[v] = r.slotOf[v].row;
        EXPECT_DOUBLE_EQ(objective(y), best) << "seed " << seed;
    }
    EXPECT_GE(feasible, 90);
    EXPECT_GE(bound, 10);
    EXPECT_LT(bound, feasible);
}

TEST(IntraFpga, BalanceSpreadsLargeDesigns)
{
    // 12 fat unconnected tasks cannot all sit in one slot.
    TaskGraph g("fat");
    for (int i = 0; i < 12; ++i)
        g.addVertex(strprintf("t%d", i),
                    ResourceVector(80000, 120000, 50, 200, 0));
    Cluster c = makePaperTestbed(1);
    DevicePartition part;
    part.deviceOf.assign(12, 0);
    IntraFpgaResult r = floorplanIntraFpga(g, c, part);
    std::set<std::pair<int, int>> used;
    for (const SlotCoord &sc : r.placement.slotOf)
        used.insert({sc.col, sc.row});
    EXPECT_GE(used.size(), 4u);
}

TEST(IntraFpga, HandlesMultiDevicePartitions)
{
    TaskGraph g = makeRandomGraph(24, 55);
    Cluster c = makePaperTestbed(2);
    InterFpgaResult l1 = floorplanInterFpga(g, c);
    ASSERT_TRUE(l1.feasible);
    IntraFpgaResult l2 = floorplanIntraFpga(g, c, l1.partition);
    EXPECT_EQ(l2.placement.slotOf.size(),
              static_cast<size_t>(g.numVertices()));
    EXPECT_GT(l2.elapsedSeconds, 0.0);
}

TEST(IntraFpga, ParallelMatchesSerial)
{
    // Devices are placed independently, so the concurrent per-device
    // loop must return the exact same slots and cost as the serial
    // one (the inner bisection solver stays serial either way).
    TaskGraph g = makeRandomGraph(28, 91);
    Cluster c = makePaperTestbed(4);
    InterFpgaResult l1 = floorplanInterFpga(g, c);
    ASSERT_TRUE(l1.feasible);

    IntraFpgaOptions serial_opt;
    serial_opt.numThreads = 1;
    IntraFpgaResult serial = floorplanIntraFpga(g, c, l1.partition,
                                                serial_opt);

    IntraFpgaOptions par_opt;
    par_opt.numThreads = 4;
    IntraFpgaResult parallel = floorplanIntraFpga(g, c, l1.partition,
                                                  par_opt);

    ASSERT_EQ(serial.placement.slotOf.size(),
              parallel.placement.slotOf.size());
    for (size_t v = 0; v < serial.placement.slotOf.size(); ++v) {
        EXPECT_EQ(serial.placement.slotOf[v].col,
                  parallel.placement.slotOf[v].col) << "vertex " << v;
        EXPECT_EQ(serial.placement.slotOf[v].row,
                  parallel.placement.slotOf[v].row) << "vertex " << v;
    }
    EXPECT_DOUBLE_EQ(serial.cost, parallel.cost);
    EXPECT_EQ(serial.allIlpOptimal, parallel.allIlpOptimal);
    EXPECT_EQ(serial.solverStats.nodesExplored,
              parallel.solverStats.nodesExplored);
    EXPECT_EQ(serial.solverStats.lpSolves, parallel.solverStats.lpSolves);
    EXPECT_GE(parallel.solverStats.threadsUsed, 1);
}

TEST(HbmBinding, SweepParallelMatchesSerial)
{
    TaskGraph g("sweep");
    for (int i = 0; i < 12; ++i) {
        Vertex t;
        t.name = strprintf("t%d", i);
        t.work.memChannels = 1 + (i % 4);
        g.addVertex(t);
    }
    Cluster c = makePaperTestbed(2);
    DevicePartition part;
    part.deviceOf.assign(12, 0);
    for (int i = 6; i < 12; ++i)
        part.deviceOf[i] = 1;
    SlotPlacement place;
    place.slotOf.assign(12, SlotCoord{0, 0});
    for (int i = 0; i < 12; ++i)
        place.slotOf[i].col = i % 2;

    HbmBindingOptions serial_opt;
    serial_opt.numThreads = 1;
    HbmBinding a = bindHbmChannels(g, c, part, place, serial_opt);

    HbmBindingOptions par_opt;
    par_opt.numThreads = 4;
    HbmBinding b = bindHbmChannels(g, c, part, place, par_opt);

    EXPECT_EQ(a.channelsOf, b.channelsOf);
    EXPECT_EQ(a.usersPerChannel, b.usersPerChannel);
    EXPECT_DOUBLE_EQ(a.displacementCost, b.displacementCost);
}

TEST(HbmBinding, SweepNeverWorseThanClassicHeuristic)
{
    TaskGraph g("vs");
    for (int i = 0; i < 9; ++i) {
        Vertex t;
        t.name = strprintf("t%d", i);
        t.work.memChannels = 2 + (i % 3);
        g.addVertex(t);
    }
    Cluster c = makePaperTestbed(1);
    DevicePartition part;
    part.deviceOf.assign(9, 0);
    SlotPlacement place;
    place.slotOf.assign(9, SlotCoord{0, 0});
    for (int i = 0; i < 9; ++i)
        place.slotOf[i].col = (i * 5) % 2;

    HbmBindingOptions no_sweep;
    no_sweep.sweep = false;
    HbmBinding classic = bindHbmChannels(g, c, part, place, no_sweep);
    HbmBinding swept = bindHbmChannels(g, c, part, place);

    EXPECT_LE(swept.maxContention(0), classic.maxContention(0));
    if (swept.maxContention(0) == classic.maxContention(0))
        EXPECT_LE(swept.displacementCost, classic.displacementCost + 1e-9);
}

// ---- HBM binding --------------------------------------------------------

TEST(HbmBinding, GrantsRequestedChannels)
{
    TaskGraph g("bind");
    Vertex t;
    t.name = "reader";
    t.work.memChannels = 4;
    g.addVertex(t);
    Cluster c = makePaperTestbed(1);
    DevicePartition part;
    part.deviceOf = {0};
    SlotPlacement place;
    place.slotOf = {SlotCoord{0, 0}};
    HbmBinding b = bindHbmChannels(g, c, part, place);
    EXPECT_EQ(b.channelsOf[0].size(), 4u);
    EXPECT_EQ(b.maxContention(0), 1);
}

TEST(HbmBinding, NoContentionUnderSubscription)
{
    // 8 tasks x 4 channels = 32 requests on 32 channels.
    TaskGraph g("full");
    for (int i = 0; i < 8; ++i) {
        Vertex t;
        t.name = strprintf("t%d", i);
        t.work.memChannels = 4;
        g.addVertex(t);
    }
    Cluster c = makePaperTestbed(1);
    DevicePartition part;
    part.deviceOf.assign(8, 0);
    SlotPlacement place;
    place.slotOf.assign(8, SlotCoord{0, 0});
    HbmBinding b = bindHbmChannels(g, c, part, place);
    EXPECT_EQ(b.maxContention(0), 1);
    int granted = 0;
    for (int users : b.usersPerChannel[0])
        granted += users;
    EXPECT_EQ(granted, 32);
}

TEST(HbmBinding, OversubscriptionSharesEvenly)
{
    // 40 requests on 32 channels: max contention exactly 2.
    TaskGraph g("over");
    for (int i = 0; i < 10; ++i) {
        Vertex t;
        t.name = strprintf("t%d", i);
        t.work.memChannels = 4;
        g.addVertex(t);
    }
    Cluster c = makePaperTestbed(1);
    DevicePartition part;
    part.deviceOf.assign(10, 0);
    SlotPlacement place;
    place.slotOf.assign(10, SlotCoord{0, 0});
    HbmBinding b = bindHbmChannels(g, c, part, place);
    EXPECT_EQ(b.maxContention(0), 2);
}

TEST(HbmBinding, PrefersNearbyColumns)
{
    // A single task in column 1 gets a column-1 channel.
    TaskGraph g("near");
    Vertex t;
    t.name = "x";
    t.work.memChannels = 1;
    g.addVertex(t);
    Cluster c = makePaperTestbed(1);
    DevicePartition part;
    part.deviceOf = {0};
    SlotPlacement place;
    place.slotOf = {SlotCoord{1, 0}};
    HbmBinding b = bindHbmChannels(g, c, part, place);
    ASSERT_EQ(b.channelsOf[0].size(), 1u);
    EXPECT_EQ(channelColumn(c.device(), b.channelsOf[0][0]), 1);
    EXPECT_DOUBLE_EQ(b.displacementCost, 0.0);
}

TEST(HbmBinding, ChannelColumnSplit)
{
    const DeviceModel dev = makeU55C();
    EXPECT_EQ(channelColumn(dev, 0), 0);
    EXPECT_EQ(channelColumn(dev, 15), 0);
    EXPECT_EQ(channelColumn(dev, 16), 1);
    EXPECT_EQ(channelColumn(dev, 31), 1);
}

TEST(PartitionHelpers, PerDeviceAreaSums)
{
    TaskGraph g = makeChain(4, 1000.0);
    Cluster c = makePaperTestbed(2);
    DevicePartition p;
    p.deviceOf = {0, 0, 1, 1};
    auto areas = perDeviceArea(g, c, p);
    EXPECT_DOUBLE_EQ(areas[0][ResourceKind::Lut], 2000.0);
    EXPECT_DOUBLE_EQ(areas[1][ResourceKind::Lut], 2000.0);
    EXPECT_EQ(p.devicesUsed(), 2);
}

} // namespace
} // namespace tapacs
