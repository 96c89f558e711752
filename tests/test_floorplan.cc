/**
 * @file
 * Tests for the two-level floorplanners and HBM channel binding —
 * the paper's eq. 1-4 machinery.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <set>

#include "apps/cnn.hh"
#include "apps/knn.hh"
#include "apps/pagerank.hh"
#include "apps/stencil.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "compiler/compiler.hh"
#include "floorplan/hbm_binding.hh"
#include "floorplan/inter_fpga.hh"
#include "floorplan/intra_fpga.hh"
#include "hls/synthesis.hh"
#include "pin_digest.hh"

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

/** Worst channel sharing of one device's binding. */
int
maxLoad(const HbmDeviceBinding &b)
{
    return *std::max_element(b.usersPerChannel.begin(),
                             b.usersPerChannel.end());
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

/** A paper design at @p fpgas FPGAs (perfbench paper-f4's configs)
 *  with its HLS areas stamped, as compileProgram hands it to L1. */
TaskGraph
paperDesign(const std::string &name, int fpgas)
{
    apps::AppDesign app;
    if (name == "stencil")
        app = apps::buildStencil(apps::StencilConfig::scaled(64, fpgas));
    else if (name == "pagerank")
        app = apps::buildPageRank(apps::PageRankConfig::scaled(
            apps::pagerankDataset("cit-Patents"), fpgas));
    else if (name == "knn")
        app = apps::buildKnn(apps::KnnConfig::scaled(4'000'000, 2, fpgas));
    else
        app = apps::buildCnn(apps::CnnConfig::scaled(fpgas));
    hls::applySynthesis(app.graph, hls::synthesizeAll(app.tasks));
    return app.graph;
}

TEST(InterFpga, PaperDesignsArePinned)
{
    // The exact engine is a pure function of (graph, cluster,
    // options). These digests pin its result on the four paper
    // designs at F2-F4 on the paper's ring, with the coarse ILP and
    // without, so a rewrite must reproduce every partition, cost and
    // unit of search effort bit for bit.
    struct Case
    {
        const char *design;
        int fpgas;
        const char *ilp;
        const char *greedy;
    };
    const Case cases[] = {
        {"stencil", 2, "4ea1d87aab875869", "fa36a3c128569040"},
        {"stencil", 3, "bf720ed8a73fccce", "a44c8682a8132acb"},
        {"stencil", 4, "e90cc890ed525183", "f2e2cb535420e888"},
        {"pagerank", 2, "bf2f470aae01c794", "a19f4ef9061be027"},
        {"pagerank", 3, "bfe0624f50c82726", "6c387107a39a6137"},
        {"pagerank", 4, "6a1fa5f45dfb673f", "31664b62b50321e9"},
        {"knn", 2, "d23ed55e4efa8369", "df194ad7a8329ab1"},
        {"knn", 3, "841df63fc0a6a541", "89a8da4fc74eec41"},
        {"knn", 4, "a42d06f75b5685d5", "fab53697fa888a4e"},
        {"cnn", 2, "dd99cc661341e737", "75fbc42ad18a08c3"},
        {"cnn", 3, "88314f0000da3907", "d565ad8c4f0015af"},
        {"cnn", 4, "a3f530c9890f75de", "785f139fa82b5b4e"},
    };
    for (const Case &c : cases) {
        const TaskGraph g = paperDesign(c.design, c.fpgas);
        const Cluster cluster = makePaperTestbed(c.fpgas);
        for (const bool useIlp : {true, false}) {
            InterFpgaOptions opt;
            opt.reserved = networkIpArea(cluster.device(), kNetworkPorts);
            opt.channelsPerDevice = cluster.device().memory().channels;
            opt.useIlp = useIlp;
            const InterFpgaResult r = floorplanInterFpga(g, cluster, opt);
            PinDigest d;
            d.add(r.feasible);
            d.add(r.partition.deviceOf);
            d.add(r.cost);
            d.add(r.cutTrafficBytes);
            d.add(r.coarseVertices);
            d.add(r.solverStats.nodesExplored);
            d.add(r.solverStats.lpIterations);
            EXPECT_EQ(d.hex(), useIlp ? c.ilp : c.greedy)
                << c.design << " F" << c.fpgas
                << (useIlp ? " ilp" : " greedy");
        }
    }
}

// ---- Intra-FPGA ---------------------------------------------------------

TEST(IntraFpga, AllSlotsInsideGrid)
{
    TaskGraph g = makeRandomGraph(20, 17);
    Cluster c = makePaperTestbed(1);
    DevicePartition part;
    part.deviceOf.assign(g.numVertices(), 0);
    Level2Result r = floorplanLevel2(g, c, part, {}, true);
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
    Level2Result r = floorplanLevel2(g, c, part, {}, true);
    EXPECT_EQ(r.placement.slotOf[0].row, c.device().memoryRow());
    // Binding runs from that placement: 16 channels, no sharing.
    EXPECT_EQ(r.binding.channelsOf[0].size(), 16u);
    EXPECT_EQ(r.binding.maxContention(0), 1);
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
    Level2Result r = floorplanLevel2(g, c, part, {}, true);
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
                cost += kMemAttractionWidth *
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
    Level2Result r = floorplanLevel2(g, c, part, {}, true);
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
    Level2Result l2 = floorplanLevel2(g, c, l1.partition, {}, true);
    EXPECT_EQ(l2.placement.slotOf.size(),
              static_cast<size_t>(g.numVertices()));
    EXPECT_EQ(l2.devices.size(), 2u);
    EXPECT_DOUBLE_EQ(l2.cost, intraFpgaCost(g, l1.partition, l2.placement));
}

/** Random graph whose every third task reads 1-4 HBM channels. */
TaskGraph
makeMemoryGraph(int n, std::uint64_t seed)
{
    TaskGraph g = makeRandomGraph(n, seed);
    for (VertexId v = 0; v < n; v += 3)
        g.vertex(v).work.memChannels = 1 + v % 4;
    return g;
}

void
expectLevel2Identical(const Level2Result &a, const Level2Result &b)
{
    EXPECT_TRUE(a.placement.slotOf == b.placement.slotOf);
    EXPECT_TRUE(a.binding == b.binding);
    EXPECT_DOUBLE_EQ(a.cost, b.cost);
    EXPECT_EQ(a.allIlpOptimal, b.allIlpOptimal);
    EXPECT_EQ(a.solverStats.nodesExplored, b.solverStats.nodesExplored);
    EXPECT_EQ(a.solverStats.lpSolves, b.solverStats.lpSolves);
    EXPECT_EQ(a.solverStats.lpIterations, b.solverStats.lpIterations);
    EXPECT_EQ(a.solverStats.coldFallbacks, b.solverStats.coldFallbacks);
    EXPECT_EQ(a.solverStats.incumbentUpdates,
              b.solverStats.incumbentUpdates);
    EXPECT_EQ(a.solverStats.provenOptimal, b.solverStats.provenOptimal);
    ASSERT_EQ(a.devices.size(), b.devices.size());
    for (size_t d = 0; d < a.devices.size(); ++d) {
        EXPECT_TRUE(a.devices[d].slots == b.devices[d].slots) << d;
        EXPECT_EQ(a.devices[d].grants, b.devices[d].grants) << d;
        EXPECT_EQ(a.devices[d].usersPerChannel,
                  b.devices[d].usersPerChannel) << d;
    }
}

TEST(Level2, ParallelMatchesSerial)
{
    // Devices are placed and bound independently and folded in device
    // order, so the concurrent per-device loop must return the exact
    // same slots, channels, cost and solver counters as the serial one
    // (each bisection ILP and each binding sweep stays serial either
    // way), run after run.
    TaskGraph mem = makeMemoryGraph(28, 91);
    Cluster c4 = makePaperTestbed(4);
    InterFpgaResult l1 = floorplanInterFpga(mem, c4);
    ASSERT_TRUE(l1.feasible);

    apps::AppDesign stencil =
        apps::buildStencil(apps::StencilConfig::scaled(64, 2));
    Cluster c2 = makePaperTestbed(2);
    DevicePartition alternate;
    for (VertexId v = 0; v < stencil.graph.numVertices(); ++v)
        alternate.deviceOf.push_back(v % 2);

    auto check = [](const TaskGraph &g, const Cluster &c,
                    const DevicePartition &part) {
        const Level2Result serial = floorplanLevel2(g, c, part, {}, true, 1);
        EXPECT_EQ(serial.solverStats.threadsUsed, 1);
        EXPECT_GT(serial.solverStats.lpSolves, 0);
        for (int rep = 0; rep < 2; ++rep) {
            const Level2Result parallel =
                floorplanLevel2(g, c, part, {}, true, 4);
            expectLevel2Identical(serial, parallel);
        }
        return serial;
    };
    const Level2Result r = check(mem, c4, l1.partition);
    int bound = 0;
    for (const auto &channels : r.binding.channelsOf)
        bound += static_cast<int>(channels.size());
    EXPECT_GT(bound, 0);
    check(stencil.graph, c2, alternate);
}

TEST(Level2, KnownDevicesMatchColdRun)
{
    // Records handed in as `known` (the compile cache's hits) are used
    // as they are; the rest are solved. Half the devices known must
    // fold to exactly the cold result, at any thread count. A record
    // whose sizes do not fit its device is solved instead.
    TaskGraph g = makeMemoryGraph(28, 91);
    Cluster c = makePaperTestbed(4);
    InterFpgaResult l1 = floorplanInterFpga(g, c);
    ASSERT_TRUE(l1.feasible);
    const Level2Result cold = floorplanLevel2(g, c, l1.partition, {}, true);
    EXPECT_EQ(cold.solved, std::vector<char>(4, 1));

    for (int threads : {1, 4}) {
        std::vector<std::optional<IntraDeviceEntry>> known(4);
        known[0] = cold.devices[0];
        known[2] = cold.devices[2];
        known[3] = cold.devices[3];
        known[3]->slots.push_back(SlotCoord{0, 0}); // wrong size
        const Level2Result warm = floorplanLevel2(
            g, c, l1.partition, {}, true, threads, std::move(known));
        EXPECT_EQ(warm.solved, (std::vector<char>{0, 1, 0, 1}));
        expectLevel2Identical(cold, warm);
    }
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
    const DeviceModel dev = makeU55C();
    SlotPlacement place;
    place.slotOf.assign(9, SlotCoord{0, 0});
    std::vector<VertexId> users(9);
    for (int i = 0; i < 9; ++i) {
        place.slotOf[i].col = (i * 5) % 2;
        users[i] = i;
    }

    HbmDeviceBinding classic = bindHbmDevice(g, dev, place, users, false);
    HbmDeviceBinding swept = bindHbmDevice(g, dev, place, users, true);

    const int classic_max = maxLoad(classic);
    const int swept_max = maxLoad(swept);
    EXPECT_LE(swept_max, classic_max);
    if (swept_max == classic_max) {
        EXPECT_LE(swept.displacement, classic.displacement + 1e-9);
    }
}

// ---- HBM binding --------------------------------------------------------

TEST(HbmBinding, GrantsRequestedChannels)
{
    TaskGraph g("bind");
    Vertex t;
    t.name = "reader";
    t.work.memChannels = 4;
    g.addVertex(t);
    SlotPlacement place;
    place.slotOf = {SlotCoord{0, 0}};
    HbmDeviceBinding b = bindHbmDevice(g, makeU55C(), place, {0}, true);
    ASSERT_EQ(b.grants.size(), 1u);
    EXPECT_EQ(b.grants[0].size(), 4u);
    EXPECT_EQ(maxLoad(b), 1);
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
    SlotPlacement place;
    place.slotOf.assign(8, SlotCoord{0, 0});
    HbmDeviceBinding b =
        bindHbmDevice(g, makeU55C(), place, {0, 1, 2, 3, 4, 5, 6, 7}, true);
    EXPECT_EQ(maxLoad(b), 1);
    int granted = 0;
    for (int users : b.usersPerChannel)
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
    SlotPlacement place;
    place.slotOf.assign(10, SlotCoord{0, 0});
    std::vector<VertexId> users(10);
    for (int i = 0; i < 10; ++i)
        users[i] = i;
    HbmDeviceBinding b = bindHbmDevice(g, makeU55C(), place, users, true);
    EXPECT_EQ(maxLoad(b), 2);
}

TEST(HbmBinding, PrefersNearbyColumns)
{
    // A single task in column 1 gets a column-1 channel.
    TaskGraph g("near");
    Vertex t;
    t.name = "x";
    t.work.memChannels = 1;
    g.addVertex(t);
    const DeviceModel dev = makeU55C();
    SlotPlacement place;
    place.slotOf = {SlotCoord{1, 0}};
    HbmDeviceBinding b = bindHbmDevice(g, dev, place, {0}, true);
    ASSERT_EQ(b.grants[0].size(), 1u);
    EXPECT_EQ(channelColumn(dev, b.grants[0][0]), 1);
    EXPECT_DOUBLE_EQ(b.displacement, 0.0);
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
