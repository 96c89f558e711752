/**
 * @file
 * Tests for the multilevel partition subsystem (src/partition/):
 * coarsening hierarchy invariants, V-cycle property sweep (balance,
 * recomputed cost, thread-count bit-identity), logic replication
 * (planning caps + expansion semantics + the pagerank cut-width
 * demo), the inter-cache round trip of multilevel results, and the
 * solver=/replicate=/coarse_limit= manifest keys.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "apps/pagerank.hh"
#include "apps/synth.hh"
#include "cache/compile_cache.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "floorplan/inter_fpga.hh"
#include "graph/algorithms.hh"
#include "graph/serialize.hh"
#include "hls/synthesis.hh"
#include "obs/metrics.hh"
#include "partition/hypergraph.hh"
#include "partition/multilevel.hh"
#include "partition/replicate.hh"
#include "pin_digest.hh"
#include "serve/manifest.hh"

namespace tapacs
{
namespace
{

using partition::applyReplication;
using partition::buildHierarchy;
using partition::buildHypergraph;
using partition::CoarsenOptions;
using partition::floorplanMultilevel;
using partition::Hypergraph;
using partition::Level;
using partition::mapToCoarsest;
using partition::planReplication;
using partition::ReplicatedDesign;
using partition::solveL1;

/**
 * Random connected DAG sized so a handful of U55Cs always fit it:
 * locality-windowed backbone plus extra forward edges, ~10 % of
 * vertices demanding 1-2 HBM channels.
 */
TaskGraph
makeRandomDesign(int n, std::uint64_t seed)
{
    Rng rng(seed);
    TaskGraph g(strprintf("rand-n%d-s%llu", n,
                          static_cast<unsigned long long>(seed)));
    for (int v = 0; v < n; ++v) {
        const double lut = rng.uniformReal(200.0, 8000.0);
        WorkProfile work;
        if (rng.uniformReal() < 0.10)
            work.memChannels = static_cast<int>(rng.uniformInt(1, 2));
        g.addVertex(strprintf("t%d", v),
                    ResourceVector(lut, 1.8 * lut,
                                   rng.uniformReal(0.0, 8.0),
                                   rng.uniformReal(0.0, 12.0), 0),
                    work);
    }
    for (int v = 1; v < n; ++v) {
        const int lo = std::max(0, v - 16);
        g.addEdge(static_cast<int>(rng.uniformInt(lo, v - 1)), v,
                  32 << rng.uniformInt(0, 4), 1.0e5);
    }
    for (int extra = 0; extra < n; ++extra) {
        const int a = static_cast<int>(rng.uniformInt(0, n - 2));
        const int b =
            a + static_cast<int>(rng.uniformInt(
                    1, std::min<std::uint64_t>(12, n - 1 - a)));
        g.addEdge(a, b, 32 << rng.uniformInt(0, 3), 1.0e5);
    }
    return g;
}

/** Options that force the V-cycle even on test-sized graphs. */
InterFpgaOptions
vcycleOptions(std::uint64_t seed)
{
    InterFpgaOptions opt;
    opt.backend = L1Backend::Multilevel;
    opt.coarseLimit = 8;
    opt.mlIlpVertexLimit = 8; // delegation limit below test sizes
    opt.channelsPerDevice = 32;
    opt.seed = seed;
    opt.numThreads = 1;
    return opt;
}

/** eq. 2 evaluated directly on a hypergraph level. */
double
hypergraphCost(const Hypergraph &hg, const Cluster &cluster,
               const std::vector<DeviceId> &part)
{
    double cost = 0.0;
    for (int net = 0; net < hg.numNets(); ++net) {
        const VertexId a = hg.pins[hg.netOffset[net]];
        const VertexId b = hg.pins[hg.netOffset[net] + 1];
        if (part[a] != part[b])
            cost += hg.netWeight[net] *
                    cluster.costDistance(part[a], part[b]);
    }
    return cost;
}

/** Per-device memory-channel demand of a partition. */
std::vector<int>
channelDemand(const TaskGraph &g, int numDevices,
              const std::vector<DeviceId> &deviceOf)
{
    std::vector<int> ch(numDevices, 0);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        ch[deviceOf[v]] += g.vertex(v).work.memChannels;
    return ch;
}

// ---- Coarsening hierarchy ----------------------------------------------

TEST(Hierarchy, PreservesAreaChannelsAndCutAtEveryLevel)
{
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        TaskGraph g = makeRandomDesign(120, 7000 + seed);
        Cluster c = makePaperTestbed(4);
        CoarsenOptions copt;
        copt.targetVertices = 10;
        copt.mergeCap = ResourceVector(1.0e6, 2.0e6, 1.0e4, 1.0e4, 0);
        copt.seed = seed;
        const std::vector<Level> levels = buildHierarchy(g, copt);
        ASSERT_GE(levels.size(), 2u) << "seed " << seed;

        double lut0 = 0.0;
        int ch0 = 0;
        for (int v = 0; v < levels[0].hg.numVertices(); ++v) {
            lut0 += levels[0].hg.area[v][ResourceKind::Lut];
            ch0 += levels[0].hg.channels[v];
        }
        for (std::size_t k = 1; k < levels.size(); ++k) {
            EXPECT_LT(levels[k].hg.numVertices(),
                      levels[k - 1].hg.numVertices());
            double lut = 0.0;
            int ch = 0;
            for (int v = 0; v < levels[k].hg.numVertices(); ++v) {
                lut += levels[k].hg.area[v][ResourceKind::Lut];
                ch += levels[k].hg.channels[v];
            }
            EXPECT_NEAR(lut, lut0, 1e-6 * lut0);
            EXPECT_EQ(ch, ch0);
        }

        // A partition chosen at the coarsest level costs the same at
        // every level once projected down — coarsening merges only
        // same-cluster pins, so cut nets survive with their weight.
        const std::vector<int> toCoarsest = mapToCoarsest(levels);
        const int cn = levels.back().hg.numVertices();
        Rng rng(seed);
        std::vector<DeviceId> coarsePart(cn);
        for (int v = 0; v < cn; ++v)
            coarsePart[v] = static_cast<DeviceId>(rng.uniformInt(0, 3));
        const double coarseCost =
            hypergraphCost(levels.back().hg, c, coarsePart);
        std::vector<DeviceId> finePart(g.numVertices());
        for (VertexId v = 0; v < g.numVertices(); ++v)
            finePart[v] = coarsePart[toCoarsest[v]];
        EXPECT_NEAR(hypergraphCost(levels[0].hg, c, finePart),
                    coarseCost, 1e-6 * (coarseCost + 1.0));
        // And the finest hypergraph evaluates eq. 2 exactly like the
        // TaskGraph it was lowered from.
        DevicePartition dp;
        dp.deviceOf = finePart;
        EXPECT_NEAR(interFpgaCost(g, c, dp),
                    hypergraphCost(levels[0].hg, c, finePart),
                    1e-6 * (coarseCost + 1.0));
    }
}

// ---- V-cycle property sweep --------------------------------------------

/**
 * The satellite's >= 200-case sweep: random graphs x topologies x
 * device counts. Every feasible result must respect eq. 1 balance
 * and the channel caps, and its reported cost/traffic must equal an
 * independent recomputation. Replication (every other case) must
 * never violate the area budget or channel caps and never raise the
 * eq. 2 cost.
 */
TEST(MultilevelProperties, SweepBalanceCostAndReplicationCaps)
{
    const TopologyKind topologies[] = {
        TopologyKind::Chain, TopologyKind::Ring, TopologyKind::Mesh2D,
        TopologyKind::FullyConnected};
    int cases = 0;
    int feasible = 0;
    int replicated = 0;
    for (const TopologyKind topo : topologies) {
        for (int f = 2; f <= 4; ++f) {
            for (std::uint64_t seed = 0; seed < 17; ++seed) {
                ++cases;
                const int n =
                    40 + static_cast<int>((seed * 13) % 100);
                TaskGraph g = makeRandomDesign(n, seed * 131 + f);
                Cluster c(makeU55C(), Topology(topo, f));
                InterFpgaOptions opt = vcycleOptions(seed);
                opt.replicate = (seed % 2) == 0;
                const InterFpgaResult r = solveL1(g, c, opt);
                const std::string tag = strprintf(
                    "topo=%d f=%d seed=%llu", static_cast<int>(topo),
                    f, static_cast<unsigned long long>(seed));
                if (!r.feasible) {
                    EXPECT_TRUE(r.partition.deviceOf.empty()) << tag;
                    continue;
                }
                ++feasible;
                ASSERT_EQ(r.partition.deviceOf.size(),
                          static_cast<std::size_t>(n))
                    << tag;
                EXPECT_GE(r.levels, 1) << tag;
                EXPECT_TRUE(respectsThreshold(g, c, r.partition,
                                              opt.reserved,
                                              opt.threshold))
                    << tag;
                for (const int ch :
                     channelDemand(g, f, r.partition.deviceOf))
                    EXPECT_LE(ch, opt.channelsPerDevice) << tag;
                // Reported numbers == independent recomputation.
                EXPECT_NEAR(r.cost, interFpgaCost(g, c, r.partition),
                            1e-6 * (r.cost + 1.0))
                    << tag;
                EXPECT_NEAR(r.cutTrafficBytes,
                            interFpgaTrafficBytes(g, r.partition),
                            1e-6 * (r.cutTrafficBytes + 1.0))
                    << tag;

                if (r.replication.empty())
                    continue;
                ++replicated;
                const ResourceVector budget =
                    interFpgaDeviceBudget(g, c, opt);
                const ReplicatedDesign x =
                    applyReplication(g, r.partition, r.replication);
                x.graph.validate();
                ASSERT_EQ(x.partition.deviceOf.size(),
                          static_cast<std::size_t>(
                              x.graph.numVertices()))
                    << tag;
                const std::vector<ResourceVector> areas =
                    perDeviceArea(x.graph, c, x.partition);
                for (const ResourceVector &a : areas)
                    EXPECT_TRUE(a.fitsWithin(budget)) << tag;
                for (const int ch : channelDemand(
                         x.graph, f, x.partition.deviceOf))
                    EXPECT_LE(ch, opt.channelsPerDevice) << tag;
                // Replication exists to lower eq. 2; the greedy
                // planner only commits strictly saving replicas.
                EXPECT_LT(interFpgaCost(x.graph, c, x.partition),
                          r.cost)
                    << tag;
            }
        }
    }
    EXPECT_GE(cases, 200);
    // The sweep is vacuous if the instances are mostly infeasible.
    EXPECT_GE(feasible, cases / 2);
    EXPECT_GE(replicated, 1);
}

TEST(MultilevelProperties, BitIdenticalAcrossThreadCounts)
{
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
        TaskGraph g = makeRandomDesign(
            90 + static_cast<int>(seed * 5), 400 + seed);
        Cluster c = makePaperTestbed(4);
        InterFpgaOptions serial = vcycleOptions(seed);
        serial.replicate = true;
        serial.numThreads = 1;
        InterFpgaOptions pooled = serial;
        pooled.numThreads = 4;
        const InterFpgaResult a = solveL1(g, c, serial);
        const InterFpgaResult b = solveL1(g, c, pooled);
        ASSERT_EQ(a.feasible, b.feasible) << "seed " << seed;
        if (!a.feasible)
            continue;
        EXPECT_EQ(a.partition.deviceOf, b.partition.deviceOf)
            << "seed " << seed;
        EXPECT_EQ(a.replication, b.replication) << "seed " << seed;
        EXPECT_DOUBLE_EQ(a.cost, b.cost) << "seed " << seed;
    }
}

TEST(MultilevelProperties, HierarchyAndPartitionArePinned)
{
    // The V-cycle's coarsening and refinement are pure functions of
    // (graph, cluster, options). These digests pin every level of the
    // hierarchy and the replicated solveL1 result on the benchmark's
    // 5k synth graph, so a rewrite of either half must reproduce
    // them bit for bit, at any thread count.
    const apps::AppDesign app =
        apps::buildSynthetic(apps::SynthConfig::scaled(5000, 3));
    const TaskGraph &g = app.graph;
    struct Case
    {
        const char *name;
        Cluster cluster;
        const char *hierarchy;
        const char *result;
    };
    const Case cases[] = {
        {"mesh8", Cluster(makeU55C(), Topology(TopologyKind::Mesh2D, 8)),
         "be831d1e34666ee6", "6a0d72bc97d9406c"},
        {"testbed8", makePaperTestbed(8), "be831d1e34666ee6",
         "1ca7d8dbf940e6cb"},
    };
    for (const Case &c : cases) {
        InterFpgaOptions opt;
        opt.backend = L1Backend::Multilevel;
        opt.replicate = true;
        opt.channelsPerDevice = c.cluster.device().memory().channels;

        // The hierarchy exactly as runVCycle builds it.
        CoarsenOptions copt;
        copt.targetVertices =
            std::max(opt.coarseLimit, 2 * c.cluster.numDevices());
        copt.mergeCap = interFpgaDeviceBudget(g, c.cluster, opt);
        copt.mergeCap *= 0.5;
        copt.channelMergeCap = opt.channelsPerDevice / 2;
        copt.seed = opt.seed;
        PinDigest h;
        for (const Level &level : buildHierarchy(g, copt)) {
            h.add(level.hg.pins);
            h.add(level.hg.netWeight);
            h.add(level.coarseOf);
        }
        EXPECT_EQ(h.hex(), c.hierarchy) << c.name;

        const obs::Counter &fm = obs::MetricsRegistry::global().counter(
            "tapacs.partition.fm_moves");
        for (const int threads : {1, 4}) {
            opt.numThreads = threads;
            const std::int64_t fm0 = fm.value();
            const InterFpgaResult r = solveL1(g, c.cluster, opt);
            const std::int64_t fmMoves = fm.value() - fm0;
            ASSERT_TRUE(r.feasible) << c.name;
            PinDigest d;
            d.add(r.partition.deviceOf);
            d.add(r.cost);
            d.add(r.cutTrafficBytes);
            d.add(r.levels);
            d.add(r.replication.totalReplicas());
            d.add(fmMoves);
            EXPECT_EQ(d.hex(), c.result)
                << c.name << " threads=" << threads;
        }
    }
}

TEST(Multilevel, DelegatesSmallGraphsToExactEngine)
{
    // Below max(coarseLimit, mlIlpVertexLimit) the hybrid returns
    // the exact engine's partition bit-for-bit (levels stays 0).
    TaskGraph g = makeRandomDesign(30, 99);
    Cluster c = makePaperTestbed(2);
    InterFpgaOptions ml;
    ml.backend = L1Backend::Multilevel;
    InterFpgaOptions ex;
    ex.backend = L1Backend::Exact;
    const InterFpgaResult a = floorplanMultilevel(g, c, ml);
    const InterFpgaResult b = floorplanInterFpga(g, c, ex);
    ASSERT_TRUE(a.feasible);
    ASSERT_TRUE(b.feasible);
    EXPECT_EQ(a.partition.deviceOf, b.partition.deviceOf);
    EXPECT_EQ(a.levels, 0);
}

TEST(Multilevel, InfeasibleWhenAVertexExceedsTheDevice)
{
    TaskGraph g("huge");
    g.addVertex("big", ResourceVector(2.0e6, 4.0e6, 2000, 9000, 1000));
    Cluster c = makePaperTestbed(2);
    InterFpgaOptions opt = vcycleOptions(1);
    const InterFpgaResult r = floorplanMultilevel(g, c, opt);
    EXPECT_FALSE(r.feasible);
    EXPECT_FALSE(r.status.ok());
}

// ---- Replication semantics ---------------------------------------------

/** src -> b (64 bits), b -> {c0, c1, c2} (512 bits each); src and b
 *  on device 0, the consumers on device 1. */
TaskGraph
makeBroadcastGraph()
{
    TaskGraph g("broadcast");
    g.addVertex("src", ResourceVector(500, 900, 0, 0, 0));
    g.addVertex("b", ResourceVector(800, 1500, 0, 0, 0));
    for (int i = 0; i < 3; ++i)
        g.addVertex(strprintf("c%d", i),
                    ResourceVector(600, 1100, 0, 0, 0));
    g.addEdge(0, 1, 64, 1.0e5);
    for (int i = 0; i < 3; ++i)
        g.addEdge(1, 2 + i, 512, 1.0e6);
    return g;
}

TEST(Replication, ApplyRewiresConsumersToTheLocalCopy)
{
    TaskGraph g = makeBroadcastGraph();
    DevicePartition part;
    part.deviceOf = {0, 0, 1, 1, 1};
    ReplicationMap map;
    map.extraDevicesOf = {{}, {1}, {}, {}, {}};

    const ReplicatedDesign x = applyReplication(g, part, map);
    x.graph.validate();
    ASSERT_EQ(x.graph.numVertices(), 6);
    EXPECT_EQ(x.graph.vertex(5).name, "b@1");
    EXPECT_EQ(x.partition.deviceOf[5], 1);
    ASSERT_EQ(x.originOf.size(), 6u);
    for (VertexId v = 0; v < 5; ++v)
        EXPECT_EQ(x.originOf[v], v);
    EXPECT_EQ(x.originOf[5], 1);

    // The three 512-bit broadcast edges now run replica -> consumer
    // on device 1; the only cut edge left is the duplicated 64-bit
    // input feeding the replica from the primary producer.
    EXPECT_EQ(cutEdgeCount(x.graph, x.partition), 1);
    EXPECT_DOUBLE_EQ(interFpgaCutWidthBits(x.graph, x.partition), 64.0);
    EXPECT_DOUBLE_EQ(interFpgaCutWidthBits(g, part), 3 * 512.0);
}

TEST(Replication, PlannerPicksTheProfitableBroadcaster)
{
    TaskGraph g = makeBroadcastGraph();
    Cluster c = makePaperTestbed(2);
    DevicePartition part;
    part.deviceOf = {0, 0, 1, 1, 1};
    InterFpgaOptions opt;
    opt.channelsPerDevice = 32;
    const ReplicationMap map = planReplication(g, c, opt, part);
    ASSERT_EQ(map.extraDevicesOf.size(), 5u);
    EXPECT_EQ(map.extraDevicesOf[1], std::vector<DeviceId>{1});
    EXPECT_EQ(map.totalReplicas(), 1);
}

TEST(Replication, WritersAndSelfLoopsAreNeverReplicated)
{
    TaskGraph g = makeBroadcastGraph();
    {
        Vertex &b = g.vertex(1);
        b.work.memWriteBytes = 4096.0; // externally visible stores
    }
    Cluster c = makePaperTestbed(2);
    DevicePartition part;
    part.deviceOf = {0, 0, 1, 1, 1};
    EXPECT_TRUE(planReplication(g, c, {}, part).empty());
}

TEST(Replication, ReducesPageRankCutWidth)
{
    // The acceptance demo: pagerank with one shard and 8 PEs needs
    // 2 + 15 + 8x3 = 41 channels — more than one U55C's 32 — so the
    // partitioner must strand PEs across the cut from the router's
    // 512-bit edge stream. Replicating the read-only router onto the
    // second device converts those wide cut FIFOs into one duplicated
    // narrow input.
    apps::PageRankConfig cfg;
    cfg.dataset = apps::pagerankDatasets()[0];
    cfg.numPes = 8;
    cfg.numShards = 1;
    apps::AppDesign app = apps::buildPageRank(cfg);
    const hls::ProgramSynthesis synth = hls::synthesizeAll(app.tasks);
    hls::applySynthesis(app.graph, synth);

    Cluster c = makePaperTestbed(2);
    InterFpgaOptions opt;
    opt.channelsPerDevice = 32;
    InterFpgaOptions rep = opt;
    rep.replicate = true;

    const InterFpgaResult base = solveL1(app.graph, c, opt);
    const InterFpgaResult with = solveL1(app.graph, c, rep);
    ASSERT_TRUE(base.feasible);
    ASSERT_TRUE(with.feasible);
    EXPECT_TRUE(base.replication.empty());
    ASSERT_FALSE(with.replication.empty());

    const ReplicatedDesign x =
        applyReplication(app.graph, with.partition, with.replication);
    EXPECT_LT(interFpgaCutWidthBits(x.graph, x.partition),
              interFpgaCutWidthBits(app.graph, base.partition));
}

// ---- Synthetic generator ------------------------------------------------

TEST(SynthGenerator, DeterministicConnectedAndAcyclic)
{
    apps::SynthConfig cfg = apps::SynthConfig::scaled(2000, 7);
    const apps::AppDesign a = apps::buildSynthetic(cfg);
    const apps::AppDesign b = apps::buildSynthetic(cfg);
    EXPECT_EQ(serializeTaskGraph(a.graph), serializeTaskGraph(b.graph));

    a.graph.validate();
    EXPECT_EQ(a.graph.numVertices(), 2000);
    EXPECT_TRUE(a.tasks.empty()); // areas pre-stamped, no HLS pass
    EXPECT_FALSE(hasCycle(a.graph));
    int memVertices = 0;
    for (VertexId v = 0; v < a.graph.numVertices(); ++v)
        memVertices += a.graph.vertex(v).work.memChannels > 0 ? 1 : 0;
    EXPECT_EQ(memVertices, cfg.memTasks);

    const apps::AppDesign other =
        apps::buildSynthetic(apps::SynthConfig::scaled(2000, 8));
    EXPECT_NE(serializeTaskGraph(a.graph),
              serializeTaskGraph(other.graph));
}

TEST(SynthGenerator, VCyclePartitionsASynthGraph)
{
    const apps::AppDesign app =
        apps::buildSynthetic(apps::SynthConfig::scaled(1500, 11));
    Cluster c = makePaperTestbed(4);
    InterFpgaOptions opt;
    opt.backend = L1Backend::Multilevel;
    opt.channelsPerDevice = 32;
    const InterFpgaResult r = floorplanMultilevel(app.graph, c, opt);
    ASSERT_TRUE(r.feasible);
    EXPECT_GE(r.levels, 2);
    EXPECT_TRUE(respectsThreshold(app.graph, c, r.partition,
                                  opt.reserved, opt.threshold));
    EXPECT_NEAR(r.cost, interFpgaCost(app.graph, c, r.partition),
                1e-6 * (r.cost + 1.0));
}

// ---- Cache round trip ---------------------------------------------------

TEST(PartitionCache, InterKeyTracksBackendKnobsButNotThreads)
{
    TaskGraph g = makeRandomDesign(40, 5);
    Cluster c = makePaperTestbed(2);
    const InterFpgaOptions base;
    const cache::CacheKey k0 = cache::interKey(g, c, 2, base);

    InterFpgaOptions ml = base;
    ml.backend = L1Backend::Multilevel;
    EXPECT_FALSE(cache::interKey(g, c, 2, ml) == k0);

    InterFpgaOptions rep = base;
    rep.replicate = true;
    EXPECT_FALSE(cache::interKey(g, c, 2, rep) == k0);

    InterFpgaOptions lim = base;
    lim.mlIlpVertexLimit = 1234;
    EXPECT_FALSE(cache::interKey(g, c, 2, lim) == k0);

    // The refinement pool size is excluded: results are bit-identical
    // at any thread count, so warm entries survive a -j change.
    InterFpgaOptions threads = base;
    threads.numThreads = 7;
    EXPECT_TRUE(cache::interKey(g, c, 2, threads) == k0);
}

TEST(PartitionCache, RoundTripsLevelsAndReplicationMap)
{
    TaskGraph g = makeRandomDesign(60, 21);
    Cluster c = makePaperTestbed(4);
    InterFpgaOptions opt = vcycleOptions(21);
    opt.replicate = true;
    const InterFpgaResult solved = solveL1(g, c, opt);
    ASSERT_TRUE(solved.feasible);

    cache::CacheStore store;
    cache::CompileCache cc(store);
    const cache::CacheKey key = cache::interKey(g, c, 4, opt);

    InterFpgaResult miss;
    EXPECT_FALSE(cc.getInter(key, g.numVertices(), &miss));
    cc.putInter(key, solved);

    InterFpgaResult hit;
    EXPECT_FALSE(cc.getInter(key, g.numVertices() + 1, &hit));
    ASSERT_TRUE(cc.getInter(key, g.numVertices(), &hit));
    EXPECT_EQ(hit.partition.deviceOf, solved.partition.deviceOf);
    EXPECT_EQ(hit.levels, solved.levels);
    EXPECT_EQ(hit.replication, solved.replication);
    EXPECT_DOUBLE_EQ(hit.cost, solved.cost);
}

// ---- Manifest keys ------------------------------------------------------

TEST(PartitionManifest, SolverKeysParseWithDefaults)
{
    const serve::ParsedManifest m = serve::parseManifest(
        "request a workload=stencil solver=multilevel replicate=1 "
        "coarse_limit=64\n"
        "request b workload=stencil solver=exact\n"
        "request c workload=stencil\n");
    ASSERT_TRUE(m.clean());
    ASSERT_EQ(m.requests.size(), 3u);
    EXPECT_EQ(m.requests[0].solver, L1Backend::Multilevel);
    EXPECT_TRUE(m.requests[0].replicate);
    EXPECT_EQ(m.requests[0].coarseLimit, 64);
    EXPECT_EQ(m.requests[1].solver, L1Backend::Exact);
    EXPECT_FALSE(m.requests[1].replicate);
    EXPECT_EQ(m.requests[2].solver, L1Backend::Exact);
    EXPECT_EQ(m.requests[2].coarseLimit, 0);
}

TEST(PartitionManifest, BadSolverKeysBecomePerLineDiagnostics)
{
    const serve::ParsedManifest m = serve::parseManifest(
        "request ok workload=stencil solver=multilevel\n"
        "request bad1 workload=stencil solver=fast\n"
        "request bad2 workload=stencil replicate=2\n"
        "request bad3 workload=stencil coarse_limit=1\n"
        "request bad4 workload=stencil coarse_limit=999999\n");
    ASSERT_EQ(m.requests.size(), 1u);
    EXPECT_EQ(m.requests[0].name, "ok");
    ASSERT_EQ(m.diagnostics.size(), 4u);
    EXPECT_EQ(m.diagnostics[0].line, 2);
    EXPECT_NE(m.diagnostics[0].message.find("solver"),
              std::string::npos);
    EXPECT_NE(m.diagnostics[1].message.find("replicate"),
              std::string::npos);
    EXPECT_NE(m.diagnostics[2].message.find("coarse_limit"),
              std::string::npos);
    EXPECT_NE(m.diagnostics[3].message.find("coarse_limit"),
              std::string::npos);
}

} // namespace
} // namespace tapacs
