/**
 * @file
 * Design-space-exploration suite: spec grammar, Pareto reduction,
 * and the runExplore() driver's three contracts — thread-count
 * bit-identity, sweep-vs-cold differential equality, and results
 * that describe their own sweep only.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "cache/compile_cache.hh"
#include "compile_identity.hh"
#include "explore/explore.hh"
#include "explore/pareto.hh"
#include "explore/spec.hh"
#include "network/cluster.hh"

namespace tapacs::explore
{
namespace
{

// ---------------------------------------------------------------
// Spec grammar.

TEST(ExploreSpec, EmptyTextIsTheOnePointDefaultGrid)
{
    ExploreSpec spec;
    ASSERT_TRUE(parseGridSpec("", &spec).ok());
    EXPECT_EQ(spec.numPoints(), 1u);
    const ExplorePoint p = spec.point(0);
    EXPECT_DOUBLE_EQ(p.threshold, 0.70);
    EXPECT_LT(p.slotThreshold, 0.0);
    EXPECT_EQ(p.topology, TopologyKind::Ring);
    EXPECT_TRUE(p.bindingSweep);
    EXPECT_EQ(p.depth, 2);
}

TEST(ExploreSpec, FullGrammarParsesEveryAxis)
{
    ExploreSpec spec;
    const Status st = parseGridSpec(
        "t=0.6,0.7;lambda=0.8,follow;topo=ring,mesh;"
        "binding=nearest,sweep;depth=1,2,3",
        &spec);
    ASSERT_TRUE(st.ok()) << st.message();
    EXPECT_EQ(spec.thresholds, (std::vector<double>{0.6, 0.7}));
    EXPECT_EQ(spec.slotThresholds,
              (std::vector<double>{0.8, -1.0}));
    EXPECT_EQ(spec.topologies,
              (std::vector<TopologyKind>{TopologyKind::Ring,
                                         TopologyKind::Mesh2D}));
    EXPECT_EQ(spec.bindingSweeps, (std::vector<bool>{false, true}));
    EXPECT_EQ(spec.depths, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(spec.numPoints(), 2u * 2u * 2u * 2u * 3u);
}

TEST(ExploreSpec, CanonicalEnumerationIsDepthInnermostTOutermost)
{
    ExploreSpec spec;
    ASSERT_TRUE(
        parseGridSpec("t=0.5,0.9;topo=ring,chain;depth=1,2", &spec)
            .ok());
    ASSERT_EQ(spec.numPoints(), 8u);
    // idx 0: first value of every axis.
    EXPECT_DOUBLE_EQ(spec.point(0).threshold, 0.5);
    EXPECT_EQ(spec.point(0).topology, TopologyKind::Ring);
    EXPECT_EQ(spec.point(0).depth, 1);
    // depth varies fastest...
    EXPECT_EQ(spec.point(1).depth, 2);
    EXPECT_EQ(spec.point(1).topology, TopologyKind::Ring);
    // ...then topology...
    EXPECT_EQ(spec.point(2).topology, TopologyKind::Chain);
    EXPECT_DOUBLE_EQ(spec.point(2).threshold, 0.5);
    // ...and t is outermost.
    EXPECT_DOUBLE_EQ(spec.point(4).threshold, 0.9);
    EXPECT_EQ(spec.point(4).topology, TopologyKind::Ring);
    EXPECT_EQ(spec.point(4).depth, 1);
}

TEST(ExploreSpec, MalformedSpecsAreTypedInvalidInput)
{
    ExploreSpec spec;
    // Unknown axis, bad numbers, out-of-range values, duplicates,
    // duplicate axes, missing '='.
    for (const char *bad :
         {"frob=1", "t=abc", "t=0", "t=1.5", "t=0.6,0.6",
          "t=0.6;t=0.7", "depth=17", "depth=-1", "lambda=0",
          "binding=maybe", "topo=torus", "t", "t=", ";;t=0.5,"}) {
        const Status st = parseGridSpec(bad, &spec);
        EXPECT_FALSE(st.ok()) << "accepted: " << bad;
        EXPECT_EQ(st.code(), StatusCode::InvalidInput) << bad;
    }
}

TEST(ExploreSpec, OversizedGridsAreRejected)
{
    // 10 x 10 x 6 x 2 x 17 = 20400 > kMaxExplorePoints.
    std::string t = "t=", l = "lambda=";
    for (int i = 1; i <= 10; ++i) {
        if (i > 1) {
            t += ",";
            l += ",";
        }
        t += "0." + std::to_string(10 + i); // 0.11 .. 0.20
        l += "0." + std::to_string(20 + i); // 0.21 .. 0.30
    }
    const std::string text =
        t + ";" + l +
        ";topo=chain,ring,star,mesh,hypercube,full;"
        "binding=nearest,sweep;"
        "depth=0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16";
    ExploreSpec spec;
    const Status st = parseGridSpec(text, &spec);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::InvalidInput);
}

// ---------------------------------------------------------------
// Pareto reduction.

TEST(Pareto, DominanceIsStrictOnAllThreeObjectives)
{
    const Objectives a{300.0e6, 0.5, 1.0};
    const Objectives worse{250.0e6, 0.6, 2.0};
    const Objectives tie = a;
    const Objectives mixed{350.0e6, 0.6, 1.0}; // faster but fatter
    EXPECT_TRUE(dominates(a, worse));
    EXPECT_FALSE(dominates(worse, a));
    EXPECT_FALSE(dominates(a, tie));
    EXPECT_FALSE(dominates(tie, a));
    EXPECT_FALSE(dominates(a, mixed));
    EXPECT_FALSE(dominates(mixed, a));
}

TEST(Pareto, FrontierKeepsExactlyTheNondominatedPoints)
{
    const std::vector<Objectives> pts = {
        {300.0e6, 0.5, 1.0},  // 0: on the frontier
        {250.0e6, 0.6, 2.0},  // 1: dominated by 0
        {350.0e6, 0.6, 1.0},  // 2: frontier (faster, fatter)
        {300.0e6, 0.4, 1.5},  // 3: frontier (leaner, slower sim)
        {300.0e6, 0.5, 1.0},  // 4: exact tie with 0 — kept
    };
    const std::vector<std::size_t> f = paretoFrontier(pts, {});
    EXPECT_EQ(f, (std::vector<std::size_t>{0, 2, 3, 4}));
}

TEST(Pareto, IneligiblePointsNeverReachTheFrontier)
{
    const std::vector<Objectives> pts = {
        {400.0e6, 0.1, 0.1}, // would dominate everything…
        {300.0e6, 0.5, 1.0},
    };
    const std::vector<char> eligible = {0, 1};
    const std::vector<std::size_t> f = paretoFrontier(pts, eligible);
    EXPECT_EQ(f, (std::vector<std::size_t>{1}));
}

// ---------------------------------------------------------------
// The sweep driver, on a small random design that already carries
// areas (the compile() path compile_identity's differentials use).

ExploreSpec
smallSpec()
{
    ExploreSpec spec;
    spec.thresholds = {0.6, 0.7};
    spec.topologies = {TopologyKind::Ring, TopologyKind::Chain};
    spec.depths = {1, 2};
    return spec;
}

TEST(RunExplore, SweepTracesEveryPointAndFindsAFrontier)
{
    TaskGraph g = randomDesign(4100, 3, 4);
    const ExploreSpec spec = smallSpec();
    ExploreOptions opt;
    opt.base.numFpgas = 2;
    opt.threads = 1;
    const ExploreResult r = runExplore(g, {}, spec, opt);
    ASSERT_TRUE(r.status.ok()) << r.status.message();
    ASSERT_EQ(r.trace.size(), spec.numPoints());
    ASSERT_FALSE(r.frontier.empty());
    for (std::size_t i = 0; i < r.trace.size(); ++i) {
        EXPECT_TRUE(r.trace[i].status.ok())
            << i << ": " << r.trace[i].status.message();
        EXPECT_TRUE(r.trace[i].routable);
        EXPECT_TRUE(r.trace[i].simulated);
        EXPECT_GT(r.trace[i].obj.fmax, 0.0);
        EXPECT_GT(r.trace[i].obj.utilization, 0.0);
        EXPECT_GT(r.trace[i].obj.latency, 0.0);
    }
    // Frontier points are trace indices in ascending order.
    for (std::size_t i = 1; i < r.frontier.size(); ++i)
        EXPECT_LT(r.frontier[i - 1], r.frontier[i]);
    // Reuse across the sweep: HLS-free path still shares L1/L2 work,
    // so a 8-point sweep must see cache traffic.
    EXPECT_GT(r.cacheHits, 0);
    EXPECT_GT(r.cacheHitRate, 0.0);
}

TEST(RunExplore, SerialAndFourThreadSweepsAreBitIdentical)
{
    TaskGraph g = randomDesign(4200, 3, 4);
    const ExploreSpec spec = smallSpec();
    ExploreOptions serial;
    serial.base.numFpgas = 2;
    serial.threads = 1;
    const ExploreResult a = runExplore(g, {}, spec, serial);
    ASSERT_TRUE(a.status.ok()) << a.status.message();

    ExploreOptions threaded = serial;
    threaded.threads = 4;
    const ExploreResult b = runExplore(g, {}, spec, threaded);
    ASSERT_TRUE(b.status.ok()) << b.status.message();

    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
        const std::string what =
            "serial vs threaded point " + std::to_string(i);
        expectResultsIdentical(a.trace[i].result, b.trace[i].result,
                               what.c_str());
        EXPECT_EQ(a.trace[i].obj == b.trace[i].obj, true) << i;
    }
    EXPECT_EQ(a.frontier, b.frontier);
    EXPECT_EQ(frontierCsv(a), frontierCsv(b));
}

TEST(RunExplore, SweepResultsMatchIndependentColdCompiles)
{
    TaskGraph g = randomDesign(4300, 3, 4);
    const ExploreSpec spec = smallSpec();
    ExploreOptions opt;
    opt.base.numFpgas = 2;
    opt.threads = 1;
    const ExploreResult sweep = runExplore(g, {}, spec, opt);
    ASSERT_TRUE(sweep.status.ok()) << sweep.status.message();

    // Cache reuse across the sweep must not change any individual
    // answer: every trace entry must be field-exact to a cold
    // compile of the same knobs with no cache at all.
    for (std::size_t i = 0; i < spec.numPoints(); ++i) {
        const ExplorePoint p = spec.point(i);
        Cluster cluster(makeU55C(), Topology(p.topology, 2), 1);
        CompileOptions copt;
        copt.numFpgas = 2;
        copt.threshold = p.threshold;
        copt.slotThreshold = p.slotThreshold;
        copt.hbmBindingSweep = p.bindingSweep;
        copt.pipeline.stagesPerCrossing = p.depth;
        TaskGraph local = g;
        const CompileResult cold = compile(local, cluster, copt);
        const std::string what =
            "sweep vs cold point " + std::to_string(i);
        expectResultsIdentical(sweep.trace[i].result, cold,
                               what.c_str());
    }
}

TEST(RunExplore, InvalidSpecIsTypedAndTraceless)
{
    TaskGraph g = randomDesign(4400, 2, 3);
    ExploreSpec spec;
    spec.depths = {99};
    ExploreOptions opt;
    opt.base.numFpgas = 2;
    const ExploreResult r = runExplore(g, {}, spec, opt);
    EXPECT_EQ(r.status.code(), StatusCode::InvalidInput);
    EXPECT_TRUE(r.trace.empty());
    EXPECT_TRUE(r.frontier.empty());
}

TEST(RunExplore, KnobClusterMismatchIsATypedPointFailure)
{
    TaskGraph g = randomDesign(4500, 2, 3);
    ExploreSpec spec;
    spec.topologies = {TopologyKind::Ring, TopologyKind::Hypercube};
    ExploreOptions opt;
    opt.base.numFpgas = 3; // hypercube needs a power of two
    opt.threads = 1;
    const ExploreResult r = runExplore(g, {}, spec, opt);
    ASSERT_TRUE(r.status.ok()) << r.status.message();
    ASSERT_EQ(r.trace.size(), 2u);
    EXPECT_TRUE(r.trace[0].routable);
    EXPECT_FALSE(r.trace[1].routable);
    EXPECT_EQ(r.trace[1].status.code(), StatusCode::InvalidInput);
    // The broken region stays out of the frontier.
    EXPECT_EQ(r.frontier, (std::vector<std::size_t>{0}));
}

TEST(RunExplore, ExpiredSweepContextYieldsTypedUnevaluatedPoints)
{
    TaskGraph g = randomDesign(4600, 2, 3);
    ExploreSpec spec = smallSpec();
    ExploreOptions opt;
    opt.base.numFpgas = 2;
    opt.threads = 1;
    opt.ctx = Context::withTimeout(0.0);
    const ExploreResult r = runExplore(g, {}, spec, opt);
    EXPECT_EQ(r.status.code(), StatusCode::DeadlineExceeded);
    ASSERT_EQ(r.trace.size(), spec.numPoints());
    for (const PointOutcome &po : r.trace) {
        EXPECT_FALSE(po.routable);
        EXPECT_EQ(po.status.code(), StatusCode::DeadlineExceeded);
    }
    EXPECT_TRUE(r.frontier.empty());
}

// ---------------------------------------------------------------
// Result freshness: each ExploreResult describes its own sweep, never
// the sum of the sweeps before it.

std::int64_t
unroutableCount(const ExploreResult &r)
{
    std::int64_t n = 0;
    for (const PointOutcome &po : r.trace)
        n += po.routable ? 0 : 1;
    return n;
}

TEST(RunExplore, ResultsDescribeTheirOwnSweepOnly)
{
    TaskGraph g = randomDesign(4700, 3, 4);

    ExploreOptions opt;
    opt.base.numFpgas = 2;
    opt.threads = 1;
    const ExploreSpec big = smallSpec();
    const ExploreResult a = runExplore(g, {}, big, opt);
    ASSERT_TRUE(a.status.ok()) << a.status.message();
    EXPECT_EQ(a.trace.size(), big.numPoints());
    EXPECT_EQ(unroutableCount(a), 0);
    EXPECT_GT(a.cacheHits, 0);

    ExploreSpec one;
    const ExploreResult b = runExplore(g, {}, one, opt);
    ASSERT_TRUE(b.status.ok()) << b.status.message();
    // The one-point sweep reports itself, not the sum of both.
    EXPECT_EQ(b.trace.size(), 1u);
    EXPECT_EQ(b.frontier.size(), 1u);
    EXPECT_EQ(unroutableCount(b), 0);
    EXPECT_GT(b.cacheMisses, 0);
    EXPECT_LT(b.cacheHits + b.cacheMisses, a.cacheHits + a.cacheMisses);
    EXPECT_DOUBLE_EQ(b.cacheHitRate,
                     static_cast<double>(b.cacheHits) /
                         (b.cacheHits + b.cacheMisses));

    // Repeating the one-point sweep reads the same cache traffic: no
    // count carries over from an earlier sweep.
    const ExploreResult again = runExplore(g, {}, one, opt);
    ASSERT_TRUE(again.status.ok()) << again.status.message();
    EXPECT_EQ(again.cacheHits, b.cacheHits);
    EXPECT_EQ(again.cacheMisses, b.cacheMisses);
    EXPECT_EQ(again.frontier, b.frontier);
}

TEST(RunExplore, CacheCountsIgnoreConcurrentCompiles)
{
    // A sweep counts its own compiles' lookups, so a compile running
    // on another thread against another cache changes nothing.
    TaskGraph g = randomDesign(4800, 3, 4);
    ExploreOptions opt;
    opt.base.numFpgas = 2;
    opt.threads = 1;
    const ExploreSpec spec = smallSpec();
    const ExploreResult alone = runExplore(g, {}, spec, opt);
    ASSERT_TRUE(alone.status.ok()) << alone.status.message();
    ASSERT_GT(alone.cacheHits, 0);

    std::atomic<bool> done{false};
    std::atomic<int> compiles{0};
    std::thread noise([&]() {
        const TaskGraph other = randomDesign(4801, 4, 4);
        const Cluster cluster = makePaperTestbed(2);
        cache::CacheStore store;
        cache::CompileCache cc(store);
        CompileOptions copt;
        copt.numFpgas = 2;
        copt.cache = &cc;
        while (!done.load() || compiles.load() == 0) {
            compile(other, cluster, copt);
            ++compiles;
        }
    });
    const ExploreResult busy = runExplore(g, {}, spec, opt);
    done = true;
    noise.join();
    ASSERT_TRUE(busy.status.ok()) << busy.status.message();
    EXPECT_GT(compiles.load(), 0);
    EXPECT_EQ(busy.cacheHits, alone.cacheHits);
    EXPECT_EQ(busy.cacheMisses, alone.cacheMisses);
    EXPECT_EQ(busy.frontier, alone.frontier);
}

TEST(RunExplore, ZeroPointDeadlineIsTheGreedyTier)
{
    TaskGraph g = randomDesign(4900, 3, 4);
    ExploreOptions opt;
    opt.base.numFpgas = 2;
    opt.threads = 1;
    opt.pointDeadlineMs = 0.0;
    const ExploreSpec spec = smallSpec();
    const ExploreResult r = runExplore(g, {}, spec, opt);
    ASSERT_TRUE(r.status.ok()) << r.status.message();
    for (const PointOutcome &po : r.trace) {
        ASSERT_TRUE(po.status.ok()) << po.status.message();
        EXPECT_TRUE(po.degraded);
        EXPECT_EQ(po.result.l1SolverStats.nodesExplored, 0);
        EXPECT_EQ(po.result.l2SolverStats.nodesExplored, 0);
    }
    // No clock: the tier repeats exactly.
    const ExploreResult again = runExplore(g, {}, spec, opt);
    EXPECT_EQ(frontierCsv(again), frontierCsv(r));
}

} // namespace
} // namespace tapacs::explore
