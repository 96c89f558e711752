/**
 * @file
 * Compile-cache tests: key properties (mutation sensitivity,
 * timing-only blindness), store mechanics (LRU, metrics, disk tier),
 * the cold/warm differentials (a cache hit never changes a compile
 * result, not even for a relabeled twin or a graph no neighborhood
 * hash tells apart), the entries a compile writes, and shared-cache
 * concurrency.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>

#include "cache/compile_cache.hh"
#include "cache/entry_io.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "compile_identity.hh"
#include "compiler/compiler.hh"
#include "hls/task_ir.hh"
#include "network/cluster.hh"
#include "network/topology.hh"
#include "obs/metrics.hh"

namespace tapacs
{
namespace
{

constexpr int kPropertyCases = 200;

/** Compile @p g through @p cc (warm) and through a fresh cache
 *  (cold), and assert the two results are identical. */
void
expectCachedEqualsCold(const TaskGraph &g, const Cluster &cluster,
                       CompileOptions opt, cache::CompileCache &cc,
                       const std::string &what)
{
    opt.cache = &cc;
    const CompileResult warm = compile(g, cluster, opt);
    opt.cache = nullptr;
    const CompileResult cold = compile(g, cluster, opt);
    ASSERT_TRUE(cold.routable) << what << ": " << cold.failureReason;
    expectResultsIdentical(warm, cold, what.c_str());
}

TEST(CacheDifferential, RelabeledTwinCompilesAsItsOwnColdCompile)
{
    // The floorplanners visit vertices by id, so a relabeled twin is
    // a different solver input: a cache holding the original's
    // entries must not hand the twin the original's answer.
    for (int seed = 0; seed < 40; ++seed) {
        const TaskGraph g = randomDesign(9000 + seed, 3 + seed % 3, 4);
        std::vector<VertexId> new_id;
        const TaskGraph h = relabel(g, 77 + seed, &new_id);
        const int fpgas = 2 + seed % 3;
        const Cluster cluster = makePaperTestbed(fpgas);
        CompileOptions opt;
        opt.mode = CompileMode::TapaCs;
        opt.numFpgas = fpgas;

        cache::CacheStore store;
        cache::CompileCache cc(store);
        opt.cache = &cc;
        ASSERT_TRUE(compile(g, cluster, opt).routable) << "seed " << seed;
        expectCachedEqualsCold(h, cluster, opt, cc,
                               "relabeled twin, seed " +
                                   std::to_string(seed));
    }
}

/** Eight identical tasks wired by eight identical FIFOs as either one
 *  8-cycle or two disjoint K2,2 (each vertex: one FIFO in, one out).
 *  Every vertex has the same neighborhood at every radius, so no
 *  neighborhood-refinement hash tells the two graphs apart. */
TaskGraph
eightTaskRing(bool twoSquares)
{
    TaskGraph g(twoSquares ? "k22x2" : "cycle8");
    for (int i = 0; i < 8; ++i) {
        Vertex v;
        v.name = strprintf("t%d", i);
        v.area = ResourceVector(150000, 200000, 100, 100, 0);
        v.work.computeOps = 1e8;
        v.work.opsPerCycle = 4;
        g.addVertex(v);
    }
    for (int i = 0; i < 8; ++i) {
        const int next = twoSquares ? (i / 4) * 4 + (i + 1) % 4
                                    : (i + 1) % 8;
        g.addEdge(i, next, 256, 1.0e6);
    }
    return g;
}

TEST(CacheDifferential, NeighborhoodEquivalentGraphsDoNotShareEntries)
{
    const Cluster cluster = makePaperTestbed(2);
    CompileOptions opt;
    opt.mode = CompileMode::TapaCs;
    opt.numFpgas = 2;
    cache::CacheStore store;
    cache::CompileCache cc(store);
    opt.cache = &cc;
    const CompileResult ring = compile(eightTaskRing(false), cluster, opt);
    ASSERT_TRUE(ring.routable) << ring.failureReason;
    expectCachedEqualsCold(eightTaskRing(true), cluster, opt, cc,
                           "two K2,2 after the 8-cycle");
}

TEST(CacheKeyProperty, AnySingleMutationChangesTheKey)
{
    for (int seed = 0; seed < kPropertyCases; ++seed) {
        Rng rng(31000 + seed);
        TaskGraph g = randomDesign(9000 + seed, 3 + seed % 3, 4);
        const int fpgas = 2 + seed % 3;
        Cluster cluster = makePaperTestbed(fpgas);
        InterFpgaOptions opts;
        const cache::CacheKey base =
            cache::interKey(g, cluster, fpgas, opts);

        // One random mutation per case, spread over every input class
        // the key must be sensitive to.
        const int kind = static_cast<int>(rng.uniformInt(0, 9));
        Cluster mutated_cluster = cluster;
        switch (kind) {
          case 0: { // FIFO width
            EdgeId e = rng.uniformInt(0, g.numEdges() - 1);
            g.edge(e).widthBits *= 2;
            break;
          }
          case 1: { // FIFO traffic volume
            EdgeId e = rng.uniformInt(0, g.numEdges() - 1);
            g.edge(e).totalBytes += 1.0;
            break;
          }
          case 2: // wiring: one more FIFO
            g.addEdge(0, g.numVertices() - 1, 32, 1.0e4);
            break;
          case 3: { // one resource-vector component
            VertexId v = rng.uniformInt(0, g.numVertices() - 1);
            g.vertex(v).area[ResourceKind::Lut] += 1.0;
            break;
          }
          case 4: { // memory traffic
            VertexId v = rng.uniformInt(0, g.numVertices() - 1);
            g.vertex(v).work.memReadBytes += 1.0;
            break;
          }
          case 5: { // memory channel demand
            VertexId v = rng.uniformInt(0, g.numVertices() - 1);
            g.vertex(v).work.memChannels += 1;
            break;
          }
          case 6: // topology
            mutated_cluster =
                Cluster(cluster.device(),
                        Topology(TopologyKind::Chain, fpgas));
            break;
          case 7: // threshold
            opts.threshold += 0.01;
            break;
          case 8: // solver budget
            opts.solver.maxNodes *= 2;
            break;
          case 9: // coarsening seed
            opts.seed += 1;
            break;
        }
        const cache::CacheKey mutated =
            cache::interKey(g, mutated_cluster, fpgas, opts);
        EXPECT_NE(base, mutated) << "seed " << seed << " kind " << kind;
    }
}

TEST(CacheKeyProperty, InterKeyIgnoresTimingOnlyAttributes)
{
    // The level-1 key must be blind to attributes only pipelining/
    // timing/simulation read — an edit touching those reuses the
    // whole floorplan — while staying sensitive to everything the
    // solvers actually consume.
    const Cluster cluster = makePaperTestbed(2);
    const InterFpgaOptions opts;
    for (int seed = 0; seed < kPropertyCases; ++seed) {
        Rng rng(47000 + seed);
        TaskGraph g = randomDesign(9000 + seed, 3 + seed % 3, 4);
        const cache::CacheKey base = cache::interKey(g, cluster, 2, opts);

        // Timing-only edits: the key must not move.
        const int quiet = static_cast<int>(rng.uniformInt(0, 5));
        TaskGraph q = g;
        switch (quiet) {
          case 0:
            q.vertex(rng.uniformInt(0, q.numVertices() - 1))
                .work.computeOps += 1.0;
            break;
          case 1:
            q.vertex(rng.uniformInt(0, q.numVertices() - 1))
                .work.opsPerCycle *= 2.0;
            break;
          case 2:
            q.vertex(rng.uniformInt(0, q.numVertices() - 1))
                .work.numBlocks += 1;
            break;
          case 3:
            q.vertex(rng.uniformInt(0, q.numVertices() - 1))
                .work.memPortWidthBits *= 2;
            break;
          case 4:
            q.edge(rng.uniformInt(0, q.numEdges() - 1)).depth += 1;
            break;
          case 5:
            q.edge(rng.uniformInt(0, q.numEdges() - 1))
                .initialTokens += 1;
            break;
        }
        EXPECT_EQ(base, cache::interKey(q, cluster, 2, opts))
            << "seed " << seed << " quiet kind " << quiet;

        // Solver-visible edits: the key must move.
        const int loud = static_cast<int>(rng.uniformInt(0, 5));
        TaskGraph m = g;
        switch (loud) {
          case 0:
            m.vertex(rng.uniformInt(0, m.numVertices() - 1))
                .area[ResourceKind::Lut] += 1.0;
            break;
          case 1:
            m.vertex(rng.uniformInt(0, m.numVertices() - 1))
                .work.memChannels += 1;
            break;
          case 2:
            m.vertex(rng.uniformInt(0, m.numVertices() - 1))
                .work.memReadBytes += 1.0;
            break;
          case 3:
            m.vertex(rng.uniformInt(0, m.numVertices() - 1))
                .work.memWriteBytes += 1.0;
            break;
          case 4:
            m.edge(rng.uniformInt(0, m.numEdges() - 1)).widthBits *= 2;
            break;
          case 5:
            m.edge(rng.uniformInt(0, m.numEdges() - 1)).totalBytes +=
                1.0;
            break;
        }
        EXPECT_NE(base, cache::interKey(m, cluster, 2, opts))
            << "seed " << seed << " loud kind " << loud;
    }
}

TEST(CacheKeyProperty, ThreadAndServingKnobsNeverReachSolverKeys)
{
    // Thread counts are excluded from keys (results are invariant),
    // and the incremental serving knobs (`--incremental`, base=,
    // result retention) live outside CompileOptions entirely — the
    // observable contract is that a recompile-seeded flow and a cold
    // flow address identical artifact keys. Guard both halves.
    TaskGraph g = randomDesign(8181, 4, 4);
    Cluster cluster = makePaperTestbed(2);

    InterFpgaOptions serial;
    InterFpgaOptions wide = serial;
    wide.numThreads = 4;
    EXPECT_EQ(cache::interKey(g, cluster, 2, serial),
              cache::interKey(g, cluster, 2, wide));

    // Cold compile vs incremental recompile of the unchanged graph:
    // the signatures must list exactly the same keys — same count,
    // every cold key re-derived (full reuse), under a different
    // thread count on the recompile side.
    TaskGraph g1 = randomDesign(8181, 4, 4);
    TaskGraph g2 = randomDesign(8181, 4, 4);
    CompileOptions opt;
    opt.mode = CompileMode::TapaCs;
    opt.numFpgas = 2;
    const CompileResult cold = compile(g1, cluster, opt);
    ASSERT_TRUE(cold.routable) << cold.failureReason;
    ASSERT_FALSE(cold.signature.empty());

    CompileOptions opt4 = opt;
    opt4.numThreads = 4;
    const CompileResult inc = recompile(cold, g2, cluster, opt4);
    ASSERT_TRUE(inc.routable) << inc.failureReason;
    EXPECT_TRUE(inc.delta.attempted);
    EXPECT_TRUE(inc.delta.l1Reused);
    EXPECT_EQ(inc.delta.devicesReused, inc.delta.devicesTotal);
    ASSERT_EQ(inc.signature.artifacts.size(),
              cold.signature.artifacts.size());
    std::vector<cache::CacheKey> a, b;
    for (const cache::Artifact &art : cold.signature.artifacts)
        a.push_back(art.key);
    for (const cache::Artifact &art : inc.signature.artifacts)
        b.push_back(art.key);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_TRUE(a == b);
}

TEST(CacheKeyProperty, IntraDeviceKeyIsPinned)
{
    // On-disk level-2 entries stay addressable only while this key
    // derivation is unchanged. A change that moves these values must
    // bump kSchemaVersion (so stale entries miss cleanly) and re-pin.
    // Two devices, memory users on both, intra-device edges on both
    // and one cross-device edge the key must ignore.
    TaskGraph g("pinned");
    auto add = [&](const char *name, double lut, int channels) {
        Vertex v;
        v.name = name;
        v.area = ResourceVector(lut, 2 * lut, 8, 16, 0);
        v.work.memChannels = channels;
        g.addVertex(v);
    };
    add("rd0", 30000, 2);
    add("pe0", 60000, 0);
    add("wr0", 20000, 1);
    add("rd1", 35000, 4);
    add("pe1", 55000, 0);
    add("wr1", 25000, 1);
    g.addEdge(0, 1, 512, 1.0e6);
    g.addEdge(1, 2, 256, 1.0e6);
    g.addEdge(2, 3, 128, 1.0e6); // cross-device
    g.addEdge(3, 4, 512, 1.0e6);
    g.addEdge(4, 5, 64, 1.0e6);
    g.addEdge(5, 3, 32, 1.0e6);
    DevicePartition part;
    part.deviceOf = {0, 0, 0, 1, 1, 1};
    const DeviceModel dev = makeU55C();
    IntraFpgaOptions opt;
    opt.reserved = ResourceVector(1000, 2000, 4, 8, 0);

    EXPECT_EQ(cache::kSchemaVersion, 5);
    EXPECT_EQ(cache::intraDeviceKey(g, part, 0, dev, opt, true).hex(),
              "f8237be1d2a7cb20da642ca4bff11093");
    EXPECT_EQ(cache::intraDeviceKey(g, part, 1, dev, opt, true).hex(),
              "bb6e72505166164327ca56de9d1d1052");
    EXPECT_EQ(cache::intraDeviceKey(g, part, 1, dev, opt, false).hex(),
              "9db700ae501f5999717c936ca02cfbe6");
}

TEST(CacheKeyProperty, InterKeyIsPinned)
{
    // On-disk level-1 entries stay addressable only while this key
    // derivation is unchanged. A change that moves these values must
    // bump kSchemaVersion (so stale entries miss cleanly) and re-pin.
    // The solver constants (balance slack, tolerances) are key
    // content too, so editing one moves these values.
    TaskGraph g("pinned");
    auto add = [&](const char *name, double lut, int channels,
                   double readBytes) {
        Vertex v;
        v.name = name;
        v.area = ResourceVector(lut, 2 * lut, 8, 16, 0);
        v.work.memChannels = channels;
        v.work.memReadBytes = readBytes;
        v.work.memWriteBytes = 0.5 * readBytes;
        g.addVertex(v);
    };
    add("rd0", 30000, 2, 4.0e6);
    add("pe0", 60000, 0, 0.0);
    add("wr0", 20000, 1, 1.0e6);
    add("rd1", 35000, 4, 8.0e6);
    add("pe1", 55000, 0, 0.0);
    add("wr1", 25000, 1, 2.0e6);
    g.addEdge(0, 1, 512, 1.0e6);
    g.addEdge(1, 2, 256, 1.0e6);
    g.addEdge(2, 3, 128, 1.0e6);
    g.addEdge(3, 4, 512, 1.0e6);
    g.addEdge(4, 5, 64, 1.0e6);
    g.addEdge(5, 3, 32, 1.0e6);
    const Cluster cluster = makePaperTestbed(2);
    InterFpgaOptions opt;
    opt.reserved = ResourceVector(1000, 2000, 4, 8, 0);
    opt.channelsPerDevice = 32;

    InterFpgaOptions ml = opt;
    ml.backend = L1Backend::Multilevel;
    ml.replicate = true;

    EXPECT_EQ(cache::kSchemaVersion, 5);
    EXPECT_EQ(cache::interKey(g, cluster, 2, opt).hex(),
              "5a063b2c19ba07e078f803a56d27d256");
    EXPECT_EQ(cache::interKey(g, cluster, 2, ml).hex(),
              "b6b9544f3b0eb4b0b9fc503fa8616874");
}

TEST(CacheKeyProperty, DeviceCountSeparatesClusterKeys)
{
    EXPECT_NE(cache::clusterKey(makePaperTestbed(2)),
              cache::clusterKey(makePaperTestbed(4)));
}

TEST(CacheStore, LruEvictsWithinBudgetAndCountsMetrics)
{
    obs::MetricsRegistry::global().resetPrefix("tapacs.cache.");
    cache::CacheStore::Options opt;
    opt.capacityBytes = 4096;
    opt.shards = 1; // single shard so the LRU order is observable
    cache::CacheStore store(std::move(opt));

    auto key = [](int i) {
        cache::KeyBuilder b;
        b.i64(i);
        return b.build();
    };
    const std::string blob(512, 'x');
    for (int i = 0; i < 32; ++i)
        store.put(key(i), blob);
    EXPECT_LE(store.bytesInMemory(), 4096u);

    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::global().snapshot();
    EXPECT_GT(snap.counterValue("tapacs.cache.evictions"), 0);
    EXPECT_EQ(snap.gauges.at("tapacs.cache.bytes"),
              static_cast<double>(store.bytesInMemory()));

    // The most recent entries survived; the oldest were evicted.
    EXPECT_NE(store.get(key(31)), nullptr);
    EXPECT_EQ(store.get(key(0)), nullptr);
    const obs::MetricsSnapshot snap2 =
        obs::MetricsRegistry::global().snapshot();
    EXPECT_GE(snap2.counterValue("tapacs.cache.hits"), 1);
    EXPECT_GE(snap2.counterValue("tapacs.cache.misses"), 1);
}

TEST(CacheStore, DiskTierRoundTripsAcrossStoreInstances)
{
    const std::string dir =
        testing::TempDir() + "/tapacs_cache_disk_test";
    std::filesystem::remove_all(dir);

    cache::CacheKey key;
    key.hi = 0x1234;
    key.lo = 0x5678;
    {
        cache::CacheStore::Options opt;
        opt.directory = dir;
        cache::CacheStore store(std::move(opt));
        store.put(key, "payload");
    }
    // A brand-new store over the same directory serves the entry from
    // disk and promotes it into memory.
    cache::CacheStore::Options opt;
    opt.directory = dir;
    cache::CacheStore store(std::move(opt));
    auto blob = store.get(key);
    ASSERT_NE(blob, nullptr);
    EXPECT_EQ(*blob, "payload");
    EXPECT_GT(store.bytesInMemory(), 0u);
    std::filesystem::remove_all(dir);
}

TEST(CacheStore, MalformedEntryDegradesToMiss)
{
    cache::CacheStore store;
    cache::CompileCache cc(store);
    cache::CacheKey key;
    key.hi = 7;
    store.put(key, "hls1 garbage that does not parse");
    hls::SynthesisResult out;
    EXPECT_FALSE(cc.getHls(key, &out));
    store.put(key, "");
    EXPECT_FALSE(cc.getHls(key, &out));
    // Corrupt element counts miss instead of sizing huge allocations.
    IntraDeviceEntry intra;
    store.put(key, "intradev1 100000000000000 0 0");
    EXPECT_FALSE(cc.getIntraDevice(key, &intra));
    InterFpgaResult inter;
    cache::EntryWriter w;
    w.tag("inter3");
    w.i64(1); // one vertex
    w.i64(1); // feasible
    w.f64(0.0);
    w.f64(0.0);
    w.f64(0.0);
    w.i64(1);
    w.i64(1);
    w.i64(1);
    cache::writeStats(w, ilp::SolverStats());
    w.i64(0);               // its device
    w.i64(1);               // one replication list
    w.i64(100000000000000); // with a corrupt length
    store.put(key, w.take());
    EXPECT_FALSE(cc.getInter(key, 1, &inter));
}

TEST(CompileCache, HlsEntryRoundTripsExactly)
{
    cache::CacheStore store;
    cache::CompileCache cc(store);
    hls::SynthesisResult r;
    r.taskName = "task with spaces";
    r.area = ResourceVector(1234.5, 0.125, 3e-7, 42.0, 1.0);
    r.fmaxCeiling = 312.5e6;
    r.fsmStates = 17;
    r.pipelineDepth = 9;
    cache::CacheKey key;
    key.lo = 99;
    cc.putHls(key, r);
    hls::SynthesisResult out;
    ASSERT_TRUE(cc.getHls(key, &out));
    EXPECT_EQ(out.taskName, r.taskName);
    EXPECT_TRUE(out.area == r.area);
    EXPECT_EQ(out.fmaxCeiling, r.fmaxCeiling); // bit-exact, not approx
    EXPECT_EQ(out.fsmStates, r.fsmStates);
    EXPECT_EQ(out.pipelineDepth, r.pipelineDepth);
}

TEST(CompileCache, WarmCompileIsByteIdenticalToColdAndUncached)
{
    TaskGraph g1 = randomDesign(4242, 4, 4);
    TaskGraph g2 = randomDesign(4242, 4, 4);
    TaskGraph g3 = randomDesign(4242, 4, 4);
    Cluster cluster = makePaperTestbed(3);
    CompileOptions opt;
    opt.mode = CompileMode::TapaCs;
    opt.numFpgas = 3;

    const CompileResult uncached = compile(g1, cluster, opt);
    ASSERT_TRUE(uncached.routable) << uncached.failureReason;

    cache::CacheStore store;
    cache::CompileCache cc(store);
    opt.cache = &cc;
    const CompileResult cold = compile(g2, cluster, opt);
    const CompileResult warm = compile(g3, cluster, opt);

    expectResultsIdentical(uncached, cold, "cold vs uncached");
    expectResultsIdentical(cold, warm, "warm vs cold");
    // The warm run was served from the cache: both solver phases hit.
    EXPECT_GT(store.bytesInMemory(), 0u);
}

TEST(CompileCache, SeedOnlyChangesShareLevelTwoDeviceEntries)
{
    // CompileOptions::seed reaches level 1 only. Two compiles that
    // differ in seed alone and land on the same partition must address
    // the same per-device level-2 entries, and the second is served
    // from them.
    Cluster cluster = makePaperTestbed(2);
    cache::CacheStore store;
    cache::CompileCache cc(store);
    CompileOptions opt;
    opt.mode = CompileMode::TapaCs;
    opt.numFpgas = 2;
    opt.cache = &cc;
    TaskGraph g1 = randomDesign(9191, 4, 4);
    TaskGraph g2 = randomDesign(9191, 4, 4);
    const CompileResult first = compile(g1, cluster, opt);
    ASSERT_TRUE(first.routable) << first.failureReason;

    obs::MetricsRegistry::global().resetPrefix("tapacs.cache.");
    opt.seed = 7;
    const CompileResult second = compile(g2, cluster, opt);
    ASSERT_TRUE(second.routable) << second.failureReason;
    ASSERT_EQ(first.partition.deviceOf, second.partition.deviceOf);

    auto l2Keys = [](const CompileResult &r) {
        std::vector<cache::CacheKey> keys;
        for (const cache::Artifact &art : r.signature.artifacts) {
            if (art.tier == cache::kTierL2Device)
                keys.push_back(art.key);
        }
        return keys;
    };
    const std::vector<cache::CacheKey> keys = l2Keys(first);
    EXPECT_EQ(keys.size(), 2u);
    EXPECT_TRUE(keys == l2Keys(second));
    // Only the level-1 entry, which is keyed on the seed, misses.
    EXPECT_EQ(obs::MetricsRegistry::global().snapshot().counterValue(
                  "tapacs.cache.misses"),
              1);
    EXPECT_TRUE(first.placement.slotOf == second.placement.slotOf);
}

TEST(CompileCache, GreedyTierAddressesItsOwnEntries)
{
    // The greedy tier (deadline 0) clears useIlp, which both solver
    // keys fold in, so it never reads a full-tier entry; and it has no
    // clock, so its own entries are cached and hit like any other.
    TaskGraph g = randomDesign(4343, 4, 4);
    Cluster cluster = makePaperTestbed(3);
    CompileOptions opt;
    opt.mode = CompileMode::TapaCs;
    opt.numFpgas = 3;

    cache::CacheStore store;
    cache::CompileCache cc(store);
    opt.cache = &cc;
    const CompileResult full = compile(g, cluster, opt);
    ASSERT_TRUE(full.routable) << full.failureReason;
    EXPECT_EQ(full.cacheHits, 0);

    CompileOptions greedy = opt;
    ASSERT_TRUE(applyDeadline(0.0, &greedy));
    const CompileResult first = compile(g, cluster, greedy);
    const CompileResult second = compile(g, cluster, greedy);
    greedy.cache = nullptr;
    const CompileResult uncached = compile(g, cluster, greedy);
    ASSERT_TRUE(first.routable) << first.failureReason;
    EXPECT_EQ(first.cacheHits, 0); // no full-tier entry is read
    EXPECT_EQ(second.cacheMisses, 0);
    EXPECT_EQ(second.cacheHits, 1 + cluster.numDevices());
    EXPECT_EQ(first.l1SolverStats.nodesExplored, 0);
    EXPECT_EQ(first.l2SolverStats.nodesExplored, 0);
    expectResultsIdentical(first, uncached, "greedy cold vs uncached");
    expectResultsIdentical(second, uncached, "greedy warm vs uncached");
}

TEST(CompileCache, ExpiredCompileReturnsNoDesignAndStoresNothing)
{
    // An expired deadline aborts even over warm entries, and a compile
    // it aborted leaves nothing behind that a later compile could
    // read: the next unhurried compile on the same cache is the cold
    // design.
    TaskGraph g = randomDesign(4344, 4, 4);
    Cluster cluster = makePaperTestbed(3);
    CompileOptions opt;
    opt.mode = CompileMode::TapaCs;
    opt.numFpgas = 3;
    const CompileResult cold = compile(g, cluster, opt);
    ASSERT_TRUE(cold.routable) << cold.failureReason;

    cache::CacheStore store;
    cache::CompileCache cc(store);
    CompileOptions expired = opt;
    expired.cache = &cc;
    expired.ctx = Context::withTimeout(0.0);
    const CompileResult aborted = compile(g, cluster, expired);
    EXPECT_EQ(aborted.status.code(), StatusCode::DeadlineExceeded);
    EXPECT_FALSE(aborted.routable);
    EXPECT_TRUE(aborted.partition.deviceOf.empty());
    EXPECT_TRUE(aborted.signature.empty());

    opt.cache = &cc;
    const CompileResult after = compile(g, cluster, opt);
    expectResultsIdentical(after, cold, "after an aborted compile");

    const CompileResult warm_abort = compile(g, cluster, expired);
    EXPECT_EQ(warm_abort.status.code(), StatusCode::DeadlineExceeded);
    EXPECT_FALSE(warm_abort.routable);
}

TEST(CompileCache, HlsPhaseMemoizesPerTask)
{
    obs::MetricsRegistry::global().resetPrefix("tapacs.cache.");
    Cluster cluster = makePaperTestbed(2);
    CompileOptions opt;
    opt.mode = CompileMode::TapaCs;
    opt.numFpgas = 2;
    cache::CacheStore store;
    cache::CompileCache cc(store);
    opt.cache = &cc;

    // Two programs sharing task IRs: the second compile's phase 2 must
    // be served per-task from the cache.
    TaskGraph g1 = randomDesign(5555, 3, 3);
    std::vector<hls::TaskIr> tasks;
    for (VertexId v = 0; v < g1.numVertices(); ++v) {
        hls::TaskIr t;
        t.name = g1.vertex(v).name;
        t.intAluUnits = 4 + v;
        t.fsmStates = 3;
        tasks.push_back(t);
    }
    const CompileResult r1 = compileProgram(g1, tasks, cluster, opt);
    const std::int64_t misses_after_cold =
        obs::MetricsRegistry::global()
            .snapshot()
            .counterValue("tapacs.cache.misses");

    TaskGraph g2 = randomDesign(5555, 3, 3);
    const CompileResult r2 = compileProgram(g2, tasks, cluster, opt);
    expectResultsIdentical(r1, r2, "recompile");
    for (VertexId v = 0; v < g1.numVertices(); ++v)
        EXPECT_TRUE(g1.vertex(v).area == g2.vertex(v).area);

    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::global().snapshot();
    // Warm run added hits but no new HLS misses.
    EXPECT_EQ(snap.counterValue("tapacs.cache.misses"),
              misses_after_cold);
    EXPECT_GE(snap.counterValue("tapacs.cache.hits"),
              static_cast<std::int64_t>(tasks.size()));
}

TEST(CompileCache, CachedCompileWritesOnlySignatureEntries)
{
    // One exact tier per artifact: every entry a cold compile writes
    // is one its reuse signature binds, and nothing else.
    const std::string dir =
        testing::TempDir() + "/tapacs_cache_signature_test";
    std::filesystem::remove_all(dir);
    cache::CacheStore::Options so;
    so.directory = dir;
    cache::CacheStore store(std::move(so));
    cache::CompileCache cc(store);

    TaskGraph g = randomDesign(7777, 4, 4);
    Cluster cluster = makePaperTestbed(2);
    CompileOptions opt;
    opt.mode = CompileMode::TapaCs;
    opt.numFpgas = 2;
    opt.cache = &cc;
    const CompileResult r = compile(g, cluster, opt);
    ASSERT_TRUE(r.routable) << r.failureReason;

    std::set<std::string> signed_names;
    for (const cache::Artifact &a : r.signature.artifacts)
        signed_names.insert(a.key.hex() + ".tce");
    int written = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        if (e.path().extension() != ".tce")
            continue;
        ++written;
        EXPECT_EQ(signed_names.count(e.path().filename().string()), 1u)
            << e.path() << " is not named by the reuse signature";
    }
    EXPECT_GT(written, 0);
    std::filesystem::remove_all(dir);
}

TEST(CacheConcurrency, SharedCacheBatchMatchesSerialBitExactly)
{
    // Overlapping requests: 3 distinct designs, 4 executions each,
    // interleaved. The serial uncached pass is the reference; the
    // 4-thread pass shares one cache, so most executions are hits —
    // and every result must still be bit-identical.
    constexpr int kDesigns = 3;
    constexpr int kRepeats = 4;
    Cluster cluster = makePaperTestbed(2);
    CompileOptions base;
    base.mode = CompileMode::TapaCs;
    base.numFpgas = 2;

    std::vector<CompileResult> reference(kDesigns);
    for (int d = 0; d < kDesigns; ++d) {
        TaskGraph g = randomDesign(6000 + d, 4, 4);
        reference[d] = compile(g, cluster, base);
        ASSERT_TRUE(reference[d].routable)
            << reference[d].failureReason;
    }

    cache::CacheStore store;
    cache::CompileCache cc(store);
    std::vector<CompileResult> parallel(kDesigns * kRepeats);
    ThreadPool pool(4);
    pool.parallelFor(0, kDesigns * kRepeats, [&](std::int64_t i) {
        TaskGraph g =
            randomDesign(6000 + static_cast<int>(i) % kDesigns, 4, 4);
        CompileOptions opt = base;
        opt.cache = &cc;
        parallel[i] = compile(g, cluster, opt);
    });

    for (std::size_t i = 0; i < parallel.size(); ++i) {
        expectResultsIdentical(reference[i % kDesigns], parallel[i],
                               strprintf("execution %zu", i).c_str());
    }
}

} // namespace
} // namespace tapacs
