/**
 * @file
 * Cross-cutting randomized property tests: invariants that must hold
 * for the *whole flow* on arbitrary well-formed inputs, not just the
 * paper benchmarks.
 */

#include <gtest/gtest.h>

#include <set>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <random>

#include "common/logging.hh"
#include "common/rng.hh"
#include "compile_identity.hh"
#include "compiler/compiler.hh"
#include "explore/pareto.hh"
#include "serve/chaos.hh"
#include "serve/journal.hh"
#include "serve/manifest.hh"
#include "serve/supervisor.hh"
#include "sim/dataflow_sim.hh"

namespace tapacs
{
namespace
{

// randomDesign / expectResultsIdentical come from the shared
// differential helpers (compile_identity.hh).

class FullFlowProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(FullFlowProperty, CompileAndSimulateInvariants)
{
    const int seed = GetParam();
    TaskGraph g = randomDesign(7000 + seed, 3 + seed % 3, 4);
    g.validate();
    const int fpgas = 1 + seed % 4;
    Cluster cluster = makePaperTestbed(fpgas);
    CompileOptions opt;
    opt.mode = fpgas > 1 ? CompileMode::TapaCs : CompileMode::TapaSingle;
    opt.numFpgas = fpgas;
    opt.seed = seed;
    CompileResult r = compile(g, cluster, opt);
    ASSERT_TRUE(r.routable) << "seed " << seed << ": "
                            << r.failureReason;

    // Invariant 1: every task has a device and an in-grid slot.
    const DeviceModel &dev = cluster.device();
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        ASSERT_GE(r.partition.deviceOf[v], 0);
        ASSERT_LT(r.partition.deviceOf[v], fpgas);
        ASSERT_LT(r.placement.slotOf[v].col, dev.cols());
        ASSERT_LT(r.placement.slotOf[v].row, dev.rows());
    }

    // Invariant 2: threshold + channel capacity respected per device.
    EXPECT_TRUE(respectsThreshold(g, cluster, r.partition,
                                  r.reservedPerDevice, opt.threshold));
    std::vector<int> channels(fpgas, 0);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        channels[r.partition.deviceOf[v]] += g.vertex(v).work.memChannels;
    for (int d = 0; d < fpgas; ++d)
        EXPECT_LE(channels[d], dev.memory().channels);

    // Invariant 3: every memory task got exactly its channels.
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        EXPECT_EQ(r.binding.channelsOf[v].size(),
                  static_cast<size_t>(g.vertex(v).work.memChannels));
    }

    // Invariant 4: pipelining is balanced and clock is positive and
    // bounded by the board.
    EXPECT_TRUE(isLatencyBalanced(g, r.partition, r.pipeline));
    EXPECT_GT(r.fmax, 0.0);
    EXPECT_LE(r.fmax, dev.maxFrequency());

    // Invariant 5: the simulation terminates, the makespan covers
    // every task, and cross-device bytes equal the partition cut.
    sim::SimResult run = sim::simulate(g, cluster, r.partition,
                                       r.binding, r.pipeline,
                                       r.deviceFmax);
    EXPECT_GT(run.makespan, 0.0);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        EXPECT_LE(run.taskFinish[v], run.makespan + 1e-12);
    EXPECT_NEAR(run.interDeviceBytes,
                interFpgaTrafficBytes(g, r.partition),
                interFpgaTrafficBytes(g, r.partition) * 0.01 + 1.0);
}

INSTANTIATE_TEST_SUITE_P(RandomDesigns, FullFlowProperty,
                         ::testing::Range(0, 12));

TEST(FullFlowDeterminism, SameSeedSameResult)
{
    // Two copies of one design, compiled and simulated separately.
    // On 4 FPGAs the copies compile with 1 and 4 worker threads: a
    // thread count must not change the partition, clock or makespan.
    struct Input
    {
        int fpgas, threadsA, threadsB;
    };
    for (const Input in : {Input{3, 0, 0}, Input{4, 1, 4}}) {
        SCOPED_TRACE(strprintf("F%d", in.fpgas));
        TaskGraph g1 = randomDesign(99, 4, 4);
        TaskGraph g2 = randomDesign(99, 4, 4);
        Cluster cluster = makePaperTestbed(in.fpgas);
        CompileOptions opt;
        opt.mode = CompileMode::TapaCs;
        opt.numFpgas = in.fpgas;
        opt.numThreads = in.threadsA;
        CompileResult a = compile(g1, cluster, opt);
        opt.numThreads = in.threadsB;
        CompileResult b = compile(g2, cluster, opt);
        ASSERT_TRUE(a.routable && b.routable);
        EXPECT_EQ(a.partition.deviceOf, b.partition.deviceOf);
        EXPECT_DOUBLE_EQ(a.fmax, b.fmax);
        sim::SimResult ra = sim::simulate(g1, cluster, a.partition,
                                          a.binding, a.pipeline,
                                          a.deviceFmax);
        sim::SimResult rb = sim::simulate(g2, cluster, b.partition,
                                          b.binding, b.pipeline,
                                          b.deviceFmax);
        EXPECT_DOUBLE_EQ(ra.makespan, rb.makespan);
    }
}

class EditChainProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(EditChainProperty, IncrementalChainMatchesOneColdCompile)
{
    // The edit-compile loop as a property: start from a random
    // design, apply a chain of k seeded single-task edits, and
    // recompile incrementally at every step (each step's result is
    // the next step's prior). The invariant is history-freedom — the
    // final incremental result equals ONE cold compile of the final
    // graph, no matter which intermediate states the loop passed
    // through or how many threads each step used.
    const int seed = GetParam();
    Rng rng(83000 + seed);
    const int fpgas = 2 + seed % 2;
    Cluster cluster = makePaperTestbed(fpgas);
    CompileOptions opt;
    opt.mode = CompileMode::TapaCs;
    opt.numFpgas = fpgas;

    TaskGraph g = randomDesign(71000 + seed, 3, 3);
    CompileResult state = compile(g, cluster, opt);
    ASSERT_TRUE(state.routable) << state.failureReason;

    const int k = 1 + seed % 3;
    for (int step = 0; step < k; ++step) {
        const GraphEdit kind = static_cast<GraphEdit>(
            rng.uniformInt(0, 5));
        g = applyEdit(g, kind, 5000 + seed * 7 + step);
        // Alternate serial / 4-thread across steps: thread counts are
        // outside every cache key, so they must not perturb the chain.
        CompileOptions step_opt = opt;
        step_opt.numThreads = step % 2 == 0 ? 1 : 4;
        CompileResult next = recompile(state, g, cluster, step_opt);
        ASSERT_TRUE(next.routable)
            << "seed " << seed << " step " << step << " ("
            << toString(kind) << "): " << next.failureReason;
        EXPECT_TRUE(next.delta.attempted);
        state = std::move(next);
    }

    const CompileResult cold = compile(g, cluster, opt);
    expectResultsIdentical(
        cold, state,
        strprintf("seed %d after %d edits", seed, k).c_str());
}

// 200 cases: the differential that proves incremental recompilation
// is history-free over arbitrary edit sequences.
INSTANTIATE_TEST_SUITE_P(RandomEditChains, EditChainProperty,
                         ::testing::Range(0, 200));

/**
 * Random pipeline over a random topology, simulated directly (no
 * compile): every task is hand-placed so the simulator sees a
 * controlled mix of same-device, same-node and cross-node FIFOs.
 */
struct RandomChainCase
{
    TaskGraph g{"p"};
    Cluster cluster;
    DevicePartition part;
    std::vector<EdgeId> edges;
    int blocks = 0;

    explicit RandomChainCase(std::uint64_t seed) : cluster(makePaperTestbed(2))
    {
        Rng rng(seed);
        // 8 exercises the cross-node (host-staged) transfer path.
        const int sizes[] = {2, 3, 4, 8};
        const int fpgas = sizes[rng.uniformInt(0, 3)];
        cluster = makePaperTestbed(fpgas);
        blocks = 2 << rng.uniformInt(0, 3);
        const int tasks = 3 + static_cast<int>(rng.uniformInt(0, 5));
        VertexId prev = -1;
        for (int i = 0; i < tasks; ++i) {
            WorkProfile w;
            w.computeOps = rng.uniformReal(1e5, 3e7);
            w.opsPerCycle = 1.0;
            w.numBlocks = blocks;
            Vertex v;
            v.name = strprintf("t%d", i);
            v.work = w;
            const VertexId id = g.addVertex(v);
            part.deviceOf.push_back(
                static_cast<DeviceId>(rng.uniformInt(0, fpgas - 1)));
            if (prev >= 0) {
                edges.push_back(g.addEdge(prev, id, 64,
                                          rng.uniformReal(1e4, 1e6)));
            }
            prev = id;
        }
    }

    sim::SimResult
    run()
    {
        HbmBinding binding;
        binding.channelsOf.assign(g.numVertices(), {});
        binding.usersPerChannel.assign(
            cluster.numDevices(),
            std::vector<int>(cluster.device().memory().channels, 0));
        PipelinePlan plan;
        plan.edges.assign(g.numEdges(), EdgePipelining{});
        plan.addedAreaPerDevice.assign(cluster.numDevices(),
                                       ResourceVector{});
        std::vector<Hertz> fmax(cluster.numDevices(), 300.0e6);
        sim::SimOptions opt;
        opt.exportMetrics = false;
        return sim::simulate(g, cluster, part, binding, plan, fmax, opt);
    }
};

class ChainTransferProperty : public ::testing::TestWithParam<int>
{
};

/**
 * Property: on 200 random chains over 2, 3, 4 and 8 paper-testbed
 * FPGAs, every task fires all its blocks, every device-crossing FIFO
 * carries its whole payload exactly once (bytes and transfer counts
 * both add up), and an identical seed replays to the bit.
 */
TEST_P(ChainTransferProperty, CrossingTokensArriveOnceAndReplay)
{
    const int seed = GetParam();
    RandomChainCase c(5000 + seed);
    RandomChainCase c2(5000 + seed);
    const sim::SimResult r1 = c.run();
    const sim::SimResult r2 = c2.run();

    ASSERT_TRUE(r1.completed) << "seed " << seed;
    for (VertexId v = 0; v < c.g.numVertices(); ++v)
        EXPECT_EQ(r1.firedBlocks[v], c.blocks);

    double crossing_bytes = 0.0;
    int crossing = 0;
    for (EdgeId e : c.edges) {
        const Edge &edge = c.g.edge(e);
        if (c.part.deviceOf[edge.src] != c.part.deviceOf[edge.dst]) {
            crossing_bytes += edge.totalBytes;
            ++crossing;
        }
    }
    EXPECT_DOUBLE_EQ(r1.interDeviceBytes, crossing_bytes);
    EXPECT_DOUBLE_EQ(r1.stats.get("net.intra.transfers") +
                         r1.stats.get("net.inter.transfers"),
                     static_cast<double>(c.blocks) * crossing);

    // Bit-identical replay of the same seed.
    EXPECT_EQ(r1.makespan, r2.makespan);
    EXPECT_EQ(r1.taskFinish, r2.taskFinish);
    EXPECT_EQ(r1.interDeviceBytes, r2.interDeviceBytes);
    EXPECT_EQ(r1.stats.dump(), r2.stats.dump());
}

INSTANTIATE_TEST_SUITE_P(RandomChains, ChainTransferProperty,
                         ::testing::Range(0, 200));

// ---------------------------------------------------------------
// Pareto-frontier invariants (explore/pareto), on random objective
// sets with random eligibility masks. 200 seeded cases.

class ParetoFrontierProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(ParetoFrontierProperty, FrontierIsSoundCompleteAndOrderFree)
{
    const int seed = GetParam();
    Rng rng(0x9a4e7001u + static_cast<std::uint64_t>(seed));
    const std::size_t n = 1 + rng.uniformInt(0, 63);
    std::vector<explore::Objectives> pts(n);
    std::vector<char> eligible(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        // Coarse values on purpose: collisions exercise the tie
        // rules (equal points dominate in neither direction).
        pts[i].fmax = 1.0e8 * static_cast<double>(
                                  rng.uniformInt(1, 4));
        pts[i].utilization =
            0.1 * static_cast<double>(rng.uniformInt(1, 9));
        pts[i].latency =
            0.5 * static_cast<double>(rng.uniformInt(1, 8));
        eligible[i] = rng.bernoulli(0.8) ? 1 : 0;
    }

    const std::vector<std::size_t> frontier =
        explore::paretoFrontier(pts, eligible);

    // Soundness: frontier points are eligible and no frontier point
    // dominates another.
    for (std::size_t a : frontier) {
        ASSERT_TRUE(eligible[a]) << "seed " << seed;
        for (std::size_t b : frontier)
            EXPECT_FALSE(explore::dominates(pts[a], pts[b]))
                << "seed " << seed << ": frontier point " << a
                << " dominates frontier point " << b;
    }

    // Completeness: every eligible point off the frontier is
    // dominated by some point *on* it (dominance is a strict partial
    // order, so transitivity guarantees a frontier witness).
    std::vector<char> onFrontier(n, 0);
    for (std::size_t idx : frontier)
        onFrontier[idx] = 1;
    for (std::size_t i = 0; i < n; ++i) {
        if (!eligible[i] || onFrontier[i])
            continue;
        bool witnessed = false;
        for (std::size_t idx : frontier) {
            if (explore::dominates(pts[idx], pts[i])) {
                witnessed = true;
                break;
            }
        }
        EXPECT_TRUE(witnessed)
            << "seed " << seed << ": dominated point " << i
            << " has no frontier witness";
    }

    // Order invariance: evaluating the same points in a shuffled
    // order must select the same set (mapped back to original
    // indices).
    std::vector<std::size_t> perm(n);
    for (std::size_t i = 0; i < n; ++i)
        perm[i] = i;
    std::shuffle(perm.begin(), perm.end(), rng);
    std::vector<explore::Objectives> shuffled(n);
    std::vector<char> shuffledEligible(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        shuffled[i] = pts[perm[i]];
        shuffledEligible[i] = eligible[perm[i]];
    }
    std::vector<std::size_t> mappedBack;
    for (std::size_t idx :
         explore::paretoFrontier(shuffled, shuffledEligible))
        mappedBack.push_back(perm[idx]);
    std::sort(mappedBack.begin(), mappedBack.end());
    EXPECT_EQ(mappedBack, frontier) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(RandomObjectiveSets, ParetoFrontierProperty,
                         ::testing::Range(0, 200));

// ------------------------------------------------ fleet chaos property

/**
 * The fleet's exactly-once contract under seeded chaos: whatever the
 * fault plan does to the workers (kill at request receipt, hang
 * silently past the heartbeat timeout, stall, delay the wire), every
 * submitted request must resolve exactly once with a typed outcome,
 * and every completed result must be bit-identical (resultDigest) to
 * the fault-free run. 200 seeds; worker processes are the built
 * tapacs-serve binary via $TAPACS_WORKER_EXE (skip without it).
 */
class FleetChaosProperty : public ::testing::TestWithParam<int>
{
  protected:
    static std::string
    workerExe()
    {
        const char *env = std::getenv("TAPACS_WORKER_EXE");
        if (env == nullptr || *env == '\0' ||
            !std::filesystem::exists(env))
            return "";
        return env;
    }

    static std::vector<serve::Request>
    requests()
    {
        const serve::ParsedManifest manifest = serve::parseManifest(
            "request chaos-s workload=stencil fpgas=2 mode=tapacs\n"
            "request chaos-p workload=pagerank fpgas=2 mode=tapacs\n"
            "request chaos-k workload=knn fpgas=2 mode=tapacs\n");
        EXPECT_EQ(manifest.requests.size(), 3u);
        return manifest.requests;
    }

    static serve::FleetOptions
    baseOptions(const std::string &caseDir)
    {
        serve::FleetOptions opt;
        opt.workers = 2;
        opt.workerExe = workerExe();
        // One disk cache across all 200 cases: retried dispatches and
        // later seeds reuse published artifacts, exactly like a
        // long-lived fleet.
        opt.cacheDir = testing::TempDir() + "/fleet_chaos_cache";
        opt.journalPath = caseDir + "/journal.bin";
        opt.heartbeatTimeoutSeconds = 0.25;
        return opt;
    }

    static std::vector<std::uint64_t>
    runCase(serve::FleetOptions opt)
    {
        serve::Supervisor supervisor(std::move(opt));
        EXPECT_TRUE(supervisor.start().ok());
        for (const serve::Request &req : requests())
            EXPECT_TRUE(supervisor.submit(req).ok());
        supervisor.drain();
        const std::vector<serve::FleetOutcome> outcomes =
            supervisor.finish();
        EXPECT_EQ(outcomes.size(), 3u);
        std::vector<std::uint64_t> digests;
        std::set<std::uint64_t> ids;
        for (const serve::FleetOutcome &f : outcomes) {
            ids.insert(f.id);
            EXPECT_TRUE(f.outcome.status.ok())
                << f.outcome.failureReason;
            digests.push_back(f.outcome.resultDigest);
        }
        // Exactly once: every admission has exactly one outcome.
        EXPECT_EQ(ids.size(), outcomes.size());
        return digests;
    }

    /** Fault-free digests, computed once and shared by every seed. */
    static const std::vector<std::uint64_t> &
    baseline()
    {
        static const std::vector<std::uint64_t> digests = [] {
            const std::string dir =
                testing::TempDir() + "/fleet_chaos_baseline";
            std::filesystem::remove_all(dir);
            std::filesystem::create_directories(dir);
            return runCase(baseOptions(dir));
        }();
        return digests;
    }
};

TEST_P(FleetChaosProperty, EveryRequestResolvesOnceBitIdentically)
{
    if (workerExe().empty())
        GTEST_SKIP() << "TAPACS_WORKER_EXE not set";
    const int seed = GetParam();
    const std::string dir = testing::TempDir() +
                            strprintf("/fleet_chaos_%d", seed);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    serve::FleetOptions opt = baseOptions(dir);
    opt.chaos = serve::randomPlan(9000 + seed, opt.workers, 3);
    const std::vector<std::uint64_t> digests = runCase(std::move(opt));

    ASSERT_EQ(baseline().size(), digests.size());
    for (std::size_t i = 0; i < digests.size(); ++i)
        EXPECT_EQ(digests[i], baseline()[i])
            << "seed " << seed << " request " << i
            << ": a crash-retried compile diverged";

    // Exactly-once is durable too: with everything resolved, the
    // compacted journal must be empty.
    EXPECT_EQ(serve::RequestJournal::scan(dir + "/journal.bin")
                  .records.size(),
              0u);
}

INSTANTIATE_TEST_SUITE_P(SeededKillAndReplayPlans, FleetChaosProperty,
                         ::testing::Range(0, 200));

TEST(FullFlowMonotonicity, MoreFpgasNeverHurtFrequency)
{
    // Spreading the same design over more devices cannot make the
    // worst-congested device worse (it can only relieve pressure).
    TaskGraph g = randomDesign(123, 4, 5);
    Hertz prev = 0.0;
    for (int f : {1, 2, 4}) {
        Cluster cluster = makePaperTestbed(f);
        CompileOptions opt;
        opt.mode = f > 1 ? CompileMode::TapaCs : CompileMode::TapaSingle;
        opt.numFpgas = f;
        CompileResult r = compile(g, cluster, opt);
        ASSERT_TRUE(r.routable);
        EXPECT_GE(r.fmax, prev * 0.85) << f << " FPGAs"; // modest slack
        prev = std::max(prev, r.fmax);
    }
}

} // namespace
} // namespace tapacs
