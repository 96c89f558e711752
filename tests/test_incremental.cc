/**
 * @file
 * Differential mutation harness for incremental recompilation.
 *
 * The contract under test: recompile(prior, g') is bit-identical to a
 * cold compile of g', for every seeded single-task edit a real
 * edit-compile loop makes (area tweak, latency tweak, rename, FIFO
 * retarget, task add/remove), across both level-1 backends,
 * replication on and off, and any thread count — incremental reuse is
 * purely content-addressed, so it can accelerate but never change the
 * answer. The negative paths are typed, not silent: a prior with no
 * signature, a schema mismatch, an edit that dirties every
 * subgraph, and a serve-session `base=` that was never retained all
 * degrade to a cold compile with a "incremental: ..." reason in
 * CompileResult::degradedReason (degraded itself stays false — the
 * result is not worse, only less reused).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/cnn.hh"
#include "apps/knn.hh"
#include "apps/pagerank.hh"
#include "apps/stencil.hh"
#include "cache/delta.hh"
#include "common/logging.hh"
#include "compile_identity.hh"
#include "compiler/compiler.hh"
#include "network/cluster.hh"
#include "serve/supervisor.hh"

namespace tapacs
{
namespace
{

CompileOptions
baseOptions(int fpgas, L1Backend backend, bool replicate)
{
    CompileOptions opt;
    opt.mode = CompileMode::TapaCs;
    opt.numFpgas = fpgas;
    opt.inter.backend = backend;
    opt.inter.replicate = replicate;
    return opt;
}

/** Align a workload's task IRs with an edited graph: renames follow
 *  the vertex, IRs whose vertex was removed are dropped (every
 *  synthesized task must still have a vertex). */
std::vector<hls::TaskIr>
alignTasks(const std::vector<hls::TaskIr> &tasks, const TaskGraph &g,
           const std::pair<std::string, std::string> &renamed)
{
    std::vector<hls::TaskIr> out;
    for (hls::TaskIr t : tasks) {
        if (t.name == renamed.first)
            t.name = renamed.second;
        if (g.findVertex(t.name) >= 0)
            out.push_back(std::move(t));
    }
    return out;
}

TEST(IncrementalDifferential, EverySingleEditBitIdenticalOnSynthGraphs)
{
    // 12 cases: each of the six edit kinds under both level-1
    // backends, replication toggling across cases. The reference is
    // always a cold compile of the edited graph with the same
    // options; the incremental result must match it field-for-field.
    for (int c = 0; c < 12; ++c) {
        const GraphEdit kind = static_cast<GraphEdit>(c % 6);
        const L1Backend backend =
            (c / 6) % 2 == 0 ? L1Backend::Exact : L1Backend::Multilevel;
        const bool replicate = c % 4 == 1;
        const int fpgas = 2 + c % 2;
        Cluster cluster = makePaperTestbed(fpgas);
        CompileOptions opt = baseOptions(fpgas, backend, replicate);
        const std::string what =
            strprintf("case %d: %s %s%s", c, toString(kind),
                      backend == L1Backend::Exact ? "exact"
                                                  : "multilevel",
                      replicate ? " +replicate" : "");

        TaskGraph g0 = randomDesign(52000 + c, 3 + c % 3, 4);
        const CompileResult prior = compile(g0, cluster, opt);
        ASSERT_TRUE(prior.routable) << what << ": "
                                    << prior.failureReason;
        ASSERT_FALSE(prior.signature.empty()) << what;

        TaskGraph g1 = applyEdit(g0, kind, 910 + c);
        const CompileResult cold = compile(g1, cluster, opt);
        const CompileResult inc = recompile(prior, g1, cluster, opt);
        expectResultsIdentical(cold, inc, what.c_str());
        EXPECT_TRUE(inc.delta.attempted) << what;
        EXPECT_FALSE(cold.delta.attempted) << what;
    }
}

TEST(IncrementalDifferential, TimingOnlyEditReusesEntireFloorplan)
{
    // computeOps feeds pipelining/timing, not the floorplanners: the
    // solver fingerprint is unchanged, so the L1 solution and every
    // device's L2 solution must come back from the prior.
    Cluster cluster = makePaperTestbed(3);
    CompileOptions opt = baseOptions(3, L1Backend::Exact, false);
    TaskGraph g0 = randomDesign(61000, 4, 4);
    const CompileResult prior = compile(g0, cluster, opt);
    ASSERT_TRUE(prior.routable) << prior.failureReason;

    TaskGraph g1 = applyEdit(g0, GraphEdit::LatencyTweak, 17);
    const CompileResult cold = compile(g1, cluster, opt);
    const CompileResult inc = recompile(prior, g1, cluster, opt);
    expectResultsIdentical(cold, inc, "latency tweak");
    EXPECT_TRUE(inc.delta.l1Reused);
    EXPECT_GT(inc.delta.devicesTotal, 0);
    EXPECT_EQ(inc.delta.devicesReused, inc.delta.devicesTotal);
    EXPECT_TRUE(inc.degradedReason.empty()) << inc.degradedReason;
}

TEST(IncrementalDifferential, RenameReusesEverySolverArtifact)
{
    // Names are labels, not content: both fingerprints ignore them,
    // so a pure rename reuses the whole floorplan too.
    Cluster cluster = makePaperTestbed(2);
    CompileOptions opt = baseOptions(2, L1Backend::Exact, false);
    TaskGraph g0 = randomDesign(62000, 4, 4);
    const CompileResult prior = compile(g0, cluster, opt);
    ASSERT_TRUE(prior.routable) << prior.failureReason;

    TaskGraph g1 = applyEdit(g0, GraphEdit::Rename, 23);
    const CompileResult cold = compile(g1, cluster, opt);
    const CompileResult inc = recompile(prior, g1, cluster, opt);
    expectResultsIdentical(cold, inc, "rename");
    EXPECT_TRUE(inc.delta.l1Reused);
    EXPECT_EQ(inc.delta.devicesReused, inc.delta.devicesTotal);
}

TEST(IncrementalDifferential, PaperWorkloadsSingleEditBitIdentical)
{
    // The four paper applications at small scaled configs, each under
    // a different edit kind, through the full compileProgram path
    // (HLS memoization participates in the signature here).
    struct Case
    {
        const char *name;
        GraphEdit kind;
        apps::AppDesign (*build)();
    };
    const Case cases[] = {
        {"stencil", GraphEdit::LatencyTweak,
         [] { return apps::buildStencil(apps::StencilConfig::scaled(64, 2)); }},
        {"pagerank", GraphEdit::AreaTweak,
         [] {
             return apps::buildPageRank(apps::PageRankConfig::scaled(
                 apps::pagerankDatasets()[0], 2));
         }},
        {"knn", GraphEdit::Rename,
         [] {
             return apps::buildKnn(
                 apps::KnnConfig::scaled(1'000'000, 2, 2));
         }},
        {"cnn", GraphEdit::RemoveTask,
         [] {
             apps::CnnConfig c;
             c.rows = 4;
             c.cols = 4;
             c.numFpgas = 2;
             c.batch = 4;
             c.numBlocks = 8;
             return apps::buildCnn(c);
         }},
    };
    for (const Case &cs : cases) {
        Cluster cluster = makePaperTestbed(2);
        CompileOptions opt = baseOptions(2, L1Backend::Exact, false);

        apps::AppDesign d0 = cs.build();
        const CompileResult prior =
            compileProgram(d0.graph, d0.tasks, cluster, opt);
        ASSERT_TRUE(prior.routable)
            << cs.name << ": " << prior.failureReason;
        ASSERT_FALSE(prior.signature.empty()) << cs.name;

        // Cold reference and incremental run get independent copies
        // of the same edited design (compileProgram mutates areas).
        apps::AppDesign d1 = cs.build();
        std::pair<std::string, std::string> ren;
        TaskGraph e1 = applyEdit(d1.graph, cs.kind, 4004, &ren);
        const std::vector<hls::TaskIr> t1 =
            alignTasks(d1.tasks, e1, ren);
        const CompileResult cold =
            compileProgram(e1, t1, cluster, opt);

        apps::AppDesign d2 = cs.build();
        std::pair<std::string, std::string> ren2;
        TaskGraph e2 = applyEdit(d2.graph, cs.kind, 4004, &ren2);
        std::vector<hls::TaskIr> t2 = alignTasks(d2.tasks, e2, ren2);
        const CompileResult inc =
            recompileProgram(prior, e2, t2, cluster, opt);

        expectResultsIdentical(cold, inc, cs.name);
        EXPECT_TRUE(inc.delta.attempted) << cs.name;
        EXPECT_GT(inc.delta.hlsTotal, 0) << cs.name;
        if (cs.kind == GraphEdit::LatencyTweak) {
            // Timing-only edit: every solver artifact reuses; the
            // task IRs are untouched so HLS fully reuses too.
            EXPECT_EQ(inc.delta.hlsReused, inc.delta.hlsTotal)
                << cs.name;
            EXPECT_TRUE(inc.delta.l1Reused) << cs.name;
            EXPECT_EQ(inc.delta.devicesReused, inc.delta.devicesTotal)
                << cs.name;
        }
    }
}

TEST(IncrementalDifferential, SerialAndThreadedRecompilesMatchCold)
{
    // Thread counts are excluded from every cache key and results are
    // thread-count-invariant, so serial and 4-thread incremental
    // recompiles must both reproduce the cold reference exactly.
    Cluster cluster = makePaperTestbed(3);
    CompileOptions opt = baseOptions(3, L1Backend::Exact, false);
    TaskGraph g0 = randomDesign(63000, 4, 4);
    const CompileResult prior = compile(g0, cluster, opt);
    ASSERT_TRUE(prior.routable) << prior.failureReason;

    TaskGraph g1 = applyEdit(g0, GraphEdit::AreaTweak, 31);
    const CompileResult cold = compile(g1, cluster, opt);

    CompileOptions serial = opt;
    serial.numThreads = 1;
    const CompileResult inc1 = recompile(prior, g1, cluster, serial);
    expectResultsIdentical(cold, inc1, "serial recompile");

    CompileOptions wide = opt;
    wide.numThreads = 4;
    const CompileResult inc4 = recompile(prior, g1, cluster, wide);
    expectResultsIdentical(cold, inc4, "4-thread recompile");
}

TEST(IncrementalFallback, EmptyPriorDegradesToTypedColdCompile)
{
    Cluster cluster = makePaperTestbed(2);
    CompileOptions opt = baseOptions(2, L1Backend::Exact, false);
    TaskGraph g = randomDesign(64000, 3, 4);
    const CompileResult cold = compile(g, cluster, opt);

    const CompileResult prior; // never compiled: no signature
    const CompileResult inc = recompile(prior, g, cluster, opt);
    expectResultsIdentical(cold, inc, "empty prior");
    EXPECT_FALSE(inc.degraded);
    EXPECT_NE(inc.degradedReason.find(
                  "incremental: prior result carries no reuse "
                  "signature"),
              std::string::npos)
        << inc.degradedReason;
    EXPECT_TRUE(inc.delta.attempted);
    EXPECT_FALSE(inc.delta.l1Reused);
}

TEST(IncrementalFallback, SchemaMismatchDegradesToTypedColdCompile)
{
    Cluster cluster = makePaperTestbed(2);
    CompileOptions opt = baseOptions(2, L1Backend::Exact, false);
    TaskGraph g = randomDesign(64100, 3, 4);
    CompileResult prior = compile(g, cluster, opt);
    ASSERT_FALSE(prior.signature.empty());
    prior.signature.schemaVersion += 1; // a future build's state file

    const CompileResult cold = compile(g, cluster, opt);
    const CompileResult inc = recompile(prior, g, cluster, opt);
    expectResultsIdentical(cold, inc, "schema mismatch");
    EXPECT_FALSE(inc.degraded);
    EXPECT_NE(inc.degradedReason.find("cache schema"),
              std::string::npos)
        << inc.degradedReason;
    EXPECT_FALSE(inc.delta.l1Reused);
}

TEST(IncrementalFallback, BackendSwitchStillReusesLevelTwo)
{
    // A prior solved with the exact engine seeds a multilevel request.
    // The L1 key folds the backend, so level 1 re-solves; this small
    // graph is delegated to the exact engine wholesale, so the same
    // partition comes back and every device's level-2 entry is reused.
    Cluster cluster = makePaperTestbed(2);
    TaskGraph g = randomDesign(64200, 3, 4);
    const CompileResult prior =
        compile(g, cluster, baseOptions(2, L1Backend::Exact, false));
    ASSERT_FALSE(prior.signature.empty());

    CompileOptions ml = baseOptions(2, L1Backend::Multilevel, false);
    const CompileResult cold = compile(g, cluster, ml);
    const CompileResult inc = recompile(prior, g, cluster, ml);
    expectResultsIdentical(cold, inc, "backend switch");
    EXPECT_FALSE(inc.degraded);
    EXPECT_TRUE(inc.degradedReason.empty()) << inc.degradedReason;
    EXPECT_FALSE(inc.delta.l1Reused);
    EXPECT_GT(inc.delta.devicesReused, 0);
}

TEST(IncrementalFallback, AllDirtyEditDegradesToTypedColdCompile)
{
    // Touch every task: no subgraph survives, nothing can reuse, and
    // the recompile reports it as a typed cold fallback.
    Cluster cluster = makePaperTestbed(2);
    CompileOptions opt = baseOptions(2, L1Backend::Exact, false);
    TaskGraph g0 = randomDesign(64300, 3, 4);
    const CompileResult prior = compile(g0, cluster, opt);
    ASSERT_TRUE(prior.routable) << prior.failureReason;

    TaskGraph g1 = g0;
    for (VertexId v = 0; v < g1.numVertices(); ++v)
        g1.vertex(v).area[ResourceKind::Lut] += 128.0;
    const CompileResult cold = compile(g1, cluster, opt);
    const CompileResult inc = recompile(prior, g1, cluster, opt);
    expectResultsIdentical(cold, inc, "all-dirty edit");
    EXPECT_FALSE(inc.degraded);
    EXPECT_NE(inc.degradedReason.find(
                  "edit invalidated every subgraph"),
              std::string::npos)
        << inc.degradedReason;
    EXPECT_TRUE(inc.delta.attempted);
    EXPECT_FALSE(inc.delta.l1Reused);
    EXPECT_EQ(inc.delta.devicesReused, 0);
}

/** An in-process serving core with @p workers slot threads. */
serve::FleetOptions
inProcess(int workers)
{
    serve::FleetOptions opt;
    opt.inProcess = true;
    opt.workers = workers;
    return opt;
}

std::vector<serve::ServeOutcome>
finishOutcomes(serve::Supervisor &supervisor)
{
    std::vector<serve::ServeOutcome> outcomes;
    for (serve::FleetOutcome &f : supervisor.finish())
        outcomes.push_back(std::move(f.outcome));
    return outcomes;
}

TEST(IncrementalServe, RetainedBaseFeedsIncrementalRequest)
{
    // The serving shape of the edit loop: a named request's routable
    // result is retained in-session; a later incremental= request
    // recompiles against it and reports its delta.
    serve::Supervisor supervisor(inProcess(2));
    ASSERT_TRUE(supervisor.start().ok());

    serve::Request base;
    base.name = "base";
    base.workload = "stencil";
    base.fpgas = 2;
    ASSERT_TRUE(supervisor.submit(base).ok());
    supervisor.drain(); // strictly sequential, like --replay

    serve::Request edit;
    edit.name = "edit";
    edit.workload = "stencil";
    edit.fpgas = 2;
    edit.incremental = true;
    edit.base = "base";
    ASSERT_TRUE(supervisor.submit(edit).ok());

    const std::vector<serve::ServeOutcome> outcomes =
        finishOutcomes(supervisor);
    ASSERT_EQ(outcomes.size(), 2u);
    const serve::ServeOutcome &b = outcomes[0];
    const serve::ServeOutcome &e = outcomes[1];
    ASSERT_TRUE(b.status.ok()) << b.status.message();
    ASSERT_TRUE(e.status.ok()) << e.status.message();
    EXPECT_TRUE(b.routable);
    EXPECT_TRUE(e.routable);
    // Identical workload at identical options: the incremental run
    // reproduces the base bit-for-bit and reports full reuse.
    EXPECT_EQ(e.fmax, b.fmax);
    EXPECT_EQ(e.cutTrafficBytes, b.cutTrafficBytes);
    EXPECT_FALSE(e.deltaSummary.empty());
    EXPECT_EQ(e.deltaSummary.find("cold compile"), std::string::npos)
        << e.deltaSummary;
    EXPECT_EQ(e.degradedReason.find("not retained"), std::string::npos)
        << e.degradedReason;
}

TEST(IncrementalServe, StaleBaseDegradesToTypedColdCompile)
{
    // base= naming a request that never ran (or was evicted) is the
    // serve-session analogue of a missing state file: typed note,
    // cold compile, same answer.
    serve::Supervisor supervisor(inProcess(1));
    ASSERT_TRUE(supervisor.start().ok());

    serve::Request cold;
    cold.name = "cold";
    cold.workload = "stencil";
    cold.fpgas = 2;
    ASSERT_TRUE(supervisor.submit(cold).ok());

    serve::Request orphan;
    orphan.name = "orphan";
    orphan.workload = "stencil";
    orphan.fpgas = 2;
    orphan.incremental = true;
    orphan.base = "never-ran";
    ASSERT_TRUE(supervisor.submit(orphan).ok());

    const std::vector<serve::ServeOutcome> outcomes =
        finishOutcomes(supervisor);
    ASSERT_EQ(outcomes.size(), 2u);
    const serve::ServeOutcome &c = outcomes[0];
    const serve::ServeOutcome &o = outcomes[1];
    ASSERT_TRUE(o.status.ok()) << o.status.message();
    EXPECT_TRUE(o.routable);
    EXPECT_EQ(o.fmax, c.fmax);
    EXPECT_EQ(o.cutTrafficBytes, c.cutTrafficBytes);
    EXPECT_FALSE(o.degraded);
    EXPECT_NE(o.degradedReason.find("base 'never-ran' not retained"),
              std::string::npos)
        << o.degradedReason;
}

TEST(IncrementalServe, RetentionDisabledDegradesEveryIncremental)
{
    // retainResults=0 turns retention off entirely: even a base that
    // ran successfully is not held, so incremental requests always
    // take the typed cold path — and still produce the same result.
    serve::FleetOptions opt = inProcess(1);
    opt.retainResults = 0;
    serve::Supervisor supervisor(opt);
    ASSERT_TRUE(supervisor.start().ok());

    serve::Request base;
    base.name = "base";
    base.workload = "stencil";
    base.fpgas = 2;
    ASSERT_TRUE(supervisor.submit(base).ok());
    supervisor.drain();

    serve::Request edit;
    edit.name = "edit";
    edit.workload = "stencil";
    edit.fpgas = 2;
    edit.incremental = true;
    edit.base = "base";
    ASSERT_TRUE(supervisor.submit(edit).ok());

    const std::vector<serve::ServeOutcome> outcomes =
        finishOutcomes(supervisor);
    ASSERT_EQ(outcomes.size(), 2u);
    const serve::ServeOutcome &e = outcomes[1];
    ASSERT_TRUE(e.status.ok()) << e.status.message();
    EXPECT_TRUE(e.routable);
    EXPECT_EQ(e.fmax, outcomes[0].fmax);
    EXPECT_NE(e.degradedReason.find("base 'base' not retained"),
              std::string::npos)
        << e.degradedReason;
}

TEST(IncrementalState, SignatureRoundTripsAndRejectsGarbage)
{
    // The `tapacs-compile --state` file format: serialize, parse,
    // recompile from the parsed signature — still bit-identical; any
    // malformed byte stream is a total parse failure, never a crash.
    Cluster cluster = makePaperTestbed(2);
    CompileOptions opt = baseOptions(2, L1Backend::Exact, false);
    TaskGraph g0 = randomDesign(65000, 3, 4);
    const CompileResult prior = compile(g0, cluster, opt);
    ASSERT_FALSE(prior.signature.empty());

    const std::string bytes =
        cache::serializeSignature(prior.signature);
    CompileResult restored;
    ASSERT_TRUE(cache::parseSignature(bytes, &restored.signature));
    ASSERT_EQ(restored.signature.artifacts.size(),
              prior.signature.artifacts.size());

    TaskGraph g1 = applyEdit(g0, GraphEdit::LatencyTweak, 41);
    const CompileResult cold = compile(g1, cluster, opt);
    const CompileResult inc = recompile(restored, g1, cluster, opt);
    expectResultsIdentical(cold, inc, "state-file round trip");
    EXPECT_TRUE(inc.delta.l1Reused);

    cache::CompileSignature sig;
    EXPECT_FALSE(cache::parseSignature("", &sig));
    EXPECT_FALSE(cache::parseSignature("garbage", &sig));
    EXPECT_FALSE(
        cache::parseSignature(bytes.substr(0, bytes.size() / 2), &sig));
    // A corrupt artifact count fails the parse instead of sizing a
    // huge allocation.
    EXPECT_FALSE(cache::parseSignature("tapacs-sig3 5 100000000000000",
                                       &sig));
    // A state file from before the backend field was dropped is
    // rejected whole, so it takes the typed cold-compile fallback.
    const std::string head = "tapacs-sig3 5";
    ASSERT_EQ(bytes.compare(0, head.size(), head), 0);
    EXPECT_FALSE(cache::parseSignature(
        "tapacs-sig2 5 0" + bytes.substr(head.size()), &sig));
}

} // namespace
} // namespace tapacs
