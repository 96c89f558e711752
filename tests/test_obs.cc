/**
 * @file
 * Tests for the observability subsystem: the trace recorder (spans,
 * Chrome JSON export, per-thread tracks), the
 * metrics registry, and the profiling hooks wired through the compile
 * flow (seven phase spans, worker tracks) and the solver
 * (deterministic SolverStats aggregation).
 */

#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/stencil.hh"
#include "common/thread_pool.hh"
#include "compiler/compiler.hh"
#include "ilp/solver.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace tapacs
{
namespace
{

/** Disable + clear the tracer on entry and exit so suites that run
 *  before/after (and a TAPACS_TRACE inherited from the environment)
 *  cannot leak events into each other. */
struct TracerSandbox
{
    TracerSandbox()
    {
        obs::Tracer::instance().disable();
        obs::Tracer::instance().clear();
    }
    ~TracerSandbox()
    {
        obs::Tracer::instance().disable();
        obs::Tracer::instance().clear();
    }
};

int
countOccurrences(const std::string &haystack, const std::string &needle)
{
    int n = 0;
    for (size_t pos = haystack.find(needle); pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size()))
        ++n;
    return n;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(Trace, DisabledTracerRecordsNothing)
{
    TracerSandbox sandbox;
    obs::Tracer &t = obs::Tracer::instance();
    ASSERT_FALSE(t.enabled());
    {
        obs::TraceSpan span("test", "ignored");
        EXPECT_FALSE(span.active());
        span.arg("k", 1.0);
    }
    EXPECT_EQ(t.eventCount(), 0u);
}

TEST(Trace, SpanRoundTrip)
{
    TracerSandbox sandbox;
    obs::Tracer &t = obs::Tracer::instance();
    t.enable();
    {
        obs::TraceSpan span("cat", "outer");
        ASSERT_TRUE(span.active());
        span.arg("count", static_cast<std::int64_t>(42))
            .arg("ratio", 0.5)
            .arg("label", std::string("a\"b"));
    }
    t.disable();
    EXPECT_EQ(t.eventCount(), 1u);

    const std::string json = t.toJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"outer\""), std::string::npos);
    EXPECT_NE(json.find("\"count\":42"), std::string::npos);
    EXPECT_NE(json.find("a\\\"b"), std::string::npos); // escaped arg
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    // Every buffer announces its thread name.
    EXPECT_NE(json.find("thread_name"), std::string::npos);
}

TEST(Trace, SpanOpenAcrossDisableIsDropped)
{
    TracerSandbox sandbox;
    obs::Tracer &t = obs::Tracer::instance();
    t.enable();
    {
        obs::TraceSpan span("cat", "crossing");
        t.disable(); // writer raced with shutdown
    }
    EXPECT_EQ(t.eventCount(), 0u);
}

TEST(Trace, WriteProducesLoadableFile)
{
    TracerSandbox sandbox;
    obs::Tracer &t = obs::Tracer::instance();
    t.enable();
    { obs::TraceSpan span("cat", "solo"); }
    t.disable();

    const std::string path = ::testing::TempDir() + "obs_write.json";
    ASSERT_TRUE(t.write(path));
    const std::string json = slurp(path);
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"solo\""), std::string::npos);
    EXPECT_FALSE(t.write("/nonexistent-dir/trace.json"));
    std::remove(path.c_str());
}

TEST(Trace, PoolWorkersGetDistinctTracks)
{
    if (ThreadPool::defaultPool().size() < 2)
        GTEST_SKIP() << "needs >= 2 pool workers (set TAPACS_THREADS)";
    TracerSandbox sandbox;
    obs::Tracer &t = obs::Tracer::instance();
    t.enable();
    // Rendezvous: the caller plus one helper per pool worker, each
    // holding one index until all are in flight, so every helper
    // records on its own pool worker (>= 2 of them).
    ThreadPool &pool = ThreadPool::defaultPool();
    const int n = pool.size() + 1;
    std::mutex mu;
    std::condition_variable cv;
    int arrived = 0;
    pool.parallelFor(
        0, n,
        [&](std::int64_t i) {
            obs::TraceSpan span("test",
                                "rendezvous" + std::to_string(i));
            std::unique_lock<std::mutex> lk(mu);
            if (++arrived == n)
                cv.notify_all();
            cv.wait(lk, [&] { return arrived == n; });
        },
        n);
    t.disable();
    const std::string json = t.toJson();
    EXPECT_GE(countOccurrences(json, "pool-worker-"), 2);
}

TEST(Metrics, CounterGaugeHistogramBasics)
{
    obs::MetricsRegistry reg;
    obs::Counter &c = reg.counter("tapacs.test.count");
    c.add();
    c.add(4);
    EXPECT_EQ(c.value(), 5);
    // Same name resolves to the same node.
    EXPECT_EQ(&reg.counter("tapacs.test.count"), &c);

    obs::Gauge &g = reg.gauge("tapacs.test.level");
    g.set(2.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);

    obs::Histogram &h = reg.histogram("tapacs.test.lat", {1.0, 10.0});
    h.observe(0.5);  // bucket 0
    h.observe(1.0);  // bucket 0 (<= bound)
    h.observe(5.0);  // bucket 1
    h.observe(99.0); // overflow
    EXPECT_EQ(h.count(), 4);
    EXPECT_DOUBLE_EQ(h.sum(), 105.5);
    EXPECT_EQ(h.bucketCounts(), (std::vector<std::int64_t>{2, 1, 1}));
}

TEST(Metrics, SnapshotAndRender)
{
    obs::MetricsRegistry reg;
    reg.counter("tapacs.test.count").add(7);
    reg.gauge("tapacs.test.level").set(1.25);
    reg.histogram("tapacs.test.lat", {1.0}).observe(3.0);

    obs::MetricsSnapshot snap = reg.snapshot();
    ASSERT_TRUE(snap.hasCounter("tapacs.test.count"));
    ASSERT_TRUE(snap.hasGauge("tapacs.test.level"));
    EXPECT_FALSE(snap.hasCounter("tapacs.test.level")); // wrong kind
    EXPECT_EQ(snap.counterValue("tapacs.test.count"), 7);
    EXPECT_DOUBLE_EQ(snap.gaugeValue("tapacs.test.level"), 1.25);
    ASSERT_EQ(snap.histograms.count("tapacs.test.lat"), 1u);
    EXPECT_EQ(snap.histograms.at("tapacs.test.lat").count, 1);

    const std::string table = snap.renderTable();
    EXPECT_NE(table.find("tapacs.test.count"), std::string::npos);
    EXPECT_NE(table.find("1.25"), std::string::npos);

    reg.clear();
    obs::MetricsSnapshot zeroed = reg.snapshot();
    EXPECT_EQ(zeroed.counterValue("tapacs.test.count"), 0);
    EXPECT_DOUBLE_EQ(zeroed.gaugeValue("tapacs.test.level"), 0.0);
    EXPECT_EQ(zeroed.histograms.at("tapacs.test.lat").count, 0);
}

TEST(Metrics, PrefixFilterAndResetScopeOneNamespace)
{
    // tapacs-serve prints one namespace at a time (filterPrefix), and
    // bench_micro_cache zeroes tapacs.cache.* before it measures
    // (resetPrefix); neither may touch the neighbours.
    obs::MetricsRegistry reg;
    reg.counter("tapacs.cache.hits").add(24);
    reg.counter("tapacs.cache.misses").add(3);
    reg.gauge("tapacs.cache.bytes").set(5.0);
    reg.histogram("tapacs.cache.lookup_seconds", {0.1, 1.0})
        .observe(0.5);
    reg.counter("tapacs.fleet.dispatches").add(100);
    reg.gauge("tapacs.serve.queue_depth").set(7.0);

    // filterPrefix scopes every kind, and only that prefix.
    const obs::MetricsSnapshot scoped =
        reg.snapshot().filterPrefix("tapacs.cache.");
    EXPECT_EQ(scoped.counters.size(), 2u);
    EXPECT_EQ(scoped.gauges.size(), 1u);
    EXPECT_EQ(scoped.histograms.size(), 1u);
    EXPECT_EQ(scoped.counterValue("tapacs.cache.hits"), 24);
    EXPECT_DOUBLE_EQ(scoped.gaugeValue("tapacs.cache.bytes"), 5.0);
    EXPECT_FALSE(scoped.hasCounter("tapacs.fleet.dispatches"));
    EXPECT_FALSE(scoped.hasGauge("tapacs.serve.queue_depth"));

    // resetPrefix zeroes exactly the namespace, not the neighbours.
    reg.resetPrefix("tapacs.cache.");
    const obs::MetricsSnapshot after = reg.snapshot();
    EXPECT_EQ(after.counterValue("tapacs.cache.hits"), 0);
    EXPECT_EQ(after.counterValue("tapacs.cache.misses"), 0);
    EXPECT_DOUBLE_EQ(after.gaugeValue("tapacs.cache.bytes"), 0.0);
    EXPECT_EQ(
        after.histograms.at("tapacs.cache.lookup_seconds").count, 0);
    EXPECT_EQ(after.counterValue("tapacs.fleet.dispatches"), 100);
    EXPECT_DOUBLE_EQ(after.gaugeValue("tapacs.serve.queue_depth"),
                     7.0);
}

TEST(Metrics, HandlesAreThreadSafe)
{
    obs::MetricsRegistry reg;
    obs::Counter &c = reg.counter("tapacs.test.mt");
    obs::Histogram &h = reg.histogram("tapacs.test.mt_lat", {0.5});
    ThreadPool::defaultPool().parallelFor(0, 10'000,
                                          [&](std::int64_t i) {
                                              c.add();
                                              h.observe(i % 2 ? 1.0
                                                              : 0.25);
                                          });
    EXPECT_EQ(c.value(), 10'000);
    EXPECT_EQ(h.count(), 10'000);
    EXPECT_EQ(h.bucketCounts()[0] + h.bucketCounts()[1], 10'000);
}

/**
 * Acceptance: a full-flow stencil compile with tracing on produces a
 * Chrome-trace JSON containing spans for all seven compiler phases
 * plus at least two distinct worker-thread tracks.
 */
TEST(Trace, FullFlowCompileEmitsSevenPhasesAndWorkerTracks)
{
    TracerSandbox sandbox;
    apps::AppDesign app =
        apps::buildStencil(apps::StencilConfig::scaled(64, 2));
    Cluster cluster = makePaperTestbed(2);
    CompileOptions options;
    options.mode = CompileMode::TapaCs;
    options.numFpgas = 2;
    options.numThreads = 4;
    const std::string path = ::testing::TempDir() + "obs_compile.json";

    obs::Tracer::instance().enable();
    CompileResult result =
        compileProgram(app.graph, app.tasks, cluster, options);
    ASSERT_TRUE(result.routable) << result.failureReason;
    ASSERT_TRUE(obs::Tracer::instance().write(path));

    const std::string json = slurp(path);
    for (const char *phase :
         {"phase1.task_graph", "phase2.synthesis", "phase3.inter_fpga",
          "phase4.comm_logic", "phase5.intra_fpga",
          "phase6.pipelining", "phase7.bitstream"})
        EXPECT_NE(json.find(phase), std::string::npos) << phase;
    // Per-device intra-FPGA and HBM-binding spans run on pool
    // workers, so the trace must carry >= 2 worker tracks.
    if (ThreadPool::defaultPool().size() >= 2) {
        EXPECT_GE(countOccurrences(json, "pool-worker-"), 2);
    }
    // Solver spans carry the per-worker search counters.
    EXPECT_NE(json.find("ilp.solve"), std::string::npos);
    EXPECT_NE(json.find("lp_iterations"), std::string::npos);
    // Each device's bisection span reports its LP effort and the row
    // count of its largest bisection ILP.
    const size_t dev = json.find("\"intra.device\"");
    ASSERT_NE(dev, std::string::npos);
    const std::string args =
        json.substr(dev, json.find('}', json.find("\"args\"", dev)) - dev);
    EXPECT_NE(args.find("\"lp_iterations\":"), std::string::npos) << args;
    EXPECT_NE(args.find("\"rows\":"), std::string::npos) << args;
    std::remove(path.c_str());
}

TEST(Solver, StatsCountLpIterationsAndIncumbents)
{
    // A small knapsack forces branching, so every stat must move.
    ilp::Model m;
    ilp::LinExpr cap, obj;
    for (int i = 0; i < 12; ++i) {
        const ilp::VarId v = m.addBinary();
        cap.add(v, 1.0 + (i % 5));
        obj.add(v, -(1.0 + ((7 * i) % 11)));
    }
    m.addConstraint(std::move(cap), ilp::Sense::LessEqual, 14.0);
    m.setObjective(std::move(obj));

    ilp::BranchBoundSolver solver;
    ilp::Solution s = solver.solve(m);
    ASSERT_TRUE(s.hasSolution());
    const ilp::SolverStats &st = solver.stats();
    EXPECT_GT(st.lpSolves, 0);
    EXPECT_GT(st.lpIterations, 0);
    EXPECT_GT(st.incumbentUpdates, 0);
}

} // namespace
} // namespace tapacs

/**
 * Custom main: the worker-track tests need a multi-worker default
 * pool even on single-core CI boxes, so seed TAPACS_THREADS before
 * anything instantiates the pool. An explicit user setting wins.
 */
int
main(int argc, char **argv)
{
    ::setenv("TAPACS_THREADS", "4", /*overwrite=*/0);
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
