/**
 * @file
 * Robustness suite: the error taxonomy (Status/StatusOr), deadline
 * plumbing (Context, the applyDeadline tier rule), deadline aborts,
 * hardened manifest parsing (including a seeded mutation fuzz), the
 * serving core's queue-level contract on its in-process executor
 * (backpressure, shedding, circuit breaker, retries), and request
 * execution itself.
 *
 * Everything here must stay deterministic: deadline 0 is the
 * clock-free greedy tier, aborts use pre-expired contexts or
 * deadlines far shorter than any compile, the fuzz draws from the
 * repo's seeded Rng, and the serving tests run a single slot where
 * ordering matters. Where a deadline races a real compile (the
 * deadline sweep), only the outcome's type may vary, never the
 * design.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "apps/stencil.hh"
#include "apps/workloads.hh"
#include "cache/compile_cache.hh"
#include "common/context.hh"
#include "common/rng.hh"
#include "common/status.hh"
#include "compiler/compiler.hh"
#include "graph/serialize.hh"
#include "ilp/model.hh"
#include "ilp/solver.hh"
#include "network/cluster.hh"
#include "obs/metrics.hh"
#include "serve/execute.hh"
#include "serve/manifest.hh"
#include "serve/supervisor.hh"

namespace tapacs
{
namespace
{

// ---- Status / StatusOr ----------------------------------------------

TEST(Status, OkByDefaultAndFactoriesCarryCodeAndMessage)
{
    EXPECT_TRUE(Status().ok());
    EXPECT_EQ(Status().code(), StatusCode::Ok);

    const Status s = Status::invalidInput("bad fpgas=%d", 7);
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::InvalidInput);
    EXPECT_NE(s.message().find("bad fpgas=7"), std::string::npos);

    EXPECT_EQ(Status::deadlineExceeded("x").code(),
              StatusCode::DeadlineExceeded);
    // Nothing produces Cancelled any more, but the code keeps its
    // number: journals and wire frames carry codes by number.
    EXPECT_EQ(static_cast<int>(StatusCode::Cancelled), 4);
    EXPECT_STREQ(toString(StatusCode::Cancelled), "CANCELLED");
    EXPECT_EQ(Status::resourceExhausted("x").code(),
              StatusCode::ResourceExhausted);
    EXPECT_EQ(Status::infeasible("x").code(), StatusCode::Infeasible);
    EXPECT_EQ(Status::internal("x").code(), StatusCode::Internal);

    EXPECT_STREQ(toString(StatusCode::DeadlineExceeded),
                 "DEADLINE_EXCEEDED");
    EXPECT_STREQ(toString(StatusCode::Ok), "OK");
}

TEST(StatusOr, HoldsValueOrError)
{
    StatusOr<int> v = 42;
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value(), 42);

    StatusOr<int> e = Status::infeasible("no fit");
    ASSERT_FALSE(e.ok());
    EXPECT_EQ(e.status().code(), StatusCode::Infeasible);
}

// ---- Context --------------------------------------------------------

TEST(Context, DefaultHasNoDeadlineAndNeverExpires)
{
    const Context ctx;
    EXPECT_FALSE(ctx.hasDeadline());
    EXPECT_FALSE(ctx.expired());
    EXPECT_TRUE(ctx.status().ok());
    EXPECT_EQ(ctx.deadline(), std::numeric_limits<double>::infinity());
}

TEST(Context, ZeroTimeoutIsDeterministicallyExpired)
{
    // seconds <= 0 pins the deadline in the past, so the very first
    // poll observes expiry — no clock-resolution race.
    const Context zero = Context::withTimeout(0.0);
    EXPECT_TRUE(zero.hasDeadline());
    EXPECT_TRUE(zero.expired());
    EXPECT_EQ(zero.status().code(), StatusCode::DeadlineExceeded);

    const Context negative = Context::withTimeout(-5.0);
    EXPECT_TRUE(negative.expired());
}

TEST(DeadlineRule, ValuePicksTheTierAndTheClockOnlyAborts)
{
    // Negative: the full tier, options untouched.
    CompileOptions none;
    EXPECT_FALSE(applyDeadline(-1.0, &none));
    EXPECT_TRUE(none.inter.useIlp);
    EXPECT_TRUE(none.intra.useIlp);
    EXPECT_FALSE(none.ctx.hasDeadline());

    // Zero: the greedy tier, with no clock at all.
    CompileOptions greedy;
    EXPECT_TRUE(applyDeadline(0.0, &greedy));
    EXPECT_FALSE(greedy.inter.useIlp);
    EXPECT_FALSE(greedy.intra.useIlp);
    EXPECT_FALSE(greedy.ctx.hasDeadline());

    // Positive: the full tier under a fresh deadline.
    CompileOptions timed;
    EXPECT_FALSE(applyDeadline(3600.0e3, &timed));
    EXPECT_TRUE(timed.inter.useIlp);
    EXPECT_TRUE(timed.intra.useIlp);
    EXPECT_TRUE(timed.ctx.hasDeadline());
    EXPECT_FALSE(timed.ctx.expired());

    // A sooner deadline the caller already set wins; a later one
    // gives way.
    CompileOptions sooner;
    sooner.ctx = Context::withTimeout(0.0);
    EXPECT_FALSE(applyDeadline(3600.0e3, &sooner));
    EXPECT_TRUE(sooner.ctx.expired());
    CompileOptions later;
    later.ctx = Context::withTimeout(7200.0);
    applyDeadline(1800.0e3, &later);
    EXPECT_LT(later.ctx.deadline(),
              Context::withTimeout(3600.0).deadline());
}

// ---- Serve backoff curve --------------------------------------------

TEST(FleetBackoff, BoundedBackoffIsMonotoneAndCapped)
{
    serve::BackoffCurve curve;
    curve.base = 1.0e-3;
    curve.cap = 1.0e-2;
    EXPECT_DOUBLE_EQ(serve::boundedBackoff(curve, 0), curve.base);
    double prev = 0.0;
    for (int attempt = 0; attempt < 64; ++attempt) {
        const double b = serve::boundedBackoff(curve, attempt);
        EXPECT_GE(b, prev);
        EXPECT_LE(b, curve.cap);
        prev = b;
    }
    EXPECT_DOUBLE_EQ(serve::boundedBackoff(curve, 63), curve.cap);

    // The default curve: 5 ms, doubling, capped at 0.25 s.
    const serve::BackoffCurve fleet = serve::FleetOptions{}.backoff;
    EXPECT_DOUBLE_EQ(serve::boundedBackoff(fleet, 0), 5.0e-3);
    EXPECT_DOUBLE_EQ(serve::boundedBackoff(fleet, 5), 0.16);
    EXPECT_DOUBLE_EQ(serve::boundedBackoff(fleet, 6), 0.25);
}

// ---- Typed entry-point validation -----------------------------------

TEST(Cluster, TryMakePaperTestbedRejectsBadCounts)
{
    Cluster c(makeU55C(), Topology(TopologyKind::Ring, 1), 1);
    EXPECT_EQ(tryMakePaperTestbed(0, &c).code(),
              StatusCode::InvalidInput);
    EXPECT_EQ(tryMakePaperTestbed(-3, &c).code(),
              StatusCode::InvalidInput);
    EXPECT_EQ(tryMakePaperTestbed(6, &c).code(),
              StatusCode::InvalidInput);
    EXPECT_TRUE(tryMakePaperTestbed(2, &c).ok());
    EXPECT_EQ(c.numDevices(), 2);
    EXPECT_TRUE(tryMakePaperTestbed(8, &c).ok());
    EXPECT_EQ(c.numDevices(), 8);
    EXPECT_EQ(tryMakePaperTestbed(3, &c, TopologyKind::Hypercube).code(),
              StatusCode::InvalidInput);
    EXPECT_TRUE(tryMakePaperTestbed(8, &c, TopologyKind::Mesh2D).ok());
    EXPECT_EQ(c.nodeTopology().kind(), TopologyKind::Mesh2D);
    EXPECT_EQ(c.numDevices(), 8);
}

TEST(Serialize, TryParseTaskGraphRejectsGarbageWithoutCrashing)
{
    TaskGraph g;
    EXPECT_FALSE(tryParseTaskGraph("!!! not a graph !!!", &g).ok());
    EXPECT_FALSE(tryParseTaskGraph("vertex", &g).ok());
    std::string binary = "task \x01\xff";
    binary.push_back('\0');
    binary += "more";
    EXPECT_FALSE(tryParseTaskGraph(binary, &g).ok());
}

// ---- Manifest parsing -----------------------------------------------

TEST(Manifest, WellFormedLinesParse)
{
    const serve::ParsedManifest m = serve::parseManifest(
        "# comment\n"
        "request a workload=stencil fpgas=4 deadline_ms=250\n"
        "\n"
        "request b workload=pagerank mode=tapacs topology=mesh "
        "threshold=0.8 repeat=3\n");
    ASSERT_TRUE(m.clean());
    ASSERT_EQ(m.requests.size(), 2u);
    EXPECT_EQ(m.requests[0].name, "a");
    EXPECT_EQ(m.requests[0].fpgas, 4);
    EXPECT_DOUBLE_EQ(m.requests[0].deadlineMs, 250.0);
    EXPECT_EQ(m.requests[1].repeat, 3);
    EXPECT_EQ(m.requests[1].topology, TopologyKind::Mesh2D);
}

TEST(Manifest, MalformedLinesBecomeDiagnosticsAndParsingContinues)
{
    const serve::ParsedManifest m = serve::parseManifest(
        "request ok1 workload=stencil\n"
        "request bad1 workload=stencil fpgas=999999999999999999999\n"
        "request bad2 workload=stencil fpgas=0\n"
        "request bad3 workload=nosuch\n"
        "request bad4 workload=stencil graph=/tmp/x\n" // both sources
        "request bad5\n"                               // neither source
        "complete garbage line\n"
        "request bad6 workload=stencil threshold=2.0\n"
        "request ok2 workload=knn scale=1000\n");
    EXPECT_EQ(m.requests.size(), 2u);
    EXPECT_EQ(m.diagnostics.size(), 7u);
    EXPECT_EQ(m.requests[0].name, "ok1");
    EXPECT_EQ(m.requests[1].name, "ok2");
    // Diagnostics carry 1-based line numbers of the offending lines.
    EXPECT_EQ(m.diagnostics.front().line, 2);
    for (const serve::ManifestDiagnostic &d : m.diagnostics)
        EXPECT_FALSE(d.message.empty());
}

TEST(Manifest, SimulateKeysParseAndValidate)
{
    const serve::ParsedManifest ok = serve::parseManifest(
        "request a workload=stencil simulate=1\n"
        "request b workload=stencil simulate=0\n"
        "request c workload=stencil\n");
    ASSERT_TRUE(ok.clean());
    ASSERT_EQ(ok.requests.size(), 3u);
    EXPECT_TRUE(ok.requests[0].simulate);
    EXPECT_FALSE(ok.requests[1].simulate);
    EXPECT_FALSE(ok.requests[2].simulate);

    const serve::ParsedManifest bad = serve::parseManifest(
        "request a workload=stencil simulate=2\n");
    EXPECT_TRUE(bad.requests.empty());
    ASSERT_EQ(bad.diagnostics.size(), 1u);
    EXPECT_NE(bad.diagnostics[0].message.find("simulate"),
              std::string::npos);

    // The simulator has one engine, so the old engine-selection key
    // is an unknown key now (spelled in two parts so the old key name
    // stays out of the source tree).
    const std::string removedKey = std::string("sim_") + "engine";
    const serve::ParsedManifest removed = serve::parseManifest(
        "request a workload=stencil simulate=1 " + removedKey +
        "=parallel\n");
    EXPECT_TRUE(removed.requests.empty());
    ASSERT_EQ(removed.diagnostics.size(), 1u);
    EXPECT_EQ(removed.diagnostics[0].message,
              "unknown key '" + removedKey + "'");
}

TEST(Manifest, ExploreKeysParseAndValidate)
{
    const serve::ParsedManifest ok = serve::parseManifest(
        "request a workload=stencil explore=1 t=0.6,0.7 "
        "topo=ring,mesh binding=nearest,sweep depth=1,2\n"
        "request b workload=cnn explore=1 lambda=0.8,follow\n"
        "request c workload=knn threshold=0.65 topology=chain "
        "explore=1 depth=0,4\n");
    ASSERT_TRUE(ok.clean());
    ASSERT_EQ(ok.requests.size(), 3u);
    EXPECT_TRUE(ok.requests[0].explore);
    EXPECT_EQ(ok.requests[0].grid.numPoints(), 2u * 2u * 2u * 2u);
    EXPECT_EQ(ok.requests[1].grid.slotThresholds,
              (std::vector<double>{0.8, -1.0}));
    // Axes the line does not name inherit the request's own
    // single-compile knobs.
    EXPECT_EQ(ok.requests[2].grid.thresholds,
              (std::vector<double>{0.65}));
    EXPECT_EQ(ok.requests[2].grid.topologies,
              (std::vector<TopologyKind>{TopologyKind::Chain}));
    EXPECT_EQ(ok.requests[2].grid.depths, (std::vector<int>{0, 4}));

    const serve::ParsedManifest bad = serve::parseManifest(
        "request a workload=stencil t=0.6,0.7\n"          // no explore=1
        "request b workload=stencil explore=1 simulate=1\n"
        "request c workload=stencil explore=1 incremental=1 base=a\n"
        "request d workload=stencil explore=1 t=0.6,0.6\n" // dup value
        "request e workload=stencil explore=1 depth=99\n"
        "request f workload=stencil explore=1 binding=maybe\n"
        "request g workload=stencil explore=2\n"
        "request h workload=stencil explore=1 topo=torus\n");
    EXPECT_TRUE(bad.requests.empty());
    ASSERT_EQ(bad.diagnostics.size(), 8u);
    // Per-line diagnostics, typed like simulate='s: line numbers and
    // messages name the offending key or rule.
    EXPECT_EQ(bad.diagnostics[0].line, 1);
    EXPECT_NE(bad.diagnostics[0].message.find("explore=1"),
              std::string::npos);
    EXPECT_NE(bad.diagnostics[1].message.find("simulate"),
              std::string::npos);
    EXPECT_NE(bad.diagnostics[2].message.find("incremental"),
              std::string::npos);
}

/** Seeded mutation fuzz: the parser must survive (and stay
 *  deterministic over) arbitrary corruptions of a valid manifest. */
TEST(Manifest, SeededMutationFuzzNeverCrashesAndIsDeterministic)
{
    const std::string base =
        "# batch\n"
        "request a workload=stencil fpgas=4 deadline_ms=100\n"
        "request b workload=pagerank mode=tapa topology=ring\n"
        "request c graph=/tmp/does-not-exist.graph repeat=2\n"
        "request d workload=knn scale=1000000 threshold=0.7\n"
        "request e workload=stencil explore=1 t=0.6,0.7 "
        "lambda=follow,0.8 topo=ring,chain binding=nearest,sweep "
        "depth=1,2,3\n"
        "request f workload=cnn threshold=0.65 topology=mesh "
        "explore=1 depth=0,4\n";
    Rng rng(0x5eedf00dull);
    for (int iter = 0; iter < 300; ++iter) {
        std::string text = base;
        // Truncate sometimes, then flip a handful of bytes.
        if (rng.bernoulli(0.25) && !text.empty())
            text.resize(rng.uniformInt(0, text.size() - 1));
        const std::uint64_t flips = rng.uniformInt(1, 8);
        for (std::uint64_t f = 0; f < flips && !text.empty(); ++f) {
            const std::size_t pos =
                static_cast<std::size_t>(
                    rng.uniformInt(0, text.size() - 1));
            text[pos] = static_cast<char>(rng.uniformInt(0, 255));
        }
        const serve::ParsedManifest once = serve::parseManifest(text);
        const serve::ParsedManifest twice = serve::parseManifest(text);
        // Total: every line is accounted for, deterministically.
        ASSERT_EQ(once.requests.size(), twice.requests.size());
        ASSERT_EQ(once.diagnostics.size(), twice.diagnostics.size());
        for (std::size_t i = 0; i < once.requests.size(); ++i) {
            EXPECT_EQ(once.requests[i].name, twice.requests[i].name);
            EXPECT_EQ(once.requests[i].fpgas, twice.requests[i].fpgas);
            EXPECT_EQ(once.requests[i].scale, twice.requests[i].scale);
        }
        for (std::size_t i = 0; i < once.diagnostics.size(); ++i) {
            EXPECT_EQ(once.diagnostics[i].line,
                      twice.diagnostics[i].line);
            EXPECT_EQ(once.diagnostics[i].message,
                      twice.diagnostics[i].message);
        }
        // Anything the parser admitted must be in documented ranges.
        for (const serve::Request &r : once.requests) {
            EXPECT_GE(r.fpgas, 1);
            EXPECT_LE(r.fpgas, 256);
            EXPECT_GE(r.repeat, 1);
            EXPECT_GT(r.threshold, 0.0);
            EXPECT_LE(r.threshold, 1.0);
            EXPECT_TRUE(r.workload.empty() != r.graphFile.empty());
            // An admitted explore request always carries a grid that
            // validates — never a crash or a silent skip downstream.
            if (r.explore) {
                EXPECT_TRUE(r.grid.validate().ok());
                EXPECT_GE(r.grid.numPoints(), 1u);
                EXPECT_LE(r.grid.numPoints(),
                          explore::kMaxExplorePoints);
            } else {
                // Without explore=1 no grid axis key may have slipped
                // through: the cross-rule rejects the line instead.
                EXPECT_EQ(r.grid.thresholds,
                          (std::vector<double>{0.70}));
            }
        }
    }
}

// ---- Deadlines through the compile flow ------------------------------

TEST(Robustness, GreedyTierYieldsFeasibleResultWithoutIlp)
{
    apps::AppDesign app =
        apps::buildStencil(apps::StencilConfig::scaled(64, 2));
    const Cluster cluster = makePaperTestbed(4);
    CompileOptions opt;
    opt.mode = CompileMode::TapaCs;
    opt.numFpgas = 4;
    ASSERT_TRUE(applyDeadline(0.0, &opt));
    const CompileResult r =
        compileProgram(app.graph, app.tasks, cluster, opt);
    EXPECT_TRUE(r.status.ok()) << r.status.message();
    EXPECT_TRUE(r.routable) << r.failureReason;
    EXPECT_EQ(r.l1SolverStats.nodesExplored, 0);
    EXPECT_EQ(r.l2SolverStats.nodesExplored, 0);
    EXPECT_GT(r.fmax, 0.0);
    // A pure function of its inputs, so it carries a reuse signature.
    EXPECT_FALSE(r.signature.empty());
}

TEST(Robustness, ExpiredDeadlineReturnsNoDesign)
{
    const Cluster cluster = makePaperTestbed(4);
    for (const CompileMode mode :
         {CompileMode::TapaCs, CompileMode::TapaSingle}) {
        CompileOptions opt;
        opt.mode = mode;
        opt.numFpgas = mode == CompileMode::TapaCs ? 4 : 1;
        opt.ctx = Context::withTimeout(0.0); // already expired
        apps::AppDesign app;
        ASSERT_TRUE(
            apps::buildWorkload("stencil", opt.numFpgas, 0, &app).ok());
        const CompileResult r =
            compileProgram(app.graph, app.tasks, cluster, opt);
        EXPECT_EQ(r.status.code(), StatusCode::DeadlineExceeded)
            << toString(mode) << ": " << r.status.message();
        EXPECT_FALSE(r.routable);
        EXPECT_FALSE(r.degraded);
        EXPECT_TRUE(r.partition.deviceOf.empty());
        EXPECT_TRUE(r.placement.slotOf.empty());
        EXPECT_EQ(r.fmax, 0.0);
    }
}

TEST(Robustness, ExpiredDeadlineBoundsSolverNodeExpansions)
{
    // A pre-expired context must stop branch-and-bound within a
    // bounded number of node expansions (the poll sits at the loop
    // head, so effectively zero).
    ilp::Model m;
    ilp::LinExpr objective;
    ilp::LinExpr weight;
    for (int i = 0; i < 24; ++i) {
        const ilp::VarId x = m.addBinary();
        objective.add(x, -(1.0 + 0.37 * i));
        weight.add(x, 1.0 + (i % 7));
    }
    m.addConstraint(std::move(weight), ilp::Sense::LessEqual, 13.0);
    m.setObjective(std::move(objective));

    ilp::SolverOptions expired;
    expired.ctx = Context::withTimeout(0.0);
    ilp::BranchBoundSolver stopped(expired);
    stopped.solve(m);
    EXPECT_FALSE(stopped.stats().provenOptimal);
    EXPECT_LE(stopped.stats().nodesExplored, 1);

    // Control: the same model solved without a deadline explores real
    // work.
    ilp::BranchBoundSolver full;
    const ilp::Solution s = full.solve(m);
    EXPECT_EQ(s.status, ilp::SolveStatus::Optimal);
    EXPECT_TRUE(full.stats().provenOptimal);
    EXPECT_GT(full.stats().nodesExplored,
              stopped.stats().nodesExplored);
}

TEST(Robustness, GreedyTierIsDeterministicAcrossThreadCounts)
{
    // The deadline-0 tier must not depend on worker count: it has no
    // clock, and greedy partitioning, refinement and the greedy cuts
    // are thread-count invariant like the full tier.
    apps::AppDesign app =
        apps::buildStencil(apps::StencilConfig::scaled(64, 2));
    const Cluster cluster = makePaperTestbed(4);
    CompileResult results[2];
    const int threadCounts[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        CompileOptions opt;
        opt.mode = CompileMode::TapaCs;
        opt.numFpgas = 4;
        opt.numThreads = threadCounts[i];
        applyDeadline(0.0, &opt);
        results[i] = compileProgram(app.graph, app.tasks, cluster, opt);
        ASSERT_TRUE(results[i].routable) << results[i].failureReason;
    }
    EXPECT_EQ(results[0].partition.deviceOf,
              results[1].partition.deviceOf);
    EXPECT_DOUBLE_EQ(results[0].fmax, results[1].fmax);
    EXPECT_DOUBLE_EQ(results[0].cutTrafficBytes,
                     results[1].cutTrafficBytes);
}

// ---- in-process serving core ----------------------------------------

serve::Request
quickRequest(const std::string &name)
{
    serve::Request req;
    req.name = name;
    req.workload = "stencil";
    req.fpgas = 1;
    req.mode = CompileMode::TapaSingle;
    return req;
}

serve::FleetOptions
inProcess(int workers)
{
    serve::FleetOptions opt;
    opt.inProcess = true;
    opt.workers = workers;
    return opt;
}

/** finish() the supervisor and keep just the typed outcomes. */
std::vector<serve::ServeOutcome>
finishOutcomes(serve::Supervisor &supervisor)
{
    std::vector<serve::ServeOutcome> outcomes;
    for (serve::FleetOutcome &f : supervisor.finish())
        outcomes.push_back(std::move(f.outcome));
    return outcomes;
}

std::int64_t
counterValue(const std::string &name)
{
    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::global().snapshot();
    return snap.hasCounter(name) ? snap.counterValue(name) : 0;
}

TEST(InProcessServe, BackpressureAdmitsEverythingEventually)
{
    serve::FleetOptions opt = inProcess(1);
    opt.maxQueue = 1;
    opt.blockOnFull = true; // submit() waits instead of shedding
    serve::Supervisor supervisor(opt);
    ASSERT_TRUE(supervisor.start().ok());
    constexpr int kRequests = 5;
    for (int i = 0; i < kRequests; ++i)
        EXPECT_TRUE(
            supervisor.submit(quickRequest("r" + std::to_string(i))).ok());
    const std::vector<serve::ServeOutcome> outcomes =
        finishOutcomes(supervisor);
    ASSERT_EQ(outcomes.size(), static_cast<std::size_t>(kRequests));
    for (const serve::ServeOutcome &o : outcomes) {
        EXPECT_TRUE(o.status.ok()) << o.failureReason;
        EXPECT_TRUE(o.routable);
        EXPECT_EQ(o.attempts, 1);
    }
}

TEST(InProcessServe, FullQueueShedsWithResourceExhausted)
{
    serve::FleetOptions opt = inProcess(1);
    opt.maxQueue = 1;
    opt.blockOnFull = false;
    serve::Supervisor supervisor(opt);
    ASSERT_TRUE(supervisor.start().ok());
    int admitted = 0;
    int shed = 0;
    constexpr int kRequests = 16;
    for (int i = 0; i < kRequests; ++i) {
        const Status st =
            supervisor.submit(quickRequest("r" + std::to_string(i)));
        if (st.ok()) {
            ++admitted;
        } else {
            EXPECT_EQ(st.code(), StatusCode::ResourceExhausted);
            ++shed;
        }
    }
    EXPECT_EQ(admitted + shed, kRequests);
    // The single slot compiles in milliseconds while submissions
    // arrive in microseconds; with a queue bound of one, most of the
    // burst must shed.
    EXPECT_GE(shed, 1);
    EXPECT_GE(admitted, 1);
    const std::vector<serve::ServeOutcome> outcomes =
        finishOutcomes(supervisor);
    // Every admitted request — and only those — produced an outcome.
    EXPECT_EQ(outcomes.size(), static_cast<std::size_t>(admitted));
    for (const serve::ServeOutcome &o : outcomes)
        EXPECT_TRUE(o.status.ok()) << o.failureReason;
}

TEST(InProcessServe, CircuitBreakerShedsAfterConsecutiveFailures)
{
    serve::FleetOptions opt = inProcess(1); // ordered breaker votes
    opt.breakerThreshold = 2;
    opt.breakerProbeEvery = 100; // no probe within this test
    serve::Supervisor supervisor(opt);
    ASSERT_TRUE(supervisor.start().ok());
    constexpr int kRequests = 6;
    for (int i = 0; i < kRequests; ++i) {
        serve::Request req;
        req.name = "bad" + std::to_string(i);
        req.graphFile = "/nonexistent/robustness-breaker.graph";
        ASSERT_TRUE(supervisor.submit(req).ok());
    }
    const std::vector<serve::ServeOutcome> outcomes =
        finishOutcomes(supervisor);
    ASSERT_EQ(outcomes.size(), static_cast<std::size_t>(kRequests));
    // First two fail on their own merits and open the breaker; the
    // rest are shed without being attempted.
    for (int i = 0; i < 2; ++i) {
        EXPECT_EQ(outcomes[i].status.code(), StatusCode::InvalidInput);
        EXPECT_EQ(outcomes[i].attempts, 1);
    }
    for (int i = 2; i < kRequests; ++i) {
        EXPECT_EQ(outcomes[i].status.code(),
                  StatusCode::ResourceExhausted)
            << outcomes[i].failureReason;
        EXPECT_EQ(outcomes[i].attempts, 0);
    }
}

TEST(InProcessServe, GreedyTierRequestReturnsDegradedResult)
{
    serve::Supervisor supervisor(inProcess(2));
    ASSERT_TRUE(supervisor.start().ok());
    serve::Request greedy = quickRequest("greedy");
    greedy.workload = "stencil";
    greedy.fpgas = 4;
    greedy.mode = CompileMode::TapaCs;
    greedy.deadlineMs = 0.0; // the greedy tier: no ILP, no clock
    ASSERT_TRUE(supervisor.submit(greedy).ok());
    ASSERT_TRUE(supervisor.submit(quickRequest("easy")).ok());
    const std::vector<serve::ServeOutcome> outcomes =
        finishOutcomes(supervisor);
    ASSERT_EQ(outcomes.size(), 2u);
    const serve::ServeOutcome &t = outcomes[0];
    EXPECT_TRUE(t.status.ok()) << t.failureReason;
    EXPECT_TRUE(t.routable);
    EXPECT_TRUE(t.degraded);
    EXPECT_EQ(t.degradedReason, kGreedyTierReason);
    EXPECT_TRUE(outcomes[1].status.ok());
    EXPECT_FALSE(outcomes[1].degraded);
}

TEST(InProcessServe, FinishUnblocksSubmitterBlockedOnFullQueue)
{
    serve::FleetOptions opt = inProcess(1);
    opt.maxQueue = 1;
    opt.blockOnFull = true;
    serve::Supervisor supervisor(opt);
    ASSERT_TRUE(supervisor.start().ok());
    ASSERT_TRUE(supervisor.submit(quickRequest("seed")).ok());
    std::atomic<int> admitted{1};
    std::atomic<int> closed{0};
    std::thread submitter([&]() {
        for (int i = 0; i < 64; ++i) {
            const Status st =
                supervisor.submit(quickRequest("r" + std::to_string(i)));
            if (st.ok()) {
                ++admitted;
            } else {
                EXPECT_EQ(st.code(), StatusCode::Internal);
                ++closed;
            }
        }
    });
    // Close while the submitter may be blocked on the full queue:
    // finish() must wake it (the test completing at all is the
    // deadlock regression check), and every submit that returned Ok
    // must have a drained outcome — never a default-constructed slot.
    const std::vector<serve::ServeOutcome> outcomes =
        finishOutcomes(supervisor);
    submitter.join();
    EXPECT_EQ(admitted.load() + closed.load(), 65);
    ASSERT_EQ(outcomes.size(),
              static_cast<std::size_t>(admitted.load()));
    for (const serve::ServeOutcome &o : outcomes) {
        EXPECT_TRUE(o.status.ok()) << o.failureReason;
        EXPECT_FALSE(o.name.empty());
        EXPECT_EQ(o.attempts, 1);
    }
}

TEST(InProcessServe, RetriesAreBoundedAndCounted)
{
    serve::FleetOptions opt = inProcess(1);
    opt.maxRetries = 2;
    opt.backoff.base = 1.0e-4;
    opt.backoff.cap = 1.0e-3;
    serve::Supervisor supervisor(opt);
    ASSERT_TRUE(supervisor.start().ok());
    const std::int64_t retriesBefore =
        counterValue("tapacs.serve.retries");
    // InvalidInput is not retryable: exactly one attempt.
    serve::Request bad;
    bad.name = "invalid";
    bad.graphFile = "/nonexistent/never.graph";
    ASSERT_TRUE(supervisor.submit(bad).ok());
    // A 1 ns deadline expires long before any compile finishes, so the
    // request ends DeadlineExceeded every time: it spends the whole
    // retry budget and keeps its typed reason.
    serve::Request expired = quickRequest("sim-expired");
    expired.fpgas = 4;
    expired.mode = CompileMode::TapaCs;
    expired.simulate = true;
    expired.deadlineMs = 1.0e-6;
    ASSERT_TRUE(supervisor.submit(expired).ok());
    const std::vector<serve::ServeOutcome> outcomes =
        finishOutcomes(supervisor);
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(outcomes[0].status.code(), StatusCode::InvalidInput);
    EXPECT_EQ(outcomes[0].attempts, 1);
    EXPECT_EQ(outcomes[1].status.code(), StatusCode::DeadlineExceeded)
        << outcomes[1].failureReason;
    EXPECT_EQ(outcomes[1].attempts, 3);
    EXPECT_EQ(counterValue("tapacs.serve.retries"), retriesBefore + 2);
}

// ---- request execution ----------------------------------------------

/** One uncached execution under the request's own deadline. */
serve::ServeOutcome
execute(const serve::Request &req)
{
    return serve::executeRequest(req, serve::ExecutePolicy());
}

TEST(ExecuteRequest, PagerankScaleChangesTheWorkload)
{
    serve::Request base;
    base.name = "pr-default";
    base.workload = "pagerank";
    base.fpgas = 2;
    base.mode = CompileMode::TapaCs;
    base.deadlineMs = 0.0; // greedy tier: fast and deterministic
    serve::Request scaled = base;
    scaled.name = "pr-scaled";
    scaled.scale = 100'000; // synthetic 100k-node dataset
    const serve::ServeOutcome a = execute(base);
    const serve::ServeOutcome b = execute(scaled);
    for (const serve::ServeOutcome *o : {&a, &b}) {
        EXPECT_TRUE(o->status.ok()) << o->failureReason;
        EXPECT_TRUE(o->routable);
    }
    // The synthetic dataset is far smaller than the Table 5 default,
    // so the edge-stream traffic over the cut must differ.
    EXPECT_NE(a.cutTrafficBytes, b.cutTrafficBytes);
}

TEST(ExecuteRequest, ExploreRequestSweepsAndReportsTheFrontier)
{
    const serve::ParsedManifest m = serve::parseManifest(
        "request sweep workload=stencil fpgas=4 explore=1 "
        "t=0.6,0.7 depth=1,2\n");
    ASSERT_TRUE(m.clean());
    ASSERT_EQ(m.requests.size(), 1u);
    const serve::ServeOutcome o = execute(m.requests[0]);
    EXPECT_TRUE(o.status.ok()) << o.failureReason;
    EXPECT_TRUE(o.explored);
    EXPECT_EQ(o.explorePoints, 4);
    EXPECT_GE(o.exploreFrontier, 1);
    EXPECT_LE(o.exploreFrontier, o.explorePoints);
    // routable/fmax describe the best-clock frontier point.
    EXPECT_TRUE(o.routable);
    EXPECT_GT(o.fmax, 0.0);
    EXPECT_GT(o.tasks, 0);
}

TEST(ExecuteRequest, OversizedGraphFileIsInvalidInput)
{
    // A sparse file one byte past the 64 MiB cap: rejected from its
    // size, before a byte is read.
    const std::string path = ::testing::TempDir() + "oversized_" +
                             std::to_string(::getpid()) + ".graph";
    std::filesystem::remove(path);
    { std::ofstream create(path); }
    std::filesystem::resize_file(path, (64ull << 20) + 1);
    serve::Request req = quickRequest("oversized");
    req.graphFile = path;
    const serve::ServeOutcome o = execute(req);
    EXPECT_EQ(o.status.code(), StatusCode::InvalidInput);
    EXPECT_EQ(o.status.message(),
              "graph file '" + path +
                  "' is 67108865 bytes (limit 67108864)");
    std::filesystem::remove(path);
}

TEST(ExecuteRequest, HypercubeOverThreeFpgasIsInvalidInput)
{
    const serve::ParsedManifest m = serve::parseManifest(
        "request cube workload=stencil fpgas=3 topology=hypercube\n");
    ASSERT_TRUE(m.clean());
    const serve::ServeOutcome o = execute(m.requests[0]);
    EXPECT_EQ(o.status.code(), StatusCode::InvalidInput)
        << o.failureReason;
    EXPECT_FALSE(o.routable);
}

TEST(ExecuteRequest, TopologyKeySelectsTheClusterWiring)
{
    const serve::ParsedManifest m = serve::parseManifest(
        "request mesh workload=stencil fpgas=4 topology=mesh\n"
        "request ring workload=stencil fpgas=4\n");
    ASSERT_TRUE(m.clean());
    const serve::Request &req = m.requests[0];
    const serve::ServeOutcome mesh = execute(req);
    const serve::ServeOutcome ring = execute(m.requests[1]);
    ASSERT_TRUE(mesh.status.ok()) << mesh.failureReason;
    ASSERT_TRUE(ring.status.ok()) << ring.failureReason;

    // The same request compiled directly on the 2x2 mesh testbed.
    apps::AppDesign design;
    ASSERT_TRUE(
        apps::buildWorkload(req.workload, req.fpgas, req.scale, &design)
            .ok());
    const Cluster cluster(makeU55C(), Topology(TopologyKind::Mesh2D, 4),
                          1);
    CompileOptions opt;
    opt.mode = req.mode;
    opt.numFpgas = req.fpgas;
    opt.threshold = req.threshold;
    opt.inter.backend = req.solver;
    opt.inter.replicate = req.replicate;
    const CompileResult direct =
        compileProgram(design.graph, design.tasks, cluster, opt);
    ASSERT_TRUE(direct.routable) << direct.failureReason;
    EXPECT_EQ(mesh.resultDigest, serve::resultDigest(direct));
    EXPECT_NE(mesh.resultDigest, ring.resultDigest);
}

TEST(ExecuteRequest, SimulatedRequestReportsMakespan)
{
    serve::Request req = quickRequest("sim");
    req.fpgas = 4;
    req.mode = CompileMode::TapaCs;
    req.simulate = true;
    const serve::ServeOutcome o = execute(req);
    EXPECT_TRUE(o.status.ok()) << o.failureReason;
    EXPECT_TRUE(o.routable);
    EXPECT_TRUE(o.simulated);
    EXPECT_GT(o.simMakespan, 0.0);
}

TEST(ExecuteRequest, ExpiredDeadlineOnSimulatedRequestIsTyped)
{
    serve::Request req = quickRequest("sim-expired");
    req.fpgas = 4;
    req.mode = CompileMode::TapaCs;
    req.simulate = true;
    req.deadlineMs = 1.0e-6; // expires long before the compile ends
    const serve::ServeOutcome o = execute(req);
    // The deadline aborts: a typed reason, no design, no makespan.
    EXPECT_EQ(o.status.code(), StatusCode::DeadlineExceeded)
        << o.failureReason;
    EXPECT_FALSE(o.routable);
    EXPECT_FALSE(o.degraded);
    EXPECT_FALSE(o.simulated);
    EXPECT_EQ(o.simMakespan, 0.0);
}

TEST(ExecuteRequest, GreedyTierSimulatesWithoutAClock)
{
    serve::Request req = quickRequest("sim-greedy");
    req.fpgas = 4;
    req.mode = CompileMode::TapaCs;
    req.simulate = true;
    req.deadlineMs = 0.0;
    const serve::ServeOutcome o = execute(req);
    EXPECT_TRUE(o.status.ok()) << o.failureReason;
    EXPECT_TRUE(o.routable);
    EXPECT_TRUE(o.degraded);
    EXPECT_TRUE(o.simulated);
    EXPECT_GT(o.simMakespan, 0.0);
}

/** The knn F3 request of the deadline sweep below. */
serve::Request
knnRequest(const std::string &name, double deadlineMs)
{
    serve::Request req;
    req.name = name;
    req.workload = "knn";
    req.fpgas = 3;
    req.mode = CompileMode::TapaCs;
    req.deadlineMs = deadlineMs;
    return req;
}

TEST(DeadlineSweep, OkOutcomesCarryTheNoDeadlineDigest)
{
    // A deadline only stops work: over a sweep of deadlines that race
    // a cold compile (about 55 ms on a 4-core x86 host), every Ok
    // outcome is the design of the deadline-free compile and every
    // other outcome is DeadlineExceeded. Each sweep shares one cold
    // disk-tier cache, so aborted compiles run against entries that
    // earlier attempts left behind; none of them may change a design.
    const serve::ServeOutcome reference = execute(knnRequest("ref", -1.0));
    ASSERT_TRUE(reference.status.ok()) << reference.failureReason;
    ASSERT_FALSE(reference.degraded);
    const double deadlines[] = {2, 5, 10, 15, 20, 30, 50, 100, -1};
    for (const int workers : {1, 4}) {
        const std::string dir = ::testing::TempDir() +
                                "robustness_deadline_sweep_" +
                                std::to_string(workers) + "_" +
                                std::to_string(::getpid());
        serve::FleetOptions opt = inProcess(workers);
        opt.cacheDir = dir;
        serve::Supervisor supervisor(opt);
        ASSERT_TRUE(supervisor.start().ok());
        for (const double d : deadlines)
            ASSERT_TRUE(
                supervisor
                    .submit(knnRequest(
                        "k" + std::to_string(static_cast<int>(d)), d))
                    .ok());
        const std::vector<serve::ServeOutcome> outcomes =
            finishOutcomes(supervisor);
        ASSERT_EQ(outcomes.size(), std::size(deadlines));
        for (const serve::ServeOutcome &o : outcomes) {
            if (o.status.ok()) {
                EXPECT_FALSE(o.degraded) << o.name;
                EXPECT_EQ(o.resultDigest, reference.resultDigest)
                    << o.name << " at " << workers << " worker(s)";
            } else {
                EXPECT_EQ(o.status.code(), StatusCode::DeadlineExceeded)
                    << o.name << ": " << o.failureReason;
                EXPECT_FALSE(o.routable) << o.name;
            }
        }
        // The deadline-free request always completes.
        EXPECT_TRUE(outcomes.back().status.ok());
        std::filesystem::remove_all(dir);
    }
}

TEST(DeadlineSweep, ExpiredRequestsCarryNoDigest)
{
    // An aborted compile produced no design, so it has no digest:
    // two different workloads must not share one.
    for (const char *workload : {"knn", "stencil"}) {
        serve::Request req =
            knnRequest(std::string("expired-") + workload, 1.0e-6);
        req.workload = workload;
        const serve::ServeOutcome o = execute(req);
        EXPECT_EQ(o.status.code(), StatusCode::DeadlineExceeded)
            << workload << ": " << o.failureReason;
        EXPECT_EQ(o.resultDigest, 0u) << workload;
    }
}

TEST(DeadlineSweep, GreedyTierIsCachedAndRepeats)
{
    // deadline_ms=0 has no clock, so its result is cached like any
    // other: the second run reads the level-1 and every level-2 entry
    // and returns the same design.
    cache::CacheStore store;
    cache::CompileCache cc(store);
    serve::ExecutePolicy policy;
    policy.cache = &cc;
    const serve::Request req = knnRequest("greedy", 0.0);
    const serve::ServeOutcome first = serve::executeRequest(req, policy);
    const serve::ServeOutcome second = serve::executeRequest(req, policy);
    ASSERT_TRUE(first.status.ok()) << first.failureReason;
    ASSERT_TRUE(second.status.ok()) << second.failureReason;
    EXPECT_TRUE(first.degraded);
    EXPECT_EQ(first.degradedReason, kGreedyTierReason);
    EXPECT_EQ(second.resultDigest, first.resultDigest);

    // The same compile, counted: every lookup of the rerun hits.
    apps::AppDesign app;
    ASSERT_TRUE(apps::buildWorkload("knn", 3, 0, &app).ok());
    const Cluster cluster = makePaperTestbed(3);
    CompileOptions opt;
    opt.mode = CompileMode::TapaCs;
    opt.numFpgas = 3;
    opt.cache = &cc;
    ASSERT_TRUE(applyDeadline(0.0, &opt));
    const CompileResult rerun =
        compileProgram(app.graph, app.tasks, cluster, opt);
    ASSERT_TRUE(rerun.routable) << rerun.failureReason;
    EXPECT_EQ(rerun.cacheMisses, 0);
    EXPECT_EQ(rerun.cacheHits,
              static_cast<std::int64_t>(app.tasks.size()) + 1 +
                  cluster.numDevices());
}

} // namespace
} // namespace tapacs
