/**
 * @file
 * Robustness suite: the error taxonomy (Status/StatusOr), deadline and
 * cancellation plumbing (Context), degraded-mode compile fallbacks,
 * hardened manifest parsing (including a seeded mutation fuzz), and
 * the admission-controlled CompileService (backpressure, shedding,
 * circuit breaker).
 *
 * Everything here must stay deterministic: deadline-0 contexts are
 * pre-expired so the degraded path is taken on the first poll, the
 * fuzz draws from the repo's seeded Rng, and the service tests run
 * single-worker where ordering matters.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "apps/stencil.hh"
#include "common/context.hh"
#include "common/rng.hh"
#include "common/status.hh"
#include "compiler/compiler.hh"
#include "graph/serialize.hh"
#include "ilp/model.hh"
#include "ilp/solver.hh"
#include "network/cluster.hh"
#include "network/protocols.hh"
#include "serve/manifest.hh"
#include "serve/service.hh"

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
    EXPECT_EQ(Status::cancelled("x").code(), StatusCode::Cancelled);
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

TEST(Context, DefaultIsNeverDoneAndCancelIsANoOp)
{
    Context ctx;
    EXPECT_FALSE(ctx.hasDeadline());
    EXPECT_FALSE(ctx.cancellable_token());
    ctx.cancel(); // must be harmless
    EXPECT_FALSE(ctx.done());
    EXPECT_TRUE(ctx.status().ok());
}

TEST(Context, ZeroTimeoutIsDeterministicallyExpired)
{
    // seconds <= 0 pins the deadline in the past, so the very first
    // poll observes expiry — no clock-resolution race.
    const Context zero = Context::withTimeout(0.0);
    EXPECT_TRUE(zero.hasDeadline());
    EXPECT_TRUE(zero.expired());
    EXPECT_TRUE(zero.done());
    EXPECT_EQ(zero.status().code(), StatusCode::DeadlineExceeded);
    EXPECT_LT(zero.remainingSeconds(), 0.0);

    const Context negative = Context::withTimeout(-5.0);
    EXPECT_TRUE(negative.expired());
}

TEST(Context, CancellableObservesCancelAcrossCopies)
{
    const Context ctx = Context::cancellable();
    const Context copy = ctx;
    EXPECT_FALSE(ctx.done());
    copy.cancel();
    EXPECT_TRUE(ctx.cancelled());
    EXPECT_TRUE(ctx.done());
    EXPECT_EQ(ctx.status().code(), StatusCode::Cancelled);
}

TEST(Context, ExpiryOutranksCancellation)
{
    // The serving watchdog *cancels* expired requests; they must still
    // read as DeadlineExceeded, not Cancelled.
    const Context ctx = Context::withTimeout(0.0);
    ctx.cancel();
    EXPECT_TRUE(ctx.cancelled());
    EXPECT_TRUE(ctx.expired());
    EXPECT_EQ(ctx.status().code(), StatusCode::DeadlineExceeded);
}

TEST(Context, BudgetSlicesShareTheParentToken)
{
    const Context parent = Context::withTimeout(3600.0);
    const Context slice = parent.withBudget(-1.0);
    EXPECT_TRUE(slice.expired());  // sooner of the two deadlines
    EXPECT_FALSE(parent.expired());

    const Context child = parent.withBudget(1800.0);
    EXPECT_LE(child.deadline(), parent.deadline());
    parent.cancel();
    EXPECT_TRUE(child.cancelled()); // shared token
}

// ---- ReliableTransport config validation (regression) ----------------

TEST(ReliableTransportConfig, InvalidPolicyIsTypedNotFatal)
{
    // Regression: a negative retry budget used to fatal() out of the
    // constructor; it must now be a typed InvalidInput everywhere.
    ReliableTransportConfig cfg;
    cfg.maxRetries = -1;
    EXPECT_EQ(cfg.validate().code(), StatusCode::InvalidInput);

    const StatusOr<ReliableTransport> made =
        ReliableTransport::create(cfg, nullptr);
    ASSERT_FALSE(made.ok());
    EXPECT_EQ(made.status().code(), StatusCode::InvalidInput);

    // Direct construction survives, sanitizes, and records the defect.
    const ReliableTransport tr(cfg, nullptr);
    EXPECT_EQ(tr.status().code(), StatusCode::InvalidInput);

    ReliableTransportConfig inverted;
    inverted.backoffBase = 1.0;
    inverted.backoffCap = 0.5; // cap below base
    EXPECT_EQ(inverted.validate().code(), StatusCode::InvalidInput);

    EXPECT_TRUE(ReliableTransportConfig{}.validate().ok());
}

TEST(ReliableTransportConfig, BoundedBackoffIsMonotoneAndCapped)
{
    ReliableTransportConfig cfg;
    cfg.backoffBase = 1.0e-3;
    cfg.backoffCap = 1.0e-2;
    EXPECT_DOUBLE_EQ(boundedBackoff(cfg, 0), cfg.backoffBase);
    double prev = 0.0;
    for (int attempt = 0; attempt < 64; ++attempt) {
        const double b = boundedBackoff(cfg, attempt);
        EXPECT_GE(b, prev);
        EXPECT_LE(b, cfg.backoffCap);
        prev = b;
    }
    EXPECT_DOUBLE_EQ(boundedBackoff(cfg, 63), cfg.backoffCap);
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

// ---- Deadline / cancellation through the compile flow ----------------

TEST(Robustness, TightDeadlineStillYieldsFeasibleDegradedResult)
{
    apps::AppDesign app =
        apps::buildStencil(apps::StencilConfig::scaled(64, 2));
    const Cluster cluster = makePaperTestbed(4);
    CompileOptions opt;
    opt.mode = CompileMode::TapaCs;
    opt.numFpgas = 4;
    opt.ctx = Context::withTimeout(0.0); // already expired
    const CompileResult r =
        compileProgram(app.graph, app.tasks, cluster, opt);
    EXPECT_TRUE(r.status.ok()) << r.status.message();
    EXPECT_TRUE(r.routable) << r.failureReason;
    EXPECT_TRUE(r.degraded);
    EXPECT_FALSE(r.degradedReason.empty());
    EXPECT_GT(r.fmax, 0.0);
}

TEST(Robustness, CancellationBoundsSolverNodeExpansions)
{
    // A pre-cancelled context must stop branch-and-bound within a
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

    ilp::SolverOptions cancelled;
    cancelled.ctx = Context::cancellable();
    cancelled.ctx.cancel();
    ilp::BranchBoundSolver stopped(cancelled);
    stopped.solve(m);
    EXPECT_TRUE(stopped.stats().interrupted);
    EXPECT_LE(stopped.stats().nodesExplored, 1);

    // Control: the same model solved uninterrupted explores real work.
    ilp::BranchBoundSolver full;
    const ilp::Solution s = full.solve(m);
    EXPECT_EQ(s.status, ilp::SolveStatus::Optimal);
    EXPECT_FALSE(full.stats().interrupted);
    EXPECT_GT(full.stats().nodesExplored,
              stopped.stats().nodesExplored);
}

TEST(Robustness, DegradedFallbackIsDeterministicAcrossThreadCounts)
{
    // The deadline-0 fallback chain must not depend on worker count:
    // greedy partitioning and the refinement passes are serial by
    // construction once the ILP tier is skipped.
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
        opt.ctx = Context::withTimeout(0.0);
        results[i] = compileProgram(app.graph, app.tasks, cluster, opt);
        ASSERT_TRUE(results[i].routable) << results[i].failureReason;
        ASSERT_TRUE(results[i].degraded);
    }
    EXPECT_EQ(results[0].partition.deviceOf,
              results[1].partition.deviceOf);
    EXPECT_DOUBLE_EQ(results[0].fmax, results[1].fmax);
    EXPECT_DOUBLE_EQ(results[0].cutTrafficBytes,
                     results[1].cutTrafficBytes);
}

// ---- CompileService --------------------------------------------------

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

TEST(CompileService, BackpressureAdmitsEverythingEventually)
{
    serve::ServeOptions sopt;
    sopt.threads = 1;
    sopt.maxQueue = 1;
    sopt.blockOnFull = true; // submit() waits instead of shedding
    serve::CompileService service(sopt);
    constexpr int kRequests = 5;
    for (int i = 0; i < kRequests; ++i)
        EXPECT_TRUE(
            service.submit(quickRequest("r" + std::to_string(i))).ok());
    const std::vector<serve::ServeOutcome> outcomes = service.finish();
    ASSERT_EQ(outcomes.size(), static_cast<std::size_t>(kRequests));
    for (const serve::ServeOutcome &o : outcomes) {
        EXPECT_TRUE(o.status.ok()) << o.failureReason;
        EXPECT_TRUE(o.routable);
        EXPECT_EQ(o.attempts, 1);
    }
}

TEST(CompileService, FullQueueShedsWithResourceExhausted)
{
    serve::ServeOptions sopt;
    sopt.threads = 1;
    sopt.maxQueue = 1;
    sopt.blockOnFull = false;
    serve::CompileService service(sopt);
    int admitted = 0;
    int shed = 0;
    constexpr int kRequests = 16;
    for (int i = 0; i < kRequests; ++i) {
        const Status st =
            service.submit(quickRequest("r" + std::to_string(i)));
        if (st.ok()) {
            ++admitted;
        } else {
            EXPECT_EQ(st.code(), StatusCode::ResourceExhausted);
            ++shed;
        }
    }
    EXPECT_EQ(admitted + shed, kRequests);
    // The single worker compiles in milliseconds while submissions
    // arrive in microseconds; with a queue bound of one, most of the
    // burst must shed.
    EXPECT_GE(shed, 1);
    EXPECT_GE(admitted, 1);
    const std::vector<serve::ServeOutcome> outcomes = service.finish();
    // Every admitted request — and only those — produced an outcome.
    EXPECT_EQ(outcomes.size(), static_cast<std::size_t>(admitted));
    for (const serve::ServeOutcome &o : outcomes)
        EXPECT_TRUE(o.status.ok()) << o.failureReason;
}

TEST(CompileService, CircuitBreakerShedsAfterConsecutiveFailures)
{
    serve::ServeOptions sopt;
    sopt.threads = 1; // serial drain: breaker transitions are ordered
    sopt.breakerThreshold = 2;
    sopt.breakerProbeEvery = 100; // no probe within this test
    serve::CompileService service(sopt);
    constexpr int kRequests = 6;
    for (int i = 0; i < kRequests; ++i) {
        serve::Request req;
        req.name = "bad" + std::to_string(i);
        req.graphFile = "/nonexistent/robustness-breaker.graph";
        ASSERT_TRUE(service.submit(req).ok());
    }
    const std::vector<serve::ServeOutcome> outcomes = service.finish();
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

TEST(CompileService, ExpiredDeadlineStillReturnsDegradedResult)
{
    serve::ServeOptions sopt;
    sopt.threads = 2;
    serve::CompileService service(sopt);
    serve::Request tight = quickRequest("tight");
    tight.workload = "stencil";
    tight.fpgas = 4;
    tight.mode = CompileMode::TapaCs;
    tight.deadlineMs = 0.0; // pre-expired: deterministic degraded path
    ASSERT_TRUE(service.submit(tight).ok());
    ASSERT_TRUE(service.submit(quickRequest("easy")).ok());
    const std::vector<serve::ServeOutcome> outcomes = service.finish();
    ASSERT_EQ(outcomes.size(), 2u);
    const serve::ServeOutcome &t = outcomes[0];
    EXPECT_TRUE(t.status.ok()) << t.failureReason;
    EXPECT_TRUE(t.routable);
    EXPECT_TRUE(t.degraded);
    EXPECT_FALSE(t.degradedReason.empty());
    EXPECT_TRUE(outcomes[1].status.ok());
    EXPECT_FALSE(outcomes[1].degraded);
}

TEST(CompileService, FinishUnblocksSubmitterBlockedOnFullQueue)
{
    serve::ServeOptions sopt;
    sopt.threads = 1;
    sopt.maxQueue = 1;
    sopt.blockOnFull = true;
    serve::CompileService service(sopt);
    ASSERT_TRUE(service.submit(quickRequest("seed")).ok());
    std::atomic<int> admitted{1};
    std::atomic<int> closed{0};
    std::thread submitter([&]() {
        for (int i = 0; i < 64; ++i) {
            const Status st =
                service.submit(quickRequest("r" + std::to_string(i)));
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
    const std::vector<serve::ServeOutcome> outcomes = service.finish();
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

TEST(CompileService, PagerankScaleChangesTheWorkload)
{
    serve::ServeOptions sopt;
    sopt.threads = 1;
    serve::CompileService service(sopt);
    serve::Request base;
    base.name = "pr-default";
    base.workload = "pagerank";
    base.fpgas = 2;
    base.mode = CompileMode::TapaCs;
    base.deadlineMs = 0.0; // degraded path: fast and deterministic
    serve::Request scaled = base;
    scaled.name = "pr-scaled";
    scaled.scale = 100'000; // synthetic 100k-node dataset
    ASSERT_TRUE(service.submit(base).ok());
    ASSERT_TRUE(service.submit(scaled).ok());
    const std::vector<serve::ServeOutcome> outcomes = service.finish();
    ASSERT_EQ(outcomes.size(), 2u);
    for (const serve::ServeOutcome &o : outcomes) {
        EXPECT_TRUE(o.status.ok()) << o.failureReason;
        EXPECT_TRUE(o.routable);
    }
    // The synthetic dataset is far smaller than the Table 5 default,
    // so the edge-stream traffic over the cut must differ.
    EXPECT_NE(outcomes[0].cutTrafficBytes, outcomes[1].cutTrafficBytes);
}

TEST(CompileService, ExploreRequestSweepsAndReportsTheFrontier)
{
    serve::ServeOptions sopt;
    sopt.threads = 1;
    serve::CompileService service(sopt);
    const serve::ParsedManifest m = serve::parseManifest(
        "request sweep workload=stencil fpgas=4 explore=1 "
        "t=0.6,0.7 depth=1,2\n");
    ASSERT_TRUE(m.clean());
    ASSERT_EQ(m.requests.size(), 1u);
    ASSERT_TRUE(service.submit(m.requests[0]).ok());
    const std::vector<serve::ServeOutcome> outcomes = service.finish();
    ASSERT_EQ(outcomes.size(), 1u);
    const serve::ServeOutcome &o = outcomes[0];
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

TEST(CompileService, SimulatedRequestReportsMakespan)
{
    serve::ServeOptions sopt;
    sopt.threads = 1;
    serve::CompileService service(sopt);
    serve::Request req = quickRequest("sim");
    req.fpgas = 4;
    req.mode = CompileMode::TapaCs;
    req.simulate = true;
    ASSERT_TRUE(service.submit(req).ok());
    const std::vector<serve::ServeOutcome> outcomes = service.finish();
    ASSERT_EQ(outcomes.size(), 1u);
    const serve::ServeOutcome &o = outcomes[0];
    EXPECT_TRUE(o.status.ok()) << o.failureReason;
    EXPECT_TRUE(o.routable);
    EXPECT_TRUE(o.simulated);
    EXPECT_GT(o.simMakespan, 0.0);
}

TEST(CompileService, ExpiredDeadlineOnSimulatedRequestIsTyped)
{
    serve::ServeOptions sopt;
    sopt.threads = 1;
    serve::CompileService service(sopt);
    serve::Request req = quickRequest("sim-expired");
    req.fpgas = 4;
    req.mode = CompileMode::TapaCs;
    req.simulate = true;
    req.deadlineMs = 0.0; // pre-expired: deterministic abort path
    ASSERT_TRUE(service.submit(req).ok());
    const std::vector<serve::ServeOutcome> outcomes = service.finish();
    ASSERT_EQ(outcomes.size(), 1u);
    const serve::ServeOutcome &o = outcomes[0];
    // The compile tier degrades and still routes; the simulation then
    // observes the expired context on its first poll and reports the
    // typed reason with whatever partial stats it gathered.
    EXPECT_TRUE(o.routable);
    EXPECT_TRUE(o.simulated);
    EXPECT_EQ(o.status.code(), StatusCode::DeadlineExceeded)
        << o.failureReason;
}

TEST(CompileService, RetriesAreBoundedAndCounted)
{
    serve::ServeOptions sopt;
    sopt.threads = 1;
    sopt.maxRetries = 2;
    sopt.retryPolicy.backoffBase = 1.0e-4;
    sopt.retryPolicy.backoffCap = 1.0e-3;
    serve::CompileService service(sopt);
    // InvalidInput is not retryable: exactly one attempt.
    serve::Request bad;
    bad.name = "invalid";
    bad.graphFile = "/nonexistent/never.graph";
    ASSERT_TRUE(service.submit(bad).ok());
    const std::vector<serve::ServeOutcome> outcomes = service.finish();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status.code(), StatusCode::InvalidInput);
    EXPECT_EQ(outcomes[0].attempts, 1);
}

} // namespace
} // namespace tapacs
