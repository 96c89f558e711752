/**
 * @file
 * Differential and determinism tests for the basis-reusing LP engine
 * under branch-and-bound:
 *  - every node LP of the four paper F4 compiles (the level-1 coarse
 *    ILP and every level-2 bisection) re-solved by the reference
 *    two-phase simplex, with equal status and objective;
 *  - a randomized property against the exhaustive oracle on small
 *    bounded MILPs;
 *  - a CNN F4 compile that stays bit-identical with every core busy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>

#include "apps/cnn.hh"
#include "apps/knn.hh"
#include "apps/pagerank.hh"
#include "apps/stencil.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "compiler/compiler.hh"
#include "ilp/solver.hh"
#include "reference_simplex.hh"
#include "serve/execute.hh"

namespace tapacs
{
namespace
{

bool
closeRelative(double a, double b)
{
    return std::abs(a - b) <=
           1e-6 * std::max({1.0, std::abs(a), std::abs(b)});
}

/** Node LPs seen by an auditing observer and how many disagreed. */
struct NodeAudit
{
    int solves = 0;
    int mismatches = 0;
    std::string first;
};

/** @p base plus an observer re-solving each node with the reference. */
ilp::SolverOptions
audited(ilp::SolverOptions base, NodeAudit *audit)
{
    base.nodeObserver = [audit](const ilp::Model &m,
                                const std::vector<double> &lo,
                                const std::vector<double> &hi,
                                const ilp::LpResult &warm) {
        const ilp::LpResult ref = ilp::reference::solveLp(m, lo, hi);
        ++audit->solves;
        const bool same =
            ref.status == warm.status &&
            (warm.status != ilp::SolveStatus::Optimal ||
             closeRelative(ref.objective, warm.objective));
        if (!same && audit->mismatches++ == 0) {
            audit->first = strprintf(
                "node %d (%d rows): engine %s %.9g, reference %s %.9g",
                audit->solves, m.numConstraints(), toString(warm.status),
                warm.objective, toString(ref.status), ref.objective);
        }
    };
    return base;
}

apps::AppDesign
paperDesign(const std::string &name)
{
    constexpr int kFpgas = 4;
    if (name == "stencil")
        return apps::buildStencil(apps::StencilConfig::scaled(64, kFpgas));
    if (name == "pagerank")
        return apps::buildPageRank(apps::PageRankConfig::scaled(
            apps::pagerankDataset("cit-Patents"), kFpgas));
    if (name == "knn")
        return apps::buildKnn(apps::KnnConfig::scaled(4'000'000, 2, kFpgas));
    return apps::buildCnn(apps::CnnConfig::scaled(kFpgas));
}

CompileOptions
paperOptions(const apps::AppDesign &app)
{
    CompileOptions opt;
    opt.mode = CompileMode::TapaCs;
    opt.numFpgas = 4;
    opt.vitisPrePipelined = app.prePipelined;
    return opt;
}

class PaperNodeLps : public ::testing::TestWithParam<const char *>
{
};

TEST_P(PaperNodeLps, WarmEngineMatchesReferenceOnEveryNode)
{
    apps::AppDesign app = paperDesign(GetParam());
    const Cluster cluster = makePaperTestbed(4);
    const CompileOptions plain = paperOptions(app);
    const CompileResult expected =
        compileProgram(app.graph, app.tasks, cluster, plain);
    ASSERT_TRUE(expected.routable) << expected.failureReason;

    // Devices are placed one at a time so the observers run serially.
    NodeAudit l1, l2;
    CompileOptions opt = plain;
    opt.numThreads = 1;
    opt.inter.solver = audited(opt.inter.solver, &l1);
    opt.intra.solver = audited(opt.intra.solver, &l2);
    const CompileResult r = compileProgram(app.graph, app.tasks, cluster, opt);
    ASSERT_TRUE(r.routable) << r.failureReason;

    EXPECT_EQ(l1.solves, r.l1SolverStats.lpSolves);
    EXPECT_EQ(l2.solves, r.l2SolverStats.lpSolves);
    EXPECT_GT(l1.solves, 0);
    EXPECT_GT(l2.solves, 0);
    EXPECT_EQ(l1.mismatches, 0) << l1.first;
    EXPECT_EQ(l2.mismatches, 0) << l2.first;
    // Observing the search must not steer it.
    EXPECT_EQ(r.partition.deviceOf, expected.partition.deviceOf);
    EXPECT_EQ(serve::resultDigest(r), serve::resultDigest(expected));
}

INSTANTIATE_TEST_SUITE_P(F4, PaperNodeLps,
                         ::testing::Values("stencil", "pagerank", "knn",
                                           "cnn"));

/** Small bounded MILP: binaries, small general integers and boxed
 *  continuous variables under mixed-sense random rows. */
ilp::Model
randomBoundedMilp(std::uint64_t seed)
{
    Rng rng(seed);
    ilp::Model m;
    const int n = 3 + static_cast<int>(rng.uniformInt(0, 4));
    for (int i = 0; i < n; ++i) {
        switch (rng.uniformInt(0, 2)) {
          case 0: m.addBinary(); break;
          case 1:
            m.addVar(ilp::VarKind::Integer, 0.0,
                     static_cast<double>(rng.uniformInt(1, 3)));
            break;
          default:
            m.addVar(ilp::VarKind::Continuous, 0.0,
                     rng.uniformReal(0.5, 4.0));
            break;
        }
    }
    const int rows = 1 + static_cast<int>(rng.uniformInt(0, 3));
    for (int r = 0; r < rows; ++r) {
        ilp::LinExpr e;
        for (int i = 0; i < n; ++i) {
            if (rng.bernoulli(0.7))
                e.add(i, rng.uniformReal(-2.0, 3.0));
        }
        const bool le = rng.bernoulli(0.7);
        m.addConstraint(std::move(e),
                        le ? ilp::Sense::LessEqual
                           : ilp::Sense::GreaterEqual,
                        le ? rng.uniformReal(1.0, 6.0)
                           : rng.uniformReal(-2.0, 2.0));
    }
    ilp::LinExpr obj;
    for (int i = 0; i < n; ++i)
        obj.add(i, rng.uniformReal(-5.0, 4.0));
    m.setObjective(std::move(obj));
    return m;
}

TEST(LpEngineProperty, BranchBoundMatchesExhaustiveOn200BoundedMilps)
{
    int solved = 0;
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        const ilp::Model m = randomBoundedMilp(5000 + seed);
        const ilp::Solution truth = ilp::ExhaustiveSolver().solve(m);
        ilp::BranchBoundSolver solver;
        const ilp::Solution s = solver.solve(m);
        ASSERT_EQ(truth.hasSolution(), s.hasSolution()) << "seed " << seed;
        if (!truth.hasSolution())
            continue;
        ++solved;
        EXPECT_EQ(s.status, ilp::SolveStatus::Optimal) << "seed " << seed;
        EXPECT_NEAR(s.objective, truth.objective, 1e-5) << "seed " << seed;
        EXPECT_TRUE(m.isFeasible(s.values, 1e-5)) << "seed " << seed;
        EXPECT_EQ(solver.stats().coldFallbacks, 0) << "seed " << seed;
    }
    // The generator must exercise feasible models, not only rejects.
    EXPECT_GT(solved, 100);
}

TEST(LpEngineDeterminism, CnnF4IdenticalWithEveryCoreBusy)
{
    apps::AppDesign app = paperDesign("cnn");
    const Cluster cluster = makePaperTestbed(4);
    const CompileOptions opt = paperOptions(app);
    const CompileResult quiet =
        compileProgram(app.graph, app.tasks, cluster, opt);
    ASSERT_TRUE(quiet.routable) << quiet.failureReason;

    std::atomic<bool> stop{false};
    std::vector<std::thread> burners;
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < cores; ++i) {
        burners.emplace_back([&stop] {
            volatile double x = 1.0;
            while (!stop.load(std::memory_order_relaxed))
                x = x * 1.0000001 + 1e-9;
        });
    }
    const CompileResult loaded =
        compileProgram(app.graph, app.tasks, cluster, opt);
    stop.store(true);
    for (std::thread &t : burners)
        t.join();
    ASSERT_TRUE(loaded.routable) << loaded.failureReason;

    EXPECT_EQ(quiet.partition.deviceOf, loaded.partition.deviceOf);
    ASSERT_EQ(quiet.placement.slotOf.size(), loaded.placement.slotOf.size());
    for (size_t v = 0; v < quiet.placement.slotOf.size(); ++v) {
        EXPECT_EQ(quiet.placement.slotOf[v].col,
                  loaded.placement.slotOf[v].col) << "vertex " << v;
        EXPECT_EQ(quiet.placement.slotOf[v].row,
                  loaded.placement.slotOf[v].row) << "vertex " << v;
    }
    EXPECT_EQ(serve::resultDigest(quiet), serve::resultDigest(loaded));
    EXPECT_EQ(quiet.l1SolverStats.nodesExplored,
              loaded.l1SolverStats.nodesExplored);
    EXPECT_EQ(quiet.l1SolverStats.lpIterations,
              loaded.l1SolverStats.lpIterations);
    EXPECT_EQ(quiet.l2SolverStats.lpIterations,
              loaded.l2SolverStats.lpIterations);
}

} // namespace
} // namespace tapacs
