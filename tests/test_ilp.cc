/**
 * @file
 * Tests for the ILP substrate: model building, the simplex LP core,
 * and branch-and-bound — including randomized property tests checked
 * against the exhaustive oracle.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "ilp/model.hh"
#include "ilp/simplex.hh"
#include "ilp/solver.hh"

namespace tapacs::ilp
{
namespace
{

TEST(LinExpr, NormalizeMergesDuplicates)
{
    LinExpr e;
    e.add(0, 1.0).add(1, 2.0).add(0, 3.0).add(2, 0.0);
    e.normalize();
    ASSERT_EQ(e.terms().size(), 2u);
    EXPECT_DOUBLE_EQ(e.terms()[0].coeff, 4.0);
    EXPECT_DOUBLE_EQ(e.terms()[1].coeff, 2.0);
}

TEST(LinExpr, EvaluateWithConstant)
{
    LinExpr e(5.0);
    e.add(0, 2.0).add(1, -1.0);
    EXPECT_DOUBLE_EQ(e.evaluate({3.0, 4.0}), 2.0 * 3 - 4 + 5);
}

TEST(Model, FeasibilityCheck)
{
    Model m;
    const VarId x = m.addBinary("x");
    const VarId y = m.addContinuous(0.0, "y");
    LinExpr c;
    c.add(x, 1.0).add(y, 1.0);
    m.addConstraint(std::move(c), Sense::LessEqual, 2.0);

    EXPECT_TRUE(m.isFeasible({1.0, 1.0}));
    EXPECT_FALSE(m.isFeasible({1.0, 1.5})); // violates <= 2
    EXPECT_FALSE(m.isFeasible({0.5, 0.0})); // fractional binary
    EXPECT_FALSE(m.isFeasible({1.0, -0.5})); // below lower bound
    EXPECT_FALSE(m.isFeasible({1.0}));       // wrong arity
}

TEST(Model, IntegerVarListing)
{
    Model m;
    m.addContinuous(0.0);
    const VarId b = m.addBinary();
    const VarId i = m.addVar(VarKind::Integer, 0.0, 10.0);
    const auto ints = m.integerVars();
    ASSERT_EQ(ints.size(), 2u);
    EXPECT_EQ(ints[0], b);
    EXPECT_EQ(ints[1], i);
}

// ---- Simplex ---------------------------------------------------------

TEST(Simplex, SolvesTextbookLp)
{
    // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
    // => min -3x -5y; optimum at (2, 6), objective -36.
    Model m;
    const VarId x = m.addContinuous(0.0, "x");
    const VarId y = m.addContinuous(0.0, "y");
    m.addConstraint(LinExpr().add(x, 1.0), Sense::LessEqual, 4.0);
    m.addConstraint(LinExpr().add(y, 2.0), Sense::LessEqual, 12.0);
    m.addConstraint(LinExpr().add(x, 3.0).add(y, 2.0), Sense::LessEqual,
                    18.0);
    m.setObjective(LinExpr().add(x, -3.0).add(y, -5.0));

    LpResult r = solveLp(m);
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_NEAR(r.objective, -36.0, 1e-6);
    EXPECT_NEAR(r.values[x], 2.0, 1e-6);
    EXPECT_NEAR(r.values[y], 6.0, 1e-6);
}

TEST(Simplex, DetectsInfeasible)
{
    Model m;
    const VarId x = m.addContinuous(0.0);
    m.addConstraint(LinExpr().add(x, 1.0), Sense::LessEqual, 1.0);
    m.addConstraint(LinExpr().add(x, 1.0), Sense::GreaterEqual, 2.0);
    m.setObjective(LinExpr().add(x, 1.0));
    EXPECT_EQ(solveLp(m).status, SolveStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded)
{
    Model m;
    const VarId x = m.addContinuous(0.0);
    m.addConstraint(LinExpr().add(x, 1.0), Sense::GreaterEqual, 1.0);
    m.setObjective(LinExpr().add(x, -1.0)); // minimize -x, x unbounded
    EXPECT_EQ(solveLp(m).status, SolveStatus::Unbounded);
}

TEST(Simplex, HandlesEqualityConstraints)
{
    // min x + y s.t. x + y = 5, x - y = 1 => (3, 2).
    Model m;
    const VarId x = m.addContinuous(0.0);
    const VarId y = m.addContinuous(0.0);
    m.addConstraint(LinExpr().add(x, 1.0).add(y, 1.0), Sense::Equal, 5.0);
    m.addConstraint(LinExpr().add(x, 1.0).add(y, -1.0), Sense::Equal, 1.0);
    m.setObjective(LinExpr().add(x, 1.0).add(y, 1.0));
    LpResult r = solveLp(m);
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_NEAR(r.values[x], 3.0, 1e-6);
    EXPECT_NEAR(r.values[y], 2.0, 1e-6);
}

TEST(Simplex, RespectsVariableBounds)
{
    // min x with 2 <= x <= 7 -> 2; max (min -x) -> 7.
    Model m;
    const VarId x = m.addVar(VarKind::Continuous, 2.0, 7.0);
    m.setObjective(LinExpr().add(x, 1.0));
    LpResult lo = solveLp(m);
    ASSERT_EQ(lo.status, SolveStatus::Optimal);
    EXPECT_NEAR(lo.values[x], 2.0, 1e-6);

    m.setObjective(LinExpr().add(x, -1.0));
    LpResult hi = solveLp(m);
    ASSERT_EQ(hi.status, SolveStatus::Optimal);
    EXPECT_NEAR(hi.values[x], 7.0, 1e-6);
}

TEST(Simplex, BoundOverridesShrinkFeasibleSet)
{
    Model m;
    const VarId x = m.addVar(VarKind::Continuous, 0.0, 10.0);
    m.setObjective(LinExpr().add(x, -1.0)); // maximize x
    LpResult r = solveLp(m, {0.0}, {4.0});
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_NEAR(r.values[x], 4.0, 1e-6);

    // Crossed override bounds -> infeasible.
    EXPECT_EQ(solveLp(m, {5.0}, {4.0}).status, SolveStatus::Infeasible);
}

TEST(Simplex, NegativeRhsNormalization)
{
    // x - y <= -2 with minimize x + y -> x=0, y=2.
    Model m;
    const VarId x = m.addContinuous(0.0);
    const VarId y = m.addContinuous(0.0);
    m.addConstraint(LinExpr().add(x, 1.0).add(y, -1.0), Sense::LessEqual,
                    -2.0);
    m.setObjective(LinExpr().add(x, 1.0).add(y, 1.0));
    LpResult r = solveLp(m);
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_NEAR(r.objective, 2.0, 1e-6);
}

/** Random LPs: any feasible sample must score no better than the
 *  simplex optimum. */
class SimplexProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(SimplexProperty, OptimumDominatesRandomFeasiblePoints)
{
    Rng rng(1000 + GetParam());
    Model m;
    const int n = 3 + GetParam() % 4;
    for (int i = 0; i < n; ++i)
        m.addVar(VarKind::Continuous, 0.0, 10.0);
    const int rows = 2 + GetParam() % 5;
    for (int r = 0; r < rows; ++r) {
        LinExpr e;
        for (int i = 0; i < n; ++i)
            e.add(i, rng.uniformReal(0.0, 2.0));
        m.addConstraint(std::move(e), Sense::LessEqual,
                        rng.uniformReal(5.0, 30.0));
    }
    LinExpr obj;
    for (int i = 0; i < n; ++i)
        obj.add(i, rng.uniformReal(-2.0, 1.0));
    m.setObjective(std::move(obj));

    LpResult r = solveLp(m);
    ASSERT_EQ(r.status, SolveStatus::Optimal) << "seed " << GetParam();
    EXPECT_TRUE(m.isFeasible(r.values, 1e-5));

    for (int trial = 0; trial < 200; ++trial) {
        std::vector<double> pt(n);
        for (int i = 0; i < n; ++i)
            pt[i] = rng.uniformReal(0.0, 10.0);
        if (m.isFeasible(pt, 0.0)) {
            EXPECT_GE(m.objective().evaluate(pt), r.objective - 1e-6);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RandomLps, SimplexProperty,
                         ::testing::Range(0, 20));

// ---- Branch and bound --------------------------------------------------

TEST(BranchBound, SolvesSmallKnapsack)
{
    // max 10a + 13b + 7c, weights 3a + 4b + 2c <= 6: best is b + c
    // (weight 6, value 20).
    Model m;
    const VarId a = m.addBinary("a");
    const VarId b = m.addBinary("b");
    const VarId c = m.addBinary("c");
    m.addConstraint(
        LinExpr().add(a, 3.0).add(b, 4.0).add(c, 2.0),
        Sense::LessEqual, 6.0);
    m.setObjective(LinExpr().add(a, -10.0).add(b, -13.0).add(c, -7.0));

    BranchBoundSolver solver;
    Solution s = solver.solve(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, -20.0, 1e-6);
    EXPECT_EQ(s.round(a), 0);
    EXPECT_EQ(s.round(b), 1);
    EXPECT_EQ(s.round(c), 1);
}

TEST(BranchBound, IntegerInfeasibleDetected)
{
    // 2x = 3 with x integer has no solution.
    Model m;
    const VarId x = m.addVar(VarKind::Integer, 0.0, 10.0);
    m.addConstraint(LinExpr().add(x, 2.0), Sense::Equal, 3.0);
    m.setObjective(LinExpr().add(x, 1.0));
    BranchBoundSolver solver;
    EXPECT_EQ(solver.solve(m).status, SolveStatus::Infeasible);
}

TEST(BranchBound, WarmStartPrunes)
{
    Model m;
    std::vector<VarId> x;
    for (int i = 0; i < 10; ++i)
        x.push_back(m.addBinary());
    LinExpr cap;
    LinExpr obj;
    for (int i = 0; i < 10; ++i) {
        cap.add(x[i], 1.0 + (i % 3));
        obj.add(x[i], -(2.0 + (i % 5)));
    }
    m.addConstraint(std::move(cap), Sense::LessEqual, 9.0);
    m.setObjective(std::move(obj));

    // Warm start: pick the first few items.
    std::vector<double> warm(10, 0.0);
    warm[0] = warm[1] = warm[2] = 1.0;
    ASSERT_TRUE(m.isFeasible(warm));

    BranchBoundSolver cold;
    Solution cold_sol = cold.solve(m);
    BranchBoundSolver hot;
    Solution hot_sol = hot.solve(m, warm);
    ASSERT_TRUE(cold_sol.hasSolution());
    ASSERT_TRUE(hot_sol.hasSolution());
    EXPECT_NEAR(cold_sol.objective, hot_sol.objective, 1e-6);
}

TEST(BranchBound, MixedIntegerContinuous)
{
    // min -x - 10y, x integer in [0,3], y continuous, x + 4y <= 5.
    Model m;
    const VarId x = m.addVar(VarKind::Integer, 0.0, 3.0);
    const VarId y = m.addContinuous(0.0);
    m.addConstraint(LinExpr().add(x, 1.0).add(y, 4.0), Sense::LessEqual,
                    5.0);
    m.setObjective(LinExpr().add(x, -1.0).add(y, -10.0));
    BranchBoundSolver solver;
    Solution s = solver.solve(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    // y = 5/4 at x = 0 gives -12.5; x=1 -> y=1 -> -11; so x=0.
    EXPECT_NEAR(s.objective, -12.5, 1e-6);
}

TEST(Exhaustive, MatchesKnownOptimum)
{
    Model m;
    const VarId a = m.addBinary();
    const VarId b = m.addBinary();
    m.addConstraint(LinExpr().add(a, 1.0).add(b, 1.0), Sense::LessEqual,
                    1.0);
    m.setObjective(LinExpr().add(a, -3.0).add(b, -2.0));
    ExhaustiveSolver oracle;
    Solution s = oracle.solve(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, -3.0, 1e-6);
}

/** Randomized cross-check: branch-and-bound must match the
 *  exhaustive oracle on random small MILPs. */
class BnbVsOracle : public ::testing::TestWithParam<int>
{
};

TEST_P(BnbVsOracle, SameOptimum)
{
    Rng rng(77 + GetParam() * 13);
    Model m;
    const int n = 4 + GetParam() % 5;
    for (int i = 0; i < n; ++i)
        m.addBinary();
    const int rows = 2 + GetParam() % 3;
    for (int r = 0; r < rows; ++r) {
        LinExpr e;
        for (int i = 0; i < n; ++i)
            e.add(i, rng.uniformReal(0.0, 3.0));
        m.addConstraint(std::move(e), Sense::LessEqual,
                        rng.uniformReal(2.0, 8.0));
    }
    LinExpr obj;
    for (int i = 0; i < n; ++i)
        obj.add(i, rng.uniformReal(-5.0, 2.0));
    m.setObjective(std::move(obj));

    ExhaustiveSolver oracle;
    Solution truth = oracle.solve(m);
    BranchBoundSolver solver;
    Solution s = solver.solve(m);

    ASSERT_EQ(truth.hasSolution(), s.hasSolution())
        << "seed " << GetParam();
    if (truth.hasSolution()) {
        EXPECT_NEAR(s.objective, truth.objective, 1e-5)
            << "seed " << GetParam();
        EXPECT_TRUE(m.isFeasible(s.values, 1e-5));
    }
}

INSTANTIATE_TEST_SUITE_P(RandomMilps, BnbVsOracle,
                         ::testing::Range(0, 25));

TEST(BranchBound, GeneralIntegerBounds)
{
    // min -x - 2y with x in [0,7] integer, y in [0,3] integer,
    // x + 2y <= 9: optimum picks y = 3 first (coefficient 2), then
    // x = 3 -> objective -9.
    Model m;
    const VarId x = m.addVar(VarKind::Integer, 0.0, 7.0, "x");
    const VarId y = m.addVar(VarKind::Integer, 0.0, 3.0, "y");
    m.addConstraint(LinExpr().add(x, 1.0).add(y, 2.0), Sense::LessEqual,
                    9.0);
    m.setObjective(LinExpr().add(x, -1.0).add(y, -2.0));
    BranchBoundSolver solver;
    Solution s = solver.solve(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, -9.0, 1e-6);
    ExhaustiveSolver oracle;
    EXPECT_NEAR(oracle.solve(m).objective, s.objective, 1e-6);
}

TEST(BranchBound, NodeLimitKeepsWarmIncumbent)
{
    // A deliberately tiny node budget: the solver must still return
    // the seeded incumbent as Feasible rather than nothing.
    Model m;
    std::vector<VarId> x;
    for (int i = 0; i < 30; ++i)
        x.push_back(m.addBinary());
    LinExpr cap, obj;
    for (int i = 0; i < 30; ++i) {
        cap.add(x[i], 1.0 + (i % 4));
        obj.add(x[i], -(1.0 + (i % 7)));
    }
    m.addConstraint(std::move(cap), Sense::LessEqual, 20.0);
    m.setObjective(std::move(obj));

    std::vector<double> warm(30, 0.0);
    warm[0] = warm[1] = 1.0;
    ASSERT_TRUE(m.isFeasible(warm));

    SolverOptions opt;
    opt.maxNodes = 2;
    BranchBoundSolver solver(opt);
    Solution s = solver.solve(m, warm);
    ASSERT_TRUE(s.hasSolution());
    // At least as good as the warm start.
    EXPECT_LE(s.objective, m.objective().evaluate(warm) + 1e-9);
    EXPECT_LE(solver.stats().nodesExplored, 2);
}

TEST(Simplex, DegenerateLpTerminates)
{
    // Many redundant constraints through the origin — classic
    // degeneracy; Bland's rule must prevent cycling.
    Model m;
    const VarId x = m.addContinuous(0.0);
    const VarId y = m.addContinuous(0.0);
    for (int k = 1; k <= 12; ++k) {
        m.addConstraint(
            LinExpr().add(x, static_cast<double>(k)).add(y, 1.0),
            Sense::LessEqual, 0.0);
    }
    m.setObjective(LinExpr().add(x, -1.0).add(y, -1.0));
    LpResult r = solveLp(m);
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_NEAR(r.objective, 0.0, 1e-9); // stuck at the origin
}

TEST(BranchBound, StatsPopulated)
{
    Model m;
    const VarId x = m.addBinary();
    m.setObjective(LinExpr().add(x, -1.0));
    BranchBoundSolver solver;
    Solution s = solver.solve(m);
    ASSERT_TRUE(s.hasSolution());
    EXPECT_GE(solver.stats().nodesExplored, 1);
    EXPECT_GE(solver.stats().lpSolves, 1);
    EXPECT_TRUE(solver.stats().provenOptimal);
}

TEST(Exhaustive, PureLpModelGetsClearStatus)
{
    // No integral variables: the oracle must answer with one LP solve
    // instead of enumerating an empty odometer.
    {
        Model m;
        const VarId x = m.addContinuous(0.0);
        m.addConstraint(LinExpr().add(x, 1.0), Sense::LessEqual, 4.0);
        m.setObjective(LinExpr().add(x, -1.0));
        ExhaustiveSolver oracle;
        Solution s = oracle.solve(m);
        ASSERT_EQ(s.status, SolveStatus::Optimal);
        EXPECT_NEAR(s.objective, -4.0, 1e-6);
    }
    {
        Model m;
        const VarId x = m.addContinuous(0.0);
        m.addConstraint(LinExpr().add(x, 1.0), Sense::GreaterEqual, 2.0);
        m.addConstraint(LinExpr().add(x, 1.0), Sense::LessEqual, 1.0);
        m.setObjective(LinExpr().add(x, 1.0));
        ExhaustiveSolver oracle;
        EXPECT_EQ(oracle.solve(m).status, SolveStatus::Infeasible);
    }
    {
        Model m;
        const VarId x = m.addContinuous(0.0);
        m.addConstraint(LinExpr().add(x, 1.0), Sense::GreaterEqual, 1.0);
        m.setObjective(LinExpr().add(x, -1.0));
        ExhaustiveSolver oracle;
        EXPECT_EQ(oracle.solve(m).status, SolveStatus::Unbounded);
    }
}

} // namespace
} // namespace tapacs::ilp
