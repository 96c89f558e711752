/**
 * @file
 * Microbenchmarks (google-benchmark) for the ILP substrate: simplex
 * pivot throughput on LPs of growing size, branch-and-bound on
 * knapsacks, the end-to-end floorplanning ILP for a coarse
 * partitioning instance, and cold-vs-warm node LPs on a model shaped
 * like the level-1 assignment ILP (paper eq. 1-2).
 */

#include <algorithm>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.hh"
#include "common/rng.hh"
#include "ilp/simplex.hh"
#include "ilp/solver.hh"

using namespace tapacs;
using namespace tapacs::ilp;

namespace
{

/** Knapsack instance for the branch-and-bound bench. */
Model
makeKnapsack(int n)
{
    Rng rng(7);
    Model m;
    LinExpr cap, obj;
    for (int i = 0; i < n; ++i) {
        const VarId v = m.addBinary();
        cap.add(v, rng.uniformReal(1.0, 5.0));
        obj.add(v, -rng.uniformReal(1.0, 10.0));
    }
    m.addConstraint(std::move(cap), Sense::LessEqual, n * 1.2);
    m.setObjective(std::move(obj));
    return m;
}

/** Partitioning-shaped MILP: v tasks onto 2 devices, cut objective. */
Model
makePartitionIlp(int v)
{
    Rng rng(13);
    Model m;
    std::vector<VarId> y;
    for (int i = 0; i < v; ++i)
        y.push_back(m.addBinary());
    LinExpr balance;
    for (int i = 0; i < v; ++i)
        balance.add(y[i], 1.0);
    LinExpr b2 = balance;
    m.addConstraint(std::move(balance), Sense::LessEqual, v * 0.6);
    m.addConstraint(std::move(b2), Sense::GreaterEqual, v * 0.4);
    LinExpr obj;
    for (int i = 1; i < v; ++i) {
        const VarId d = m.addContinuous(0.0);
        LinExpr c1;
        c1.add(y[i - 1], 1.0).add(y[i], -1.0).add(d, -1.0);
        m.addConstraint(std::move(c1), Sense::LessEqual, 0.0);
        LinExpr c2;
        c2.add(y[i], 1.0).add(y[i - 1], -1.0).add(d, -1.0);
        m.addConstraint(std::move(c2), Sense::LessEqual, 0.0);
        obj.add(d, rng.uniformReal(16.0, 512.0));
    }
    m.setObjective(std::move(obj));
    return m;
}

Model
randomLp(int vars, int rows, std::uint64_t seed)
{
    Rng rng(seed);
    Model m;
    for (int i = 0; i < vars; ++i)
        m.addVar(VarKind::Continuous, 0.0, 10.0);
    for (int r = 0; r < rows; ++r) {
        LinExpr e;
        for (int i = 0; i < vars; ++i) {
            if (rng.bernoulli(0.4))
                e.add(i, rng.uniformReal(0.1, 2.0));
        }
        m.addConstraint(std::move(e), Sense::LessEqual,
                        rng.uniformReal(5.0, 50.0));
    }
    LinExpr obj;
    for (int i = 0; i < vars; ++i)
        obj.add(i, rng.uniformReal(-2.0, 0.5));
    m.setObjective(std::move(obj));
    return m;
}

void
BM_SimplexSolve(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    Model m = randomLp(n, n, 42);
    for (auto _ : state) {
        LpResult r = solveLp(m);
        benchmark::DoNotOptimize(r.objective);
    }
    state.SetComplexityN(n);
}
BENCHMARK(BM_SimplexSolve)->Arg(16)->Arg(64)->Arg(128)->Arg(256)
    ->Complexity();

void
BM_BranchBoundKnapsack(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    Model m = makeKnapsack(n);
    for (auto _ : state) {
        BranchBoundSolver solver;
        Solution s = solver.solve(m);
        benchmark::DoNotOptimize(s.objective);
    }
}
BENCHMARK(BM_BranchBoundKnapsack)->Arg(8)->Arg(16)->Arg(24);

void
BM_AssignmentIlp(benchmark::State &state)
{
    // Mirrors one coarse level-1 solve.
    Model m = makePartitionIlp(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        SolverOptions opt;
        opt.maxNodes = 200;
        BranchBoundSolver solver(opt);
        Solution s = solver.solve(m);
        benchmark::DoNotOptimize(s.status);
    }
}
BENCHMARK(BM_AssignmentIlp)->Arg(16)->Arg(32)->Arg(64);

/**
 * Level-1-shaped MILP: @p v tasks onto 4 devices in a ring, one device
 * per task, one area row per device, and the compact eq. 2 rows
 * d_e >= sum_q D(p,q) x_vq - max_q D(p,q) (1 - x_up) per edge and
 * source device p, with a chain plus random long edges.
 */
Model
makeL1Ilp(int v)
{
    constexpr int kDevs = 4;
    Rng rng(29);
    Model m;
    std::vector<VarId> x(static_cast<size_t>(v) * kDevs);
    for (auto &var : x)
        var = m.addBinary();
    std::vector<double> area(v);
    double total = 0.0;
    for (int t = 0; t < v; ++t) {
        LinExpr one;
        for (int d = 0; d < kDevs; ++d)
            one.add(x[t * kDevs + d], 1.0);
        m.addConstraint(std::move(one), Sense::Equal, 1.0);
        area[t] = rng.uniformReal(1.0, 4.0);
        total += area[t];
    }
    for (int d = 0; d < kDevs; ++d) {
        LinExpr cap;
        for (int t = 0; t < v; ++t)
            cap.add(x[t * kDevs + d], area[t]);
        m.addConstraint(std::move(cap), Sense::LessEqual,
                        1.15 * total / kDevs);
    }
    auto ring = [](int p, int q) {
        const int k = std::abs(p - q);
        return static_cast<double>(std::min(k, kDevs - k));
    };
    LinExpr obj;
    for (int e = 0; e < v + v / 4; ++e) {
        const bool chain = e < v - 1;
        const int src =
            chain ? e : static_cast<int>(rng.uniformInt(0, v - 1));
        const int dst =
            chain ? e + 1 : static_cast<int>(rng.uniformInt(0, v - 1));
        if (src == dst)
            continue;
        const VarId de = m.addContinuous(0.0);
        for (int p = 0; p < kDevs; ++p) {
            LinExpr row;
            for (int q = 0; q < kDevs; ++q)
                row.add(x[dst * kDevs + q], ring(p, q));
            row.add(x[src * kDevs + p], 2.0).add(de, -1.0);
            m.addConstraint(std::move(row), Sense::LessEqual, 2.0);
        }
        obj.add(de, 32.0 * (1 << rng.uniformInt(0, 4)));
    }
    m.setObjective(std::move(obj));
    return m;
}

/** Bounds of every node a 150-node search visits, in visit order. */
struct NodeTrace
{
    std::vector<std::vector<double>> lower, upper;
};

NodeTrace
traceSearch(const Model &m)
{
    NodeTrace trace;
    SolverOptions opt;
    opt.maxNodes = 150;
    opt.nodeObserver = [&](const Model &, const std::vector<double> &lo,
                           const std::vector<double> &hi, const LpResult &) {
        trace.lower.push_back(lo);
        trace.upper.push_back(hi);
    };
    BranchBoundSolver(opt).solve(m);
    return trace;
}

/**
 * Replay one search's node LPs either cold (a fresh slack-basis solve
 * per node) or warm (one engine carried from node to node) and report
 * simplex iterations per node next to the wall time.
 */
void
replayNodes(benchmark::State &state, bool warm)
{
    const Model m = makeL1Ilp(static_cast<int>(state.range(0)));
    const NodeTrace trace = traceSearch(m);
    std::int64_t pivots = 0, replays = 0, fallbacks = 0;
    for (auto _ : state) {
        LpEngine engine(m);
        for (size_t k = 0; k < trace.lower.size(); ++k) {
            const LpResult r = warm ? engine.solve(trace.lower[k],
                                                   trace.upper[k])
                                    : solveLp(m, trace.lower[k],
                                              trace.upper[k]);
            pivots += r.iterations;
            benchmark::DoNotOptimize(r.objective);
        }
        fallbacks += engine.coldFallbacks();
        ++replays;
    }
    const double solves =
        static_cast<double>(replays) * trace.lower.size();
    state.counters["rows"] = m.numConstraints();
    state.counters["nodes"] = static_cast<double>(trace.lower.size());
    state.counters["pivots_per_node"] = solves > 0 ? pivots / solves : 0.0;
    state.counters["cold_fallbacks"] =
        replays > 0 ? static_cast<double>(fallbacks) / replays : 0.0;
}

void
BM_NodeLpCold(benchmark::State &state)
{
    replayNodes(state, false);
}
BENCHMARK(BM_NodeLpCold)->Arg(32)->Arg(64);

void
BM_NodeLpWarm(benchmark::State &state)
{
    replayNodes(state, true);
}
BENCHMARK(BM_NodeLpWarm)->Arg(32)->Arg(64);

} // namespace

// Custom main instead of BENCHMARK_MAIN(): accepts the repo-wide
// `--json <path>` flag by rewriting it into google-benchmark's
// --benchmark_out / --benchmark_out_format arguments.
int
main(int argc, char **argv)
{
    std::vector<std::string> storage;
    std::vector<char *> args =
        tapacs::bench::translateJsonFlag(argc, argv, storage);
    benchmark::Initialize(&argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(argc, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
