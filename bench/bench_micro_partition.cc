/**
 * @file
 * Level-1 partitioner microbenchmark: exact engine vs the multilevel
 * V-cycle backend.
 *
 * Part A (quality): the four paper workloads, where the exact
 * branch-and-bound ILP is tractable and serves as the reference. The
 * acceptance bar is a multilevel eq. 2 cost within 5 % of exact on
 * every workload (the hybrid delegates below mlIlpVertexLimit, so
 * this pins the delegation threshold as much as the V-cycle).
 *
 * Part B (scale): seeded synthetic graphs (apps/synth.hh) at 5k and
 * 20k modules on 8 FPGAs. Bars: multilevel >= 10x faster than exact
 * at 5k modules, and a 20k-module partition in < 10 s — the
 * cluster-scale regime the V-cycle exists for.
 *
 * Part C (input): parse and serialize throughput of the task-graph
 * text format on the same 5k and 20k graphs, the cost every caller
 * that reads a graph file pays before partitioning. Reported only.
 *
 * Exits nonzero when any bar is missed. `--json <path>` writes the
 * measured rows for CI trend tracking.
 */

#include <chrono>
#include <cstdio>

#include "apps/cnn.hh"
#include "apps/knn.hh"
#include "apps/pagerank.hh"
#include "apps/stencil.hh"
#include "apps/synth.hh"
#include "bench/bench_util.hh"
#include "common/table.hh"
#include "graph/serialize.hh"
#include "hls/synthesis.hh"
#include "partition/multilevel.hh"

using namespace tapacs;
using namespace tapacs::bench;

namespace
{

struct Workload
{
    std::string name;
    apps::AppDesign design;
};

/** Same configurations the golden harness pins, areas stamped. */
std::vector<Workload>
paperWorkloads()
{
    std::vector<Workload> out;
    out.push_back({"stencil",
                   apps::buildStencil(apps::StencilConfig::scaled(64, 2))});
    out.push_back(
        {"pagerank",
         apps::buildPageRank(apps::PageRankConfig::scaled(
             apps::pagerankDatasets()[0], 2))});
    out.push_back(
        {"knn", apps::buildKnn(apps::KnnConfig::scaled(1'000'000, 2, 2))});
    apps::CnnConfig cnn;
    cnn.rows = 4;
    cnn.cols = 4;
    cnn.numFpgas = 2;
    cnn.batch = 4;
    cnn.numBlocks = 8;
    out.push_back({"cnn", apps::buildCnn(cnn)});
    for (Workload &w : out) {
        const hls::ProgramSynthesis synth =
            hls::synthesizeAll(w.design.tasks);
        hls::applySynthesis(w.design.graph, synth);
    }
    return out;
}

InterFpgaResult
timedSolve(const TaskGraph &g, const Cluster &cluster, L1Backend backend,
           double *secondsOut)
{
    InterFpgaOptions opt;
    opt.backend = backend;
    opt.channelsPerDevice = cluster.device().memory().channels;
    const auto t0 = std::chrono::steady_clock::now();
    const InterFpgaResult r = partition::solveL1(g, cluster, opt);
    *secondsOut = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    return r;
}

/** Fastest of a few runs of @p fn, in seconds. */
template <typename Fn>
double
bestSeconds(Fn &&fn)
{
    double best = 1e30;
    for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        best = std::min(best, std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count());
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    JsonReport report(argc, argv);
    bool pass = true;

    std::printf("=== Level-1 partitioner: exact vs multilevel ===\n\n");
    std::printf("-- Part A: paper workloads (quality vs exact ILP, "
                "bar <= 1.05x) --\n");
    TextTable quality({"Workload", "Tasks", "Exact cost", "ML cost",
                       "Ratio", "Exact (s)", "ML (s)"});
    for (const Workload &w : paperWorkloads()) {
        Cluster cluster = makePaperTestbed(2);
        double exactS = 0.0, mlS = 0.0;
        const InterFpgaResult exact = timedSolve(
            w.design.graph, cluster, L1Backend::Exact, &exactS);
        const InterFpgaResult ml = timedSolve(
            w.design.graph, cluster, L1Backend::Multilevel, &mlS);
        if (!exact.feasible || !ml.feasible)
            fatal("%s: level-1 solve infeasible", w.name.c_str());
        const double ratio =
            exact.cost > 0.0 ? ml.cost / exact.cost
                             : (ml.cost > 0.0 ? 2.0 : 1.0);
        quality.addRow({w.name,
                        strprintf("%d", w.design.graph.numVertices()),
                        strprintf("%.0f", exact.cost),
                        strprintf("%.0f", ml.cost),
                        strprintf("%.3f", ratio),
                        strprintf("%.2f", exactS),
                        strprintf("%.2f", mlS)});
        report.add(w.name + ".exact_cost", exact.cost);
        report.add(w.name + ".multilevel_cost", ml.cost);
        report.add(w.name + ".cost_ratio", ratio);
        if (ratio > 1.05) {
            std::printf("FAIL: %s multilevel cost %.0f is %.1f%% over "
                        "exact %.0f\n",
                        w.name.c_str(), ml.cost,
                        (ratio - 1.0) * 100.0, exact.cost);
            pass = false;
        }
    }
    quality.print();

    std::printf("\n-- Part B: cluster-scale synthetic graphs, 8 FPGAs "
                "--\n");
    const Cluster big = makePaperTestbed(8);

    const apps::AppDesign mid =
        apps::buildSynthetic(apps::SynthConfig::scaled(5000, 3));
    double exact5kS = 0.0, ml5kS = 0.0;
    const InterFpgaResult exact5k =
        timedSolve(mid.graph, big, L1Backend::Exact, &exact5kS);
    const InterFpgaResult ml5k =
        timedSolve(mid.graph, big, L1Backend::Multilevel, &ml5kS);
    if (!exact5k.feasible || !ml5k.feasible)
        fatal("5k-module synthetic graph infeasible");
    const double speedup = exact5kS / std::max(ml5kS, 1e-9);

    const apps::AppDesign large =
        apps::buildSynthetic(apps::SynthConfig::scaled(20000, 3));
    double ml20kS = 0.0;
    const InterFpgaResult ml20k =
        timedSolve(large.graph, big, L1Backend::Multilevel, &ml20kS);
    if (!ml20k.feasible)
        fatal("20k-module synthetic graph infeasible");

    TextTable scale({"Graph", "Engine", "Seconds", "Cost", "Levels"});
    scale.addRow({"synth-5k", "exact", strprintf("%.2f", exact5kS),
                  strprintf("%.0f", exact5k.cost), "0"});
    scale.addRow({"synth-5k", "multilevel", strprintf("%.3f", ml5kS),
                  strprintf("%.0f", ml5k.cost),
                  strprintf("%d", ml5k.levels)});
    scale.addRow({"synth-20k", "multilevel", strprintf("%.3f", ml20kS),
                  strprintf("%.0f", ml20k.cost),
                  strprintf("%d", ml20k.levels)});
    scale.print();
    std::printf("5k speedup: %.1fx (bar >= 10x); 20k multilevel: "
                "%.3fs (bar < 10s)\n",
                speedup, ml20kS);

    report.add("synth5k.exact_seconds", exact5kS);
    report.add("synth5k.multilevel_seconds", ml5kS);
    report.add("synth5k.speedup", speedup);
    report.add("synth20k.multilevel_seconds", ml20kS);
    report.add("synth20k.levels", ml20k.levels);

    if (speedup < 10.0) {
        std::printf("FAIL: multilevel only %.1fx faster than exact at "
                    "5k modules\n",
                    speedup);
        pass = false;
    }
    if (ml20kS >= 10.0) {
        std::printf("FAIL: 20k-module multilevel partition took "
                    "%.1fs\n",
                    ml20kS);
        pass = false;
    }

    std::printf("\n-- Part C: task-graph text codec (best of 5) --\n");
    TextTable codec({"Graph", "Text (MB)", "Serialize (MB/s)",
                     "Parse (MB/s)"});
    const auto addCodecRow = [&](const std::string &name,
                                 const TaskGraph &g) {
        std::string text;
        const double serializeS =
            bestSeconds([&] { text = serializeTaskGraph(g); });
        TaskGraph back;
        const double parseS = bestSeconds([&] {
            if (!tryParseTaskGraph(text, &back).ok())
                fatal("%s: serialized text does not parse", name.c_str());
        });
        const double mb = text.size() / 1e6;
        codec.addRow({name, strprintf("%.2f", mb),
                      strprintf("%.0f", mb / serializeS),
                      strprintf("%.0f", mb / parseS)});
        report.add(name + ".serialize_mb_per_s", mb / serializeS);
        report.add(name + ".parse_mb_per_s", mb / parseS);
    };
    addCodecRow("synth5k", mid.graph);
    addCodecRow("synth20k", large.graph);
    codec.print();

    std::printf("\n%s\n", pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
}
