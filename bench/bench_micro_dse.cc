/**
 * @file
 * Design-space-exploration micro-benchmark: sweep reuse vs cold
 * compiles, plus frontier determinism across thread counts.
 *
 * A 24-point stencil sweep (t x topo x binding x depth) runs through
 * runExplore() with one sweep-private compile cache and exact-key
 * reuse only, then the same 24 points compile + simulate one by one
 * with no cache at all. The sweep shares the per-task HLS estimates
 * across every point, each level-1 solve across the points agreeing
 * on (T, topology), and each per-device level-2 solve across the
 * points agreeing on (partition, lambda, binding) — the pipelining
 * depth axis reuses all of it — so it must be at least 3x faster
 * than the cold loop. The second gate re-runs the sweep at 1/2/4/8
 * threads (fresh private cache each time) and requires the rendered
 * frontier CSV to be byte-identical: per-point results are exact-key
 * cache sharing only, so neither evaluation order nor thread count
 * may change any answer.
 *
 * Exits nonzero when the speedup lands under 3x or any frontier
 * differs. `--json <path>` records the measurements (including the
 * sweep's measured cache hit rate) machine-readably.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "apps/stencil.hh"
#include "bench/bench_util.hh"
#include "explore/explore.hh"
#include "network/cluster.hh"
#include "sim/dataflow_sim.hh"

using namespace tapacs;

namespace
{

/** The swept grid: 2 thresholds x 2 topologies x 2 binding policies
 *  x 3 pipelining depths = 24 points. */
explore::ExploreSpec
benchSpec()
{
    explore::ExploreSpec spec;
    spec.thresholds = {0.6, 0.7};
    spec.slotThresholds = {-1.0};
    spec.topologies = {TopologyKind::Ring, TopologyKind::Chain};
    spec.bindingSweeps = {false, true};
    spec.depths = {1, 2, 3};
    return spec;
}

/** One cold evaluation of @p point: compile + simulate with no cache,
 *  the same node-bounded solver limits the sweep uses. Returns wall
 *  seconds. */
double
coldPoint(const TaskGraph &g, const std::vector<hls::TaskIr> &tasks,
          const explore::ExplorePoint &point, int numFpgas)
{
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();

    Cluster cluster(makeU55C(), Topology(point.topology, numFpgas), 1);
    CompileOptions opt;
    opt.numFpgas = numFpgas;
    opt.threshold = point.threshold;
    opt.slotThreshold = point.slotThreshold;
    opt.hbmBindingSweep = point.bindingSweep;
    opt.pipeline.stagesPerCrossing = point.depth;

    TaskGraph local = g;
    const CompileResult result =
        compileProgram(local, tasks, cluster, opt);
    if (result.routable) {
        sim::SimOptions sopt;
        sopt.exportMetrics = false;
        const TaskGraph &simGraph =
            result.replicated() ? result.expandedGraph : local;
        (void)sim::trySimulate(simGraph, cluster, result.partition,
                               result.binding, result.pipeline,
                               result.deviceFmax, sopt);
    }
    return std::chrono::duration<double>(clock::now() - t0).count();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReport report(argc, argv);

    constexpr int kFpgas = 4;
    const apps::AppDesign design =
        apps::buildStencil(apps::StencilConfig::scaled(64, kFpgas));
    const explore::ExploreSpec spec = benchSpec();

    // --- Gate 1: sweep reuse vs 24 independent cold compiles. Both
    // sides run serially so the comparison is purely about exact-key
    // cache sharing, not parallelism.
    explore::ExploreOptions eopt;
    eopt.base.numFpgas = kFpgas;
    eopt.threads = 1;
    const explore::ExploreResult sweep =
        explore::runExplore(design.graph, design.tasks, spec, eopt);
    if (!sweep.status.ok()) {
        std::fprintf(stderr, "sweep failed: %s\n",
                     sweep.status.message().c_str());
        return 1;
    }

    double coldSeconds = 0.0;
    for (std::size_t i = 0; i < spec.numPoints(); ++i)
        coldSeconds +=
            coldPoint(design.graph, design.tasks, spec.point(i),
                      kFpgas);

    const double speedup =
        sweep.seconds > 0.0 ? coldSeconds / sweep.seconds : 0.0;

    // --- Gate 2: the frontier must render byte-identically at every
    // thread count (fresh sweep-private cache each run, so no run
    // warms the next).
    const std::string frontierSerial = explore::frontierCsv(sweep);
    bool identical = true;
    for (int threads : {2, 4, 8}) {
        explore::ExploreOptions topt = eopt;
        topt.threads = threads;
        const explore::ExploreResult r = explore::runExplore(
            design.graph, design.tasks, spec, topt);
        if (explore::frontierCsv(r) != frontierSerial) {
            std::fprintf(stderr,
                         "frontier differs at %d threads:\n%s-- vs "
                         "serial --\n%s",
                         threads, explore::frontierCsv(r).c_str(),
                         frontierSerial.c_str());
            identical = false;
        }
    }

    std::printf("dse sweep: %zu points, %zu on the frontier\n",
                sweep.trace.size(), sweep.frontier.size());
    std::printf("  sweep (shared cache, serial) %8.3f s  "
                "(hit rate %.1f%%)\n",
                sweep.seconds, 100.0 * sweep.cacheHitRate);
    std::printf("  cold  (no cache, serial)     %8.3f s\n",
                coldSeconds);
    std::printf("  speedup                      %8.2fx  (gate: "
                ">= 3x)\n",
                speedup);
    std::printf("  frontier across 1/2/4/8 threads: %s\n",
                identical ? "bit-identical" : "DIVERGED");

    report.add("dse.points", static_cast<double>(sweep.trace.size()));
    report.add("dse.frontier_size",
               static_cast<double>(sweep.frontier.size()));
    report.add("dse.sweep_seconds", sweep.seconds);
    report.add("dse.cold_seconds", coldSeconds);
    report.add("dse.speedup", speedup);
    report.add("dse.cache_hit_rate", sweep.cacheHitRate);
    report.add("dse.cache_hits",
               static_cast<double>(sweep.cacheHits));
    report.add("dse.cache_misses",
               static_cast<double>(sweep.cacheMisses));
    report.add("dse.frontier_identical", identical ? 1.0 : 0.0);

    bool failed = false;
    if (speedup < 3.0) {
        std::fprintf(stderr,
                     "FAIL: sweep speedup %.2fx under the 3x gate\n",
                     speedup);
        failed = true;
    }
    if (!identical)
        failed = true;
    return failed ? 1 : 0;
}
