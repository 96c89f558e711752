/**
 * @file
 * tapacs-explore — design-space-exploration driver with Pareto
 * frontiers.
 *
 * Sweeps a grid over the five knobs the paper fixes per experiment —
 * the device-level utilization threshold T (eq. 1), the slot-level
 * threshold λ (eq. 4), the intra-node topology, the HBM binding
 * policy, and the interconnect pipelining depth — compiling (and
 * simulating) every point in parallel through one shared compile
 * cache, then reduces the results into a deterministic Pareto
 * frontier over (design clock, worst resource utilization, simulated
 * latency). Dominated and failed points stay in the trace with typed
 * statuses, so a sweep doubles as an audit of which knob regions
 * break routing.
 *
 * Reuse is exact-key: the per-task HLS estimates are shared by every
 * point, level-1 solves by points agreeing on (T, topology), level-2
 * solves by points agreeing on (partition, λ, binding) — so every
 * point is bit-identical to a cold compile with the same knobs, and
 * the frontier is bit-identical at any --threads value.
 *
 * Usage:
 *   tapacs-explore (--workload stencil|pagerank|knn|cnn | --graph F)
 *                  [--grid SPEC] [--fpgas N] [--scale N]
 *                  [--mode vitis|tapa|tapacs] [--threads N]
 *                  [--deadline-ms N] [--no-cache] [--cache-dir DIR]
 *                  [--no-sim] [--json] [--csv]
 *
 *   --grid SPEC      the sweep grid, e.g.
 *                    "t=0.6,0.7;lambda=follow;topo=ring,mesh;
 *                     binding=nearest,sweep;depth=1,2"
 *                    (axes not named keep the compiler defaults;
 *                    empty = the 1-point default grid)
 *   --fpgas N        devices to target, 1-256 (default 4)
 *   --scale N        workload size knob (0 = harness default)
 *   --threads N      concurrent point evaluations (0 = pool size,
 *                    1 = serial; the frontier is identical at any
 *                    value)
 *   --deadline-ms N  per-point deadline slice (negative = none, the
 *                    default); sliced points are never written to
 *                    the cache (volatile-context rule), so slicing
 *                    trades reuse for bounded latency
 *   --no-cache       sweep-private in-memory cache only (the default
 *                    shares the process-global cache)
 *   --cache-dir D    add a disk tier at D
 *   --no-sim         skip simulation; the frontier is then over
 *                    (clock, utilization) only
 *   --csv            print the frontier as CSV instead of the table
 *   --json           print the full result (trace + frontier + cache
 *                    stats) as JSON instead of the table
 *
 * A numeric flag whose value does not parse completely or falls
 * outside its range exits 2.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/workloads.hh"
#include "cache/compile_cache.hh"
#include "cli_flags.hh"
#include "common/logging.hh"
#include "common/units.hh"
#include "explore/explore.hh"
#include "graph/serialize.hh"
#include "serve/manifest.hh"

using namespace tapacs;

namespace
{

constexpr char kTool[] = "tapacs-explore";

struct CliOptions
{
    std::string workload;
    std::string graphFile;
    std::string grid;
    int fpgas = 4;
    std::int64_t scale = 0;
    CompileMode mode = CompileMode::TapaCs;
    int threads = 0;
    double deadlineMs = -1.0;
    bool noCache = false;
    std::string cacheDir;
    bool simulate = true;
    bool json = false;
    bool csv = false;
};

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: tapacs-explore (--workload stencil|pagerank|knn|cnn |"
        " --graph FILE)\n"
        "                      [--grid SPEC] [--fpgas N] [--scale N]\n"
        "                      [--mode vitis|tapa|tapacs] "
        "[--threads N]\n"
        "                      [--deadline-ms N] [--no-cache] "
        "[--cache-dir DIR]\n"
        "                      [--no-sim] [--json] [--csv]\n");
    std::exit(2);
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                usage();
            return argv[i];
        };
        if (arg == "--workload")
            opt.workload = next();
        else if (arg == "--graph")
            opt.graphFile = next();
        else if (arg == "--grid")
            opt.grid = next();
        else if (arg == "--fpgas")
            opt.fpgas = static_cast<int>(
                cli::intFlag(kTool, arg, next(), 1, 256));
        else if (arg == "--scale")
            opt.scale = cli::intFlag(kTool, arg, next(), 0,
                                     1'000'000'000'000LL);
        else if (arg == "--mode") {
            const Status st =
                serve::parseModeName(next(), &opt.mode);
            if (!st.ok()) {
                std::fprintf(stderr, "%s\n", st.message().c_str());
                std::exit(2);
            }
        } else if (arg == "--threads")
            opt.threads = static_cast<int>(
                cli::intFlag(kTool, arg, next(), 0, 1024));
        else if (arg == "--deadline-ms")
            opt.deadlineMs =
                cli::realFlag(kTool, arg, next(), -1.0e9, 1.0e9);
        else if (arg == "--no-cache")
            opt.noCache = true;
        else if (arg == "--cache-dir")
            opt.cacheDir = next();
        else if (arg == "--no-sim")
            opt.simulate = false;
        else if (arg == "--json")
            opt.json = true;
        else if (arg == "--csv")
            opt.csv = true;
        else if (arg == "--help" || arg == "-h")
            usage();
        else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage();
        }
    }
    if (opt.workload.empty() == opt.graphFile.empty()) {
        std::fprintf(stderr,
                     "need exactly one of --workload or --graph\n");
        usage();
    }
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions opt = parseArgs(argc, argv);

    explore::ExploreSpec spec;
    Status st = explore::parseGridSpec(opt.grid, &spec);
    if (!st.ok()) {
        std::fprintf(stderr, "--grid: %s\n", st.message().c_str());
        return 2;
    }

    TaskGraph graph;
    std::vector<hls::TaskIr> tasks;
    if (!opt.graphFile.empty()) {
        std::ifstream in(opt.graphFile, std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "cannot open graph '%s'\n",
                         opt.graphFile.c_str());
            return 2;
        }
        std::ostringstream body;
        body << in.rdbuf();
        st = tryParseTaskGraph(body.str(), &graph);
        if (!st.ok()) {
            std::fprintf(stderr, "%s: %s\n", opt.graphFile.c_str(),
                         st.message().c_str());
            return 2;
        }
    } else {
        apps::AppDesign design;
        st = apps::buildWorkload(opt.workload, opt.fpgas, opt.scale,
                                 &design);
        if (!st.ok()) {
            std::fprintf(stderr, "%s\n", st.message().c_str());
            return 2;
        }
        graph = std::move(design.graph);
        tasks = std::move(design.tasks);
    }

    std::unique_ptr<cache::CacheStore> diskStore;
    std::unique_ptr<cache::CompileCache> diskCache;
    explore::ExploreOptions eopt;
    eopt.base.mode = opt.mode;
    eopt.base.numFpgas = opt.fpgas;
    eopt.threads = opt.threads;
    eopt.pointDeadlineSeconds =
        opt.deadlineMs < 0.0 ? -1.0 : opt.deadlineMs / 1000.0;
    eopt.simulate = opt.simulate;
    if (!opt.cacheDir.empty()) {
        cache::CacheStore::Options sopt;
        sopt.directory = opt.cacheDir;
        diskStore =
            std::make_unique<cache::CacheStore>(std::move(sopt));
        diskCache = std::make_unique<cache::CompileCache>(*diskStore);
        eopt.cache = diskCache.get();
    } else if (!opt.noCache) {
        eopt.cache = &cache::CompileCache::global();
    } // else: runExplore builds a sweep-private store.

    const explore::ExploreResult result =
        explore::runExplore(graph, tasks, spec, eopt);
    if (!result.status.ok() && result.trace.empty()) {
        std::fprintf(stderr, "%s\n", result.status.message().c_str());
        return 2;
    }

    if (opt.json) {
        std::printf("%s\n", explore::exploreJson(result).c_str());
    } else if (opt.csv) {
        std::printf("%s", explore::frontierCsv(result).c_str());
    } else {
        std::size_t routable = 0;
        std::size_t evaluated = 0;
        for (const explore::PointOutcome &p : result.trace) {
            if (p.status.ok() || p.routable)
                ++evaluated;
            if (p.routable)
                ++routable;
        }
        std::printf("%zu point(s): %zu routable, %zu on the "
                    "frontier (%.3fs wall",
                    result.trace.size(), routable,
                    result.frontier.size(), result.seconds);
        if (result.cacheHits + result.cacheMisses > 0)
            std::printf(", cache hit rate %.1f%%",
                        100.0 * result.cacheHitRate);
        std::printf(")\n\n");
        std::printf("%-42s %12s %6s %12s\n", "point", "fmax", "util",
                    "latency");
        for (std::size_t idx : result.frontier) {
            const explore::PointOutcome &p = result.trace[idx];
            std::printf("%-42s %12s %5.1f%% %12s\n",
                        p.point.label().c_str(),
                        formatFrequency(p.obj.fmax).c_str(),
                        100.0 * p.obj.utilization,
                        p.simulated
                            ? formatSeconds(p.obj.latency).c_str()
                            : "-");
        }
        // Failed regions, compressed to one line per typed reason.
        for (const explore::PointOutcome &p : result.trace) {
            if (!p.status.ok() && !p.routable)
                std::printf("  skip %-36s %s\n",
                            p.point.label().c_str(),
                            p.status.message().c_str());
        }
        (void)evaluated;
    }

    if (!result.status.ok()) {
        std::fprintf(stderr, "sweep: %s\n",
                     result.status.message().c_str());
        return 1;
    }
    return result.frontier.empty() ? 1 : 0;
}
