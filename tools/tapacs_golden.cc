/**
 * @file
 * tapacs-golden — golden-file regression harness.
 *
 * Compiles and simulates the four paper workloads (stencil, PageRank,
 * KNN, CNN) in small 2-FPGA configurations. The result is serialized
 * as canonical JSON — fixed key order, %.12g doubles, no wall-clock
 * fields — so the bytes are a stable function of the model alone and
 * any behavioural drift in the compiler or simulator shows up as a
 * diff.
 *
 * Usage:
 *   tapacs-golden --write DIR    regenerate DIR/<workload>.json
 *   tapacs-golden --check DIR    compare against DIR/<workload>.json;
 *                                exit 1 on any mismatch
 *   tapacs-golden --check-cached DIR
 *                                compile every workload twice against
 *                                one shared compile cache (cold, then
 *                                warm from a fresh design); the warm
 *                                render must be byte-identical to the
 *                                cold one AND to the golden — the
 *                                differential proof that a cache hit
 *                                never changes an answer
 *
 * Regenerate with tools/update_goldens.sh after an intentional model
 * change, and review the diff like any other code change.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/workloads.hh"
#include "cache/compile_cache.hh"
#include "common/frame.hh"
#include "common/logging.hh"
#include "compiler/compiler.hh"
#include "sim/dataflow_sim.hh"

using namespace tapacs;

namespace
{

struct Workload
{
    std::string name;
    apps::AppDesign design;
};

std::vector<Workload>
paperWorkloads()
{
    std::vector<Workload> out;
    for (const char *name : {"stencil", "pagerank", "knn", "cnn"}) {
        Workload w{name, {}};
        const Status st = apps::buildWorkload(name, 2, 0, &w.design);
        if (!st.ok())
            fatal("%s", st.message().c_str());
        out.push_back(std::move(w));
    }
    return out;
}

std::string
num(double v)
{
    return strprintf("%.12g", v);
}

void
appendSimJson(std::ostringstream &js, const sim::SimResult &run)
{
    js << "{\"makespan\":" << num(run.makespan)
       << ",\"completed\":" << (run.completed ? "true" : "false")
       << ",\"inter_device_bytes\":" << num(run.interDeviceBytes);
    js << ",\"fired_blocks\":[";
    for (size_t v = 0; v < run.firedBlocks.size(); ++v)
        js << (v ? "," : "") << run.firedBlocks[v];
    js << "]}";
}

/** Compile + simulation, rendered as canonical JSON. */
std::string
renderWorkload(Workload &w, cache::CompileCache *cc = nullptr)
{
    Cluster cluster = makePaperTestbed(2);
    CompileOptions opt;
    opt.mode = CompileMode::TapaCs;
    opt.numFpgas = 2;
    opt.cache = cc;
    const CompileResult r =
        compileProgram(w.design.graph, w.design.tasks, cluster, opt);
    if (!r.routable)
        fatal("golden workload '%s' failed to compile: %s",
              w.name.c_str(), r.failureReason.c_str());

    const TaskGraph &g = w.design.graph;
    std::ostringstream js;
    js << "{\"workload\":\"" << w.name << "\""
       << ",\"tasks\":" << g.numVertices() << ",\"fifos\":" << g.numEdges()
       << ",\"fpgas\":" << opt.numFpgas
       << ",\"fmax_hz\":" << num(r.fmax)
       << ",\"cut_traffic_bytes\":" << num(r.cutTrafficBytes);
    js << ",\"tasks_per_device\":[";
    std::vector<int> perDev(cluster.numDevices(), 0);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        ++perDev[r.partition.deviceOf[v]];
    for (size_t d = 0; d < perDev.size(); ++d)
        js << (d ? "," : "") << perDev[d];
    js << "]";

    js << ",\"healthy\":";
    const sim::SimResult healthy =
        sim::simulate(g, cluster, r.partition, r.binding, r.pipeline,
                      r.deviceFmax);
    appendSimJson(js, healthy);
    js << "}\n";
    return js.str();
}

std::string
readGolden(const std::string &path)
{
    std::string body;
    if (!readFile(path, &body).ok())
        fatal("cannot open '%s' — run tools/update_goldens.sh?",
              path.c_str());
    return body;
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: tapacs-golden --write|--check|--check-cached "
                 "DIR\n");
    std::exit(2);
}

/**
 * The cache differential: render each workload cold (populating the
 * shared cache), then again from a freshly built design so every
 * solver phase is served from the cache. Both renders must match each
 * other byte for byte (a hit never changes an answer) and match the
 * golden (the cached flow is the same flow).
 */
int
checkCached(const std::string &dir)
{
    cache::CacheStore store;
    cache::CompileCache cc(store);
    int mismatches = 0;
    std::vector<Workload> cold_runs = paperWorkloads();
    std::vector<Workload> warm_runs = paperWorkloads();
    for (size_t i = 0; i < cold_runs.size(); ++i) {
        const std::string cold = renderWorkload(cold_runs[i], &cc);
        const std::string warm = renderWorkload(warm_runs[i], &cc);
        const std::string golden =
            readGolden(dir + "/" + cold_runs[i].name + ".json");
        if (warm != cold) {
            ++mismatches;
            std::printf("MISMATCH %s (warm differs from cold)\n"
                        "  cold: %s  warm: %s",
                        cold_runs[i].name.c_str(), cold.c_str(),
                        warm.c_str());
        } else if (warm != golden) {
            ++mismatches;
            std::printf("MISMATCH %s (cached differs from golden)\n"
                        "  golden:  %s  cached: %s",
                        cold_runs[i].name.c_str(), golden.c_str(),
                        warm.c_str());
        } else {
            std::printf("ok      %s (cold == warm == golden)\n",
                        cold_runs[i].name.c_str());
        }
    }
    if (mismatches > 0) {
        std::fprintf(stderr,
                     "%d workload(s) diverged under the compile "
                     "cache\n",
                     mismatches);
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3)
        usage();
    const std::string mode = argv[1];
    const std::string dir = argv[2];
    if (mode != "--write" && mode != "--check" && mode != "--check-cached")
        usage();
    if (mode == "--check-cached")
        return checkCached(dir);

    int mismatches = 0;
    for (Workload &w : paperWorkloads()) {
        const std::string rendered = renderWorkload(w);
        const std::string path = dir + "/" + w.name + ".json";
        if (mode == "--write") {
            std::ofstream out(path);
            if (!out)
                fatal("cannot write '%s'", path.c_str());
            out << rendered;
            std::printf("wrote %s\n", path.c_str());
        } else {
            const std::string golden = readGolden(path);
            if (golden == rendered) {
                std::printf("ok      %s\n", w.name.c_str());
            } else {
                ++mismatches;
                std::printf("MISMATCH %s\n  golden:  %s  current: %s",
                            w.name.c_str(), golden.c_str(),
                            rendered.c_str());
            }
        }
    }
    if (mismatches > 0) {
        std::fprintf(stderr,
                     "%d golden file(s) diverged; if the change is "
                     "intentional, regenerate with "
                     "tools/update_goldens.sh and review the diff\n",
                     mismatches);
        return 1;
    }
    return 0;
}
