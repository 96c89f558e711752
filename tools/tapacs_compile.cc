/**
 * @file
 * tapacs-compile — the command-line front end.
 *
 * Reads a task graph in the serialized line format (see
 * graph/serialize.hh; vertex areas are taken as post-synthesis
 * values), runs the requested flow, and writes the step-7 artifacts:
 * one placement-constraint Tcl per device, the cluster manifest, and
 * optionally a simulated-run timeline CSV.
 *
 * Usage:
 *   tapacs-compile GRAPH_FILE [options]
 *     --fpgas N          devices to target, 1-256 (default 1)
 *     --mode M           vitis | tapa | tapacs (default tapacs)
 *     --topology T       chain|ring|star|mesh|hypercube|full
 *     --device D         U55C | U250 | U280 (default U55C)
 *     --threshold X      eq. 1 utilization threshold in (0, 1]
 *                        (default 0.70)
 *     --out DIR          write constraints/manifest there, creating
 *                        DIR if needed (default .)
 *     --simulate         run the dataflow simulator and report latency
 *     --timeline FILE    write the firing timeline CSV (implies
 *                        --simulate)
 *     --solver S         level-1 engine: exact | multilevel
 *     --replicate        plan logic replication in the level-1 solve
 *     --coarse-limit N   level-1 coarsening target, 2-100000
 *                        (default 36)
 *     --partition-only   stop after level-1 floorplanning and report
 *                        the partition (cost, cut, empty devices,
 *                        per-device load);
 *                        the scale path — cluster-scale graphs
 *                        partition in seconds while the full
 *                        placement flow is hours
 *     --state FILE       after a routable compile, save the reuse
 *                        signature to FILE (the edit-loop state)
 *     --incremental      seed the compile from the signature in
 *                        --state FILE (recompile); a missing,
 *                        corrupt, or mismatched state file degrades
 *                        to a typed cold compile, and the result is
 *                        bit-identical to a cold compile either way
 *
 * A numeric flag whose value does not parse completely or falls
 * outside its range, an unknown --mode/--topology/--solver/--device
 * name, a hypercube over a non-power-of-two --fpgas, and --incremental
 * without --state all exit 2 naming the flag.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "cache/delta.hh"
#include "cli_flags.hh"
#include "common/logging.hh"
#include "compiler/compiler.hh"
#include "compiler/constraints.hh"
#include "explore/spec.hh"
#include "graph/serialize.hh"
#include "partition/multilevel.hh"
#include "serve/manifest.hh"
#include "sim/dataflow_sim.hh"

using namespace tapacs;

namespace
{

constexpr char kTool[] = "tapacs-compile";

struct CliOptions
{
    std::string graphFile;
    int fpgas = 1;
    CompileMode mode = CompileMode::TapaCs;
    TopologyKind topology = TopologyKind::Ring;
    std::string device = "U55C";
    double threshold = 0.70;
    std::string outDir = ".";
    bool simulate = false;
    std::string timelineFile;
    L1Backend solver = L1Backend::Exact;
    bool replicate = false;
    int coarseLimit = 0;
    bool partitionOnly = false;
    std::string stateFile;
    bool incremental = false;
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: tapacs-compile GRAPH_FILE [--fpgas N] "
                 "[--mode vitis|tapa|tapacs] [--topology T] "
                 "[--device U55C|U250|U280] [--threshold X] "
                 "[--out DIR] [--simulate] [--timeline FILE] "
                 "[--solver exact|multilevel] [--replicate] "
                 "[--coarse-limit N] [--partition-only] "
                 "[--state FILE] [--incremental]\n");
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
        if (arg == "--fpgas")
            opt.fpgas = static_cast<int>(
                cli::intFlag(kTool, arg, next(), 1, 256));
        else if (arg == "--mode")
            opt.mode =
                cli::nameFlag(kTool, arg, next(), serve::parseModeName);
        else if (arg == "--topology")
            opt.topology = cli::nameFlag(kTool, arg, next(),
                                         explore::parseTopologyName);
        else if (arg == "--device")
            opt.device = next();
        else if (arg == "--threshold")
            opt.threshold =
                cli::realFlag(kTool, arg, next(), 1.0e-6, 1.0);
        else if (arg == "--out")
            opt.outDir = next();
        else if (arg == "--simulate")
            opt.simulate = true;
        else if (arg == "--timeline") {
            opt.timelineFile = next();
            opt.simulate = true;
        } else if (arg == "--solver") {
            opt.solver = cli::nameFlag(kTool, arg, next(),
                                       serve::parseSolverName);
        } else if (arg == "--replicate") {
            opt.replicate = true;
        } else if (arg == "--partition-only") {
            opt.partitionOnly = true;
        } else if (arg == "--state") {
            opt.stateFile = next();
        } else if (arg == "--incremental") {
            opt.incremental = true;
        } else if (arg == "--coarse-limit") {
            opt.coarseLimit = static_cast<int>(
                cli::intFlag(kTool, arg, next(), 2, 100'000));
        } else if (arg == "--help" || arg == "-h") {
            usage();
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage();
        } else if (opt.graphFile.empty()) {
            opt.graphFile = arg;
        } else {
            usage();
        }
    }
    if (opt.graphFile.empty())
        usage();
    if (opt.incremental && opt.stateFile.empty()) {
        std::fprintf(stderr, "%s: --incremental needs --state FILE\n",
                     kTool);
        std::exit(2);
    }
    cli::checkFlag(kTool, "--topology",
                   explore::gridTopologyName(opt.topology),
                   checkTopology(opt.topology, opt.fpgas));
    cli::checkFlag(kTool, "--device", opt.device,
                   makeDeviceByName(opt.device).status());
    return opt;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open '%s'", path.c_str());
    std::ostringstream body;
    body << in.rdbuf();
    return body.str();
}

void
writeFile(const std::string &path, const std::string &body)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write '%s'", path.c_str());
    out << body;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions opt = parseArgs(argc, argv);

    TaskGraph g = parseTaskGraph(readFile(opt.graphFile));
    g.validate();
    inform("loaded '%s': %d tasks, %d FIFOs", g.name().c_str(),
           g.numVertices(), g.numEdges());

    // One node of --fpgas cards of --device, wired as --topology. The
    // serve/explore testbed (tryMakePaperTestbed) is U55C-only and
    // splits more than 4 cards into host-linked nodes; this shape
    // keeps --device and single-node partitions of any card count.
    Cluster cluster(makeDeviceByName(opt.device).value(),
                    Topology(opt.topology, opt.fpgas));

    if (opt.partitionOnly) {
        InterFpgaOptions io;
        io.backend = opt.solver;
        io.replicate = opt.replicate;
        if (opt.coarseLimit > 0)
            io.coarseLimit = opt.coarseLimit;
        io.threshold = opt.threshold;
        io.channelsPerDevice = cluster.device().memory().channels;
        const InterFpgaResult r = partition::solveL1(g, cluster, io);
        if (!r.feasible) {
            std::fprintf(stderr, "partitioning failed: %s\n",
                         r.status.message().c_str());
            return 1;
        }
        std::printf("solver:    %s (%d level%s, coarse %d)\n",
                    toString(io.backend), r.levels,
                    r.levels == 1 ? "" : "s", r.coarseVertices);
        std::printf("L1 time:   %.3fs\n", r.elapsedSeconds);
        std::printf("cost:      %.0f (eq. 2)\n", r.cost);
        std::printf("cut:       %s, %.0f bits of FIFO width\n",
                    formatBytes(r.cutTrafficBytes).c_str(),
                    interFpgaCutWidthBits(g, r.partition));
        if (opt.replicate) {
            std::printf("replicas:  %d\n",
                        r.replication.totalReplicas());
        }
        std::vector<char> hosts(cluster.numDevices(), 0);
        for (DeviceId d : r.partition.deviceOf)
            hosts[d] = 1;
        std::printf("empty:     %d device(s)\n",
                    static_cast<int>(std::count(hosts.begin(),
                                                hosts.end(), 0)));
        const std::vector<ResourceVector> areas =
            perDeviceArea(g, cluster, r.partition);
        for (DeviceId d = 0; d < cluster.numDevices(); ++d) {
            std::printf("  device %d: %.1f%% LUT\n", d,
                        areas[d].utilization(
                            ResourceKind::Lut,
                            cluster.device().totalResources()) *
                            100.0);
        }
        return 0;
    }

    // Create the output directory before compiling, so an unusable
    // --out fails at once instead of after the whole solve.
    std::error_code ec;
    std::filesystem::create_directories(opt.outDir, ec);
    if (ec) {
        std::fprintf(stderr, "cannot create output directory '%s': %s\n",
                     opt.outDir.c_str(), ec.message().c_str());
        return 1;
    }

    CompileOptions copt;
    copt.mode = opt.mode;
    copt.numFpgas = opt.fpgas;
    copt.threshold = opt.threshold;
    copt.inter.backend = opt.solver;
    copt.inter.replicate = opt.replicate;
    if (opt.coarseLimit > 0)
        copt.inter.coarseLimit = opt.coarseLimit;

    CompileResult result;
    if (opt.incremental) {
        // The edit loop: seed this compile from the saved reuse
        // signature. Any malformed state degrades to a typed cold
        // compile — the result is bit-identical either way.
        CompileResult prior;
        std::string incNote;
        std::ifstream state(opt.stateFile, std::ios::binary);
        if (!state) {
            incNote = strprintf("incremental: cannot open state file "
                                "'%s'; cold compile",
                                opt.stateFile.c_str());
        } else {
            std::ostringstream bytes;
            bytes << state.rdbuf();
            if (!cache::parseSignature(bytes.str(), &prior.signature))
                incNote = strprintf("incremental: invalid state file "
                                    "'%s'; cold compile",
                                    opt.stateFile.c_str());
        }
        if (incNote.empty()) {
            result = recompile(prior, g, cluster, copt);
        } else {
            result = compile(g, cluster, copt);
            result.delta.attempted = true;
            result.degradedReason = result.degradedReason.empty()
                ? incNote
                : result.degradedReason + "; " + incNote;
        }
    } else {
        result = compile(g, cluster, copt);
    }
    if (!result.routable) {
        std::fprintf(stderr, "compilation failed: %s\n",
                     result.failureReason.c_str());
        return 1;
    }
    if (!opt.stateFile.empty() &&
        result.signature.schemaVersion != 0) {
        writeFile(opt.stateFile,
                  cache::serializeSignature(result.signature));
        std::printf("wrote %s (reuse state, %zu artifacts)\n",
                    opt.stateFile.c_str(),
                    result.signature.artifacts.size());
    }

    std::printf("mode:      %s\n", toString(opt.mode));
    std::printf("devices:   %d x %s (%s)\n", opt.fpgas,
                opt.device.c_str(), toString(opt.topology));
    std::printf("clock:     %s\n", formatFrequency(result.fmax).c_str());
    std::printf("floorplan: L1 %.2fs, L2 %.2fs\n", result.l1Seconds,
                result.l2Seconds);
    std::printf("cut:       %s across devices\n",
                formatBytes(result.cutTrafficBytes).c_str());
    if (result.delta.attempted)
        std::printf("delta:     %s\n", result.delta.summary().c_str());
    if (opt.incremental && !result.degradedReason.empty())
        std::printf("note:      %s\n", result.degradedReason.c_str());
    if (result.replicated()) {
        std::printf("replicas:  %d task cop%s added by logic "
                    "replication\n",
                    result.replication.totalReplicas(),
                    result.replication.totalReplicas() == 1 ? "y"
                                                            : "ies");
    }

    // Every emitted artifact describes the design as it will be
    // built: the replication-expanded graph when phase 3 produced
    // one, the input graph otherwise.
    const TaskGraph &dg = result.replicated() ? result.expandedGraph : g;
    for (DeviceId d = 0; d < cluster.numDevices(); ++d) {
        const std::string path =
            strprintf("%s/constraints_dev%d.tcl", opt.outDir.c_str(), d);
        writeFile(path, emitConstraintsTcl(dg, cluster, result, d));
        std::printf("wrote %s\n", path.c_str());
    }
    const std::string manifest_path = opt.outDir + "/cluster.manifest";
    writeFile(manifest_path, emitClusterManifest(dg, cluster, result));
    std::printf("wrote %s\n", manifest_path.c_str());

    if (opt.simulate) {
        sim::SimOptions sopt;
        sopt.recordTimeline = !opt.timelineFile.empty();
        const sim::SimResult run =
            sim::simulate(dg, cluster, result.partition, result.binding,
                          result.pipeline, result.deviceFmax, sopt);
        std::printf("simulated latency: %s\n",
                    formatSeconds(run.makespan).c_str());
        for (DeviceId d = 0; d < cluster.numDevices(); ++d) {
            std::printf("  device %d busy %.1f%%\n", d,
                        run.deviceUtilization(d) * 100.0);
        }
        if (!opt.timelineFile.empty()) {
            writeFile(opt.timelineFile, sim::timelineCsv(dg, run));
            std::printf("wrote %s\n", opt.timelineFile.c_str());
        }
    }
    return 0;
}
