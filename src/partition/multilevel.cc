#include "partition/multilevel.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "partition/hypergraph.hh"
#include "partition/refine.hh"
#include "partition/replicate.hh"

namespace tapacs::partition
{

namespace
{

using clock_type = std::chrono::steady_clock;

/**
 * Lower the coarsest hypergraph back to a TaskGraph so the exact
 * engine (greedy + channel repair + optional ILP + FM) can produce
 * the initial partition. Net weights become edge widths, so the
 * lowered graph's eq. 2 objective equals the hypergraph cut cost.
 */
TaskGraph
lowerToTaskGraph(const Hypergraph &hg, const std::string &name)
{
    TaskGraph g;
    g.setName(name + ".coarse");
    for (int v = 0; v < hg.numVertices(); ++v) {
        Vertex vx;
        vx.name = strprintf("c%d", v);
        vx.area = hg.area[v];
        vx.work.memChannels = hg.channels[v];
        g.addVertex(std::move(vx));
    }
    for (int net = 0; net < hg.numNets(); ++net) {
        const double w = std::max(1.0, std::round(hg.netWeight[net]));
        const int width = static_cast<int>(std::min(
            w, static_cast<double>(std::numeric_limits<int>::max())));
        g.addEdge(hg.pins[hg.netOffset[net]],
                  hg.pins[hg.netOffset[net] + 1], width);
    }
    return g;
}

/** The V-cycle proper (>= 2 devices, graph larger than
 *  coarseLimit). Returns a result without replication; cost/traffic
 *  filled. */
InterFpgaResult
runVCycle(const TaskGraph &g, const Cluster &cluster,
          const InterFpgaOptions &options)
{
    const int f = cluster.numDevices();
    const int n = g.numVertices();
    InterFpgaResult out;

    obs::TraceSpan span("partition", "multilevel");
    span.arg("vertices", n).arg("devices", f);

    CoarsenOptions copt;
    copt.targetVertices = std::max(options.coarseLimit, 2 * f);
    copt.mergeCap = interFpgaDeviceBudget(g, cluster, options);
    copt.mergeCap *= 0.5; // keep coarse vertices placeable
    copt.channelMergeCap = options.channelsPerDevice / 2;
    copt.seed = options.seed;
    std::vector<Level> levels;
    {
        obs::TraceSpan cs("partition", "coarsen");
        levels = buildHierarchy(g, copt);
        cs.arg("levels", static_cast<int>(levels.size()))
            .arg("coarse_vertices", levels.back().hg.numVertices());
    }
    out.levels = static_cast<int>(levels.size()) - 1;
    out.coarseVertices = levels.back().hg.numVertices();

    // Initial partition at the coarsest level via the exact engine's
    // greedy + channel repair + FM. No ILP here: the V-cycle only
    // runs for designs above mlIlpVertexLimit (smaller ones delegate
    // to the exact engine wholesale), and at that scale the coarse
    // clusters are chunky enough that branch-and-bound adds seconds
    // for no measurable cut improvement over greedy + per-level FM.
    TaskGraph coarseG = lowerToTaskGraph(levels.back().hg, g.name());
    InterFpgaOptions iopt = options;
    iopt.backend = L1Backend::Exact;
    iopt.replicate = false;
    iopt.useIlp = false;
    InterFpgaResult init;
    {
        obs::TraceSpan is("partition", "initial");
        init = floorplanInterFpga(coarseG, cluster, iopt);
        is.arg("vertices", coarseG.numVertices())
            .arg("feasible", static_cast<int>(init.feasible))
            .arg("cost", init.cost);
    }
    out.solverStats = init.solverStats;
    out.ilpOptimal = init.ilpOptimal;
    out.interrupted = init.interrupted;

    if (!init.feasible) {
        // Coarse clusters can be too chunky to bin-pack even when the
        // flat design fits; fall back to flat greedy + FM before
        // declaring the instance infeasible.
        warn("multilevel coarse solve infeasible for '%s'; "
             "retrying flat heuristic",
             g.name().c_str());
        InterFpgaOptions fb = options;
        fb.backend = L1Backend::Exact;
        fb.replicate = false;
        fb.useIlp = false;
        InterFpgaResult flat = floorplanInterFpga(g, cluster, fb);
        flat.levels = out.levels;
        flat.interrupted = flat.interrupted || out.interrupted;
        return flat;
    }

    std::vector<DeviceId> part = init.partition.deviceOf;
    const ResourceVector budget =
        interFpgaDeviceBudget(g, cluster, options);
    int totalMoves = 0;
    for (int k = static_cast<int>(levels.size()) - 2; k >= 0; --k) {
        std::vector<DeviceId> fine(levels[k].hg.numVertices());
        for (std::size_t v = 0; v < fine.size(); ++v)
            fine[v] = part[levels[k + 1].coarseOf[v]];
        part = std::move(fine);
        obs::TraceSpan rs("partition", strprintf("refine.L%d", k));
        const RefineStats st =
            refineLevel(levels[k].hg, cluster, options, budget, part);
        rs.arg("vertices", levels[k].hg.numVertices())
            .arg("passes", st.passes)
            .arg("moves", st.moves);
        totalMoves += st.moves;
    }
    if (options.ctx.expired())
        out.interrupted = true;
    out.partition.deviceOf = std::move(part);
    obs::MetricsRegistry::global()
        .counter("tapacs.partition.fm_moves")
        .add(totalMoves);

    // Projection preserves per-device sums and refinement only makes
    // feasibility-preserving moves, so these mirror the exact tail as
    // a safety net, not an expected path.
    if (options.channelsPerDevice > 0) {
        std::vector<int> ch(f, 0);
        for (VertexId v = 0; v < n; ++v)
            ch[out.partition.deviceOf[v]] +=
                g.vertex(v).work.memChannels;
        for (int d = 0; d < f; ++d) {
            if (ch[d] > options.channelsPerDevice) {
                warn("multilevel partition oversubscribes device %d "
                     "memory channels (%d > %d)",
                     d, ch[d], options.channelsPerDevice);
                out.feasible = false;
                out.status = Status::infeasible(
                    "partition oversubscribes device %d memory "
                    "channels (%d > %d)",
                    d, ch[d], options.channelsPerDevice);
                out.partition.deviceOf.clear();
                return out;
            }
        }
    }
    if (!respectsThreshold(g, cluster, out.partition, options.reserved,
                           options.threshold)) {
        warn("no threshold-feasible %d-device partition found for "
             "'%s' (multilevel)",
             f, g.name().c_str());
        out.feasible = false;
        out.status = Status::infeasible(
            "no threshold-feasible %d-device partition found for '%s'",
            f, g.name().c_str());
        out.partition.deviceOf.clear();
        return out;
    }

    out.cost = interFpgaCost(g, cluster, out.partition);
    out.cutTrafficBytes = interFpgaTrafficBytes(g, out.partition);
    span.arg("cost", out.cost).arg("levels", out.levels);
    return out;
}

/** Replication tail shared by both backends (no-op unless requested
 *  and the base partition is feasible on >= 2 devices). */
void
maybeReplicate(const TaskGraph &g, const Cluster &cluster,
               const InterFpgaOptions &options, InterFpgaResult &out)
{
    if (!options.replicate || !out.feasible || cluster.numDevices() < 2)
        return;
    obs::TraceSpan span("partition", "replicate");
    out.replication = planReplication(g, cluster, options,
                                      out.partition);
    span.arg("replicas", out.replication.totalReplicas());
}

} // namespace

InterFpgaResult
floorplanMultilevel(const TaskGraph &g, const Cluster &cluster,
                    const InterFpgaOptions &options)
{
    const auto t0 = clock_type::now();
    g.validate();
    {
        InterFpgaResult bad;
        if (!checkInterFpgaInputs(g, cluster, options, &bad))
            return bad;
    }
    InterFpgaResult out;
    const int ilpLimit =
        std::max(options.coarseLimit, options.mlIlpVertexLimit);
    if (cluster.numDevices() == 1 || g.numVertices() <= ilpLimit) {
        // Trivial (one device) or inside the exact engine's
        // tractability window: below mlIlpVertexLimit the
        // branch-and-bound ILP is affordable and strictly higher
        // quality than any coarsen/refine cycle, so the hybrid
        // delegates wholesale. The V-cycle earns its keep above the
        // window, where the ILP is hopeless and greedy + per-level FM
        // is orders of magnitude faster than the flat heuristic.
        InterFpgaOptions ex = options;
        ex.backend = L1Backend::Exact;
        ex.replicate = false;
        out = floorplanInterFpga(g, cluster, ex);
    } else {
        out = runVCycle(g, cluster, options);
    }
    maybeReplicate(g, cluster, options, out);
    out.elapsedSeconds =
        std::chrono::duration<double>(clock_type::now() - t0).count();
    return out;
}

InterFpgaResult
solveL1(const TaskGraph &g, const Cluster &cluster,
        const InterFpgaOptions &options)
{
    if (options.backend == L1Backend::Multilevel)
        return floorplanMultilevel(g, cluster, options);
    InterFpgaResult out = floorplanInterFpga(g, cluster, options);
    maybeReplicate(g, cluster, options, out);
    return out;
}

} // namespace tapacs::partition
