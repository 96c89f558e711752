#include "serve/execute.hh"

#include <algorithm>
#include <chrono>
#include <utility>

#include "apps/workloads.hh"
#include "cache/compile_cache.hh"
#include "cache/entry_io.hh"
#include "common/crc64.hh"
#include "common/frame.hh"
#include "common/logging.hh"
#include "explore/explore.hh"
#include "graph/serialize.hh"
#include "network/cluster.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/dataflow_sim.hh"

namespace tapacs::serve
{

namespace
{

/** Cap on graph= file size: an adversarial request must not be able
 *  to balloon the serving process. */
constexpr std::uint64_t kMaxGraphFileBytes = 64ull << 20;

Status
readGraphFile(const std::string &path, std::string *out)
{
    const Status st = readFile(path, out, kMaxGraphFileBytes);
    if (st.code() == StatusCode::ResourceExhausted)
        return Status::invalidInput("graph %s", st.message().c_str());
    return st;
}

} // namespace

std::uint64_t
resultDigest(const CompileResult &result)
{
    cache::EntryWriter w;
    w.tag("RD1");
    w.i64(static_cast<std::int64_t>(result.mode));
    w.i64(result.routable ? 1 : 0);
    w.i64(result.degraded ? 1 : 0);
    w.f64(result.fmax);
    w.f64(result.cutTrafficBytes);
    w.i64(static_cast<std::int64_t>(result.partition.deviceOf.size()));
    for (const auto device : result.partition.deviceOf)
        w.i64(device);
    w.i64(static_cast<std::int64_t>(result.placement.slotOf.size()));
    for (const auto &slot : result.placement.slotOf) {
        w.i64(slot.col);
        w.i64(slot.row);
    }
    w.i64(static_cast<std::int64_t>(result.binding.channelsOf.size()));
    for (const auto &channels : result.binding.channelsOf) {
        w.i64(static_cast<std::int64_t>(channels.size()));
        for (const int channel : channels)
            w.i64(channel);
    }
    w.f64(result.pipeline.totalRegisterBits);
    w.f64(result.pipeline.totalBalanceBits);
    w.i64(static_cast<std::int64_t>(result.deviceFmax.size()));
    for (const double fmax : result.deviceFmax)
        w.f64(fmax);
    return crc64(w.take());
}

ServeOutcome
executeRequest(const Request &req, const ExecutePolicy &policy)
{
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    obs::TraceSpan span("serve", "request." + req.name);

    ServeOutcome out;
    out.name = req.name;

    CompileOptions opt;
    opt.mode = req.mode;
    opt.numFpgas = req.fpgas;
    opt.threshold = req.threshold;
    opt.cache = policy.cache;
    opt.inter.backend = req.solver;
    opt.inter.replicate = req.replicate;
    if (req.coarseLimit > 0)
        opt.inter.coarseLimit = req.coarseLimit;
    const bool greedyTier = applyDeadline(req.deadlineMs, &opt);

    // Incremental requests resolve their base against the session's
    // retained results; a missing base (never ran, failed, evicted)
    // degrades to a typed cold compile — never an error.
    CompileResult prior;
    bool hasPrior = false;
    std::string incNote;
    if (req.incremental) {
        if (policy.findRetained && policy.findRetained(req.base, &prior)) {
            hasPrior = true;
        } else {
            incNote = strprintf(
                "incremental: base '%s' not retained; cold compile",
                req.base.c_str());
        }
    }

    if (req.explore) {
        // Design-space sweep: the explore driver owns per-point
        // clusters (the topology axis), parallelism and simulation;
        // the request's tier applies to every point and its deadline
        // bounds the whole sweep.
        TaskGraph graph;
        std::vector<hls::TaskIr> tasks;
        Status st;
        if (!req.graphFile.empty()) {
            std::string text;
            st = readGraphFile(req.graphFile, &text);
            if (st.ok())
                st = tryParseTaskGraph(text, &graph);
        } else {
            apps::AppDesign design;
            st = apps::buildWorkload(req.workload, req.fpgas,
                                     req.scale, &design);
            if (st.ok()) {
                graph = std::move(design.graph);
                tasks = std::move(design.tasks);
            }
        }
        if (st.ok()) {
            explore::ExploreOptions eopt;
            eopt.base = opt;
            eopt.cache = policy.cache;
            eopt.ctx = opt.ctx;
            const explore::ExploreResult er =
                explore::runExplore(graph, tasks, req.grid, eopt);
            out.status = er.status;
            out.explored = er.status.ok();
            if (greedyTier && out.explored) {
                out.degraded = true;
                out.degradedReason = kGreedyTierReason;
            }
            out.tasks = graph.numVertices();
            out.explorePoints = static_cast<int>(er.trace.size());
            out.exploreFrontier =
                static_cast<int>(er.frontier.size());
            out.exploreHitRate = er.cacheHitRate;
            // routable/fmax describe the best-clock frontier point; a
            // sweep where nothing routed is a failed request.
            for (std::size_t idx : er.frontier) {
                out.routable = true;
                out.fmax = std::max(out.fmax,
                                    er.trace[idx].obj.fmax);
            }
            if (out.status.ok() && !out.routable) {
                out.status = Status::infeasible(
                    "explore '%s': no grid point produced a "
                    "routable, simulated design",
                    req.name.c_str());
                out.failureReason = out.status.message();
            }
            // A sweep has no single CompileResult; digest the
            // deterministic sweep summary instead so fleet-vs-serial
            // identity still has something to compare.
            cache::EntryWriter w;
            w.tag("XD1");
            w.i64(out.explorePoints);
            w.i64(out.exploreFrontier);
            w.i64(out.routable ? 1 : 0);
            w.f64(out.fmax);
            out.resultDigest = crc64(w.take());
        } else {
            out.status = st;
            out.failureReason = st.message();
        }
        out.seconds =
            std::chrono::duration<double>(clock::now() - t0).count();
        span.arg("seconds", out.seconds)
            .arg("status", toString(out.status.code()))
            .arg("explore_points",
                 static_cast<std::int64_t>(out.explorePoints))
            .arg("explore_frontier",
                 static_cast<std::int64_t>(out.exploreFrontier));
        obs::MetricsRegistry::global()
            .histogram("tapacs.serve.request_seconds",
                       {0.01, 0.1, 0.5, 1.0, 5.0, 30.0})
            .observe(out.seconds);
        return out;
    }

    Cluster cluster(makeU55C(), Topology(TopologyKind::Ring, 1), 1);
    Status st = tryMakePaperTestbed(req.fpgas, &cluster, req.topology);
    if (st.ok()) {
        CompileResult result;
        // The graph outlives the compile branch: simulate=1 feeds the
        // same graph back through the event-driven simulator below.
        TaskGraph graph;
        if (!req.graphFile.empty()) {
            std::string text;
            st = readGraphFile(req.graphFile, &text);
            if (st.ok()) {
                st = tryParseTaskGraph(text, &graph);
                if (st.ok()) {
                    out.tasks = graph.numVertices();
                    result = hasPrior
                                 ? recompile(prior, graph, cluster, opt)
                                 : compile(graph, cluster, opt);
                }
            }
        } else {
            apps::AppDesign design;
            st = apps::buildWorkload(req.workload, req.fpgas,
                                     req.scale, &design);
            if (st.ok()) {
                graph = std::move(design.graph);
                out.tasks = graph.numVertices();
                result = hasPrior
                             ? recompileProgram(prior, graph,
                                                design.tasks, cluster,
                                                opt)
                             : compileProgram(graph, design.tasks,
                                              cluster, opt);
            }
        }
        if (st.ok()) {
            if (greedyTier && result.status.ok()) {
                result.degraded = true;
                if (!result.degradedReason.empty())
                    result.degradedReason += "; ";
                result.degradedReason += kGreedyTierReason;
            }
            out.status = result.status;
            if (!result.routable && out.status.ok())
                out.status = Status::internal(
                    "compile returned unroutable with no status");
            out.routable = result.routable;
            out.degraded = result.degraded;
            out.degradedReason = result.degradedReason;
            out.failureReason = result.failureReason;
            out.fmax = result.fmax;
            out.cutTrafficBytes = result.cutTrafficBytes;
            // Only a produced design has a digest: a failed compile
            // would otherwise share the digest of the empty result.
            if (result.status.ok())
                out.resultDigest = resultDigest(result);
            if (req.incremental)
                out.deltaSummary = result.delta.summary();
            if (!incNote.empty()) {
                if (!out.degradedReason.empty())
                    out.degradedReason += "; ";
                out.degradedReason += incNote;
            }
            if (result.routable && policy.retain)
                policy.retain(req.name, result);
        }
        if (st.ok() && req.simulate && out.status.ok() &&
            result.routable) {
            sim::SimOptions sopt;
            sopt.ctx = opt.ctx;
            // A replicated design simulates as the expanded graph —
            // the one placement/binding/pipelining actually describe.
            const TaskGraph &simGraph =
                result.replicated() ? result.expandedGraph : graph;
            const StatusOr<sim::SimResult> simmed = sim::trySimulate(
                simGraph, cluster, result.partition, result.binding,
                result.pipeline, result.deviceFmax, sopt);
            if (!simmed.ok()) {
                // Shape/rate validation failed: the *request* is bad.
                out.status = simmed.status();
                out.failureReason = out.status.message();
            } else if (!simmed.value().status.ok()) {
                // A simulation its deadline (or the event cap) stopped
                // has no makespan, only the typed reason, which the
                // retry/deadline accounting upstream sees.
                out.status = simmed.value().status;
                out.failureReason = out.status.message();
            } else {
                out.simulated = true;
                out.simMakespan = simmed.value().makespan;
            }
        }
    }
    if (!st.ok()) {
        out.status = st;
        out.failureReason = st.message();
    }

    out.seconds =
        std::chrono::duration<double>(clock::now() - t0).count();
    span.arg("seconds", out.seconds)
        .arg("status", toString(out.status.code()))
        .arg("routable", static_cast<std::int64_t>(out.routable))
        .arg("degraded", static_cast<std::int64_t>(out.degraded))
        .arg("simulated", static_cast<std::int64_t>(out.simulated));
    obs::MetricsRegistry::global()
        .histogram("tapacs.serve.request_seconds",
                   {0.01, 0.1, 0.5, 1.0, 5.0, 30.0})
        .observe(out.seconds);
    return out;
}

} // namespace tapacs::serve
