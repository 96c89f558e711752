#include "serve/execute.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <utility>

#include "apps/workloads.hh"
#include "cache/compile_cache.hh"
#include "cache/entry_io.hh"
#include "common/crc64.hh"
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
constexpr std::streamoff kMaxGraphFileBytes = 64LL << 20;

Status
readFileBounded(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return Status::invalidInput("cannot open '%s'", path.c_str());
    in.seekg(0, std::ios::end);
    const std::streamoff size = in.tellg();
    if (size < 0)
        return Status::invalidInput("cannot size '%s'", path.c_str());
    if (size > kMaxGraphFileBytes)
        return Status::invalidInput(
            "graph file '%s' is %lld bytes (limit %lld)", path.c_str(),
            static_cast<long long>(size),
            static_cast<long long>(kMaxGraphFileBytes));
    in.seekg(0, std::ios::beg);
    std::ostringstream body;
    body << in.rdbuf();
    *out = body.str();
    return Status();
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

Context
requestContext(const Request &req)
{
    return req.deadlineMs < 0.0
               ? Context()
               : Context::withTimeout(req.deadlineMs / 1000.0);
}

ServeOutcome
executeRequest(const Request &req, const Context &ctx,
               const ExecutePolicy &policy)
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
    opt.ctx = ctx;
    opt.inter.backend = req.solver;
    opt.inter.replicate = req.replicate;
    if (req.coarseLimit > 0)
        opt.inter.coarseLimit = req.coarseLimit;

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
        // the request's deadline bounds the whole sweep.
        TaskGraph graph;
        std::vector<hls::TaskIr> tasks;
        Status st;
        if (!req.graphFile.empty()) {
            std::string text;
            st = readFileBounded(req.graphFile, &text);
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
            eopt.base.mode = req.mode;
            eopt.base.numFpgas = req.fpgas;
            eopt.base.inter.backend = req.solver;
            eopt.base.inter.replicate = req.replicate;
            if (req.coarseLimit > 0)
                eopt.base.inter.coarseLimit = req.coarseLimit;
            eopt.cache = policy.cache;
            eopt.ctx = ctx;
            const explore::ExploreResult er =
                explore::runExplore(graph, tasks, req.grid, eopt);
            out.status = er.status;
            out.explored = er.status.ok();
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
            st = readFileBounded(req.graphFile, &text);
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
            sopt.ctx = ctx;
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
            } else {
                // Partial results (deadline, event cap) still
                // carry their stats; the typed reason propagates so
                // the retry/deadline accounting upstream sees it.
                out.simulated = true;
                out.simMakespan = simmed.value().makespan;
                if (!simmed.value().status.ok()) {
                    out.status = simmed.value().status;
                    out.failureReason = out.status.message();
                }
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
