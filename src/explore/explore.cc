#include "explore/explore.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>

#include "cache/compile_cache.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "network/cluster.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace tapacs::explore
{

namespace
{

/** Worst per-device utilization of a routable result, networking
 *  reservation included — the sweep's resource objective. */
double
worstUtilization(const Cluster &cluster, const CompileResult &result)
{
    const ResourceVector &total = cluster.device().totalResources();
    double worst = 0.0;
    for (const ResourceVector &area : result.deviceAreas) {
        const double u =
            (area + result.reservedPerDevice).maxUtilization(total);
        worst = std::max(worst, u);
    }
    return worst;
}

const char *
bindingName(bool sweep)
{
    return sweep ? "sweep" : "nearest";
}

} // namespace

ExploreResult
runExplore(const TaskGraph &g, const std::vector<hls::TaskIr> &tasks,
           const ExploreSpec &spec, const ExploreOptions &options)
{
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();

    ExploreResult out;
    out.spec = spec;
    out.status = spec.validate();
    if (!out.status.ok())
        return out;

    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    obs::TraceSpan sweepSpan("explore", "sweep");

    // One shared cache for every point of the sweep: the caller's, or
    // a sweep-private store. Exact-key sharing is what makes adjacent
    // points nearly free without changing any individual answer.
    std::unique_ptr<cache::CacheStore> localStore;
    std::unique_ptr<cache::CompileCache> localCache;
    cache::CompileCache *cc = options.cache;
    if (cc == nullptr) {
        localStore = std::make_unique<cache::CacheStore>();
        localCache = std::make_unique<cache::CompileCache>(*localStore);
        cc = localCache.get();
    }
    const std::int64_t hits0 =
        reg.counter("tapacs.cache.hits").value();
    const std::int64_t misses0 =
        reg.counter("tapacs.cache.misses").value();

    CompileOptions base = options.base;
    base.cache = cc;

    const std::size_t n = spec.numPoints();
    out.trace.resize(n);

    auto evalPoint = [&](std::size_t idx) {
        const auto p0 = clock::now();
        PointOutcome &po = out.trace[idx];
        po.point = spec.point(idx);
        obs::TraceSpan span("explore", "point." + po.point.label());

        if (options.ctx.expired()) {
            po.status = options.ctx.status();
        } else {
            Cluster cluster(makeU55C(),
                            Topology(TopologyKind::Ring, 1), 1);
            Status st = tryMakePaperTestbed(base.numFpgas, &cluster,
                                            po.point.topology);
            if (!st.ok()) {
                po.status = st;
            } else {
                CompileOptions popt = base;
                popt.threshold = po.point.threshold;
                popt.slotThreshold = po.point.slotThreshold;
                popt.hbmBindingSweep = po.point.bindingSweep;
                popt.pipeline.stagesPerCrossing = po.point.depth;
                popt.ctx = options.pointDeadlineSeconds >= 0.0
                               ? options.ctx.withBudget(
                                     options.pointDeadlineSeconds)
                               : options.ctx;

                // compileProgram stamps areas onto the graph, so each
                // point works on its own copy.
                TaskGraph local = g;
                po.result =
                    tasks.empty()
                        ? compile(local, cluster, popt)
                        : compileProgram(local, tasks, cluster, popt);
                po.status = po.result.status;
                po.routable = po.result.routable;
                po.degraded = po.result.degraded;
                if (po.routable) {
                    po.obj.fmax = po.result.fmax;
                    po.obj.utilization =
                        worstUtilization(cluster, po.result);
                }
                if (options.simulate && po.routable &&
                    po.status.ok()) {
                    sim::SimOptions sopt;
                    sopt.ctx = popt.ctx;
                    const TaskGraph &simGraph =
                        po.result.replicated()
                            ? po.result.expandedGraph
                            : local;
                    const StatusOr<sim::SimResult> simmed =
                        sim::trySimulate(simGraph, cluster,
                                         po.result.partition,
                                         po.result.binding,
                                         po.result.pipeline,
                                         po.result.deviceFmax, sopt);
                    if (!simmed.ok()) {
                        po.status = simmed.status();
                    } else if (!simmed.value().status.ok()) {
                        // A partial makespan is a lower bound, not an
                        // objective: the typed reason propagates and
                        // the point stays frontier-ineligible.
                        po.status = simmed.value().status;
                    } else {
                        po.simulated = true;
                        po.obj.latency = simmed.value().makespan;
                    }
                }
            }
        }

        po.seconds =
            std::chrono::duration<double>(clock::now() - p0).count();
        span.arg("seconds", po.seconds)
            .arg("status", toString(po.status.code()))
            .arg("routable", static_cast<std::int64_t>(po.routable))
            .arg("simulated",
                 static_cast<std::int64_t>(po.simulated));
    };

    // Claim order is load-dependent, but every point writes only its
    // own trace slot and results are order-independent, so the
    // reduction below sees identical inputs at any thread count.
    ThreadPool::defaultPool().parallelFor(
        0, static_cast<std::int64_t>(n), evalPoint, options.threads);

    // Reduce over the canonical order.
    std::vector<Objectives> objs(n);
    std::vector<char> eligible(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        objs[i] = out.trace[i].obj;
        eligible[i] =
            out.trace[i].eligible(options.simulate) ? 1 : 0;
    }
    out.frontier = paretoFrontier(objs, eligible);

    out.cacheHits = reg.counter("tapacs.cache.hits").value() - hits0;
    out.cacheMisses =
        reg.counter("tapacs.cache.misses").value() - misses0;
    const std::int64_t lookups = out.cacheHits + out.cacheMisses;
    out.cacheHitRate =
        lookups > 0 ? static_cast<double>(out.cacheHits) / lookups
                    : 0.0;
    if (options.ctx.expired() && out.status.ok())
        out.status = options.ctx.status();
    out.seconds =
        std::chrono::duration<double>(clock::now() - t0).count();

    sweepSpan.arg("points", static_cast<std::int64_t>(n))
        .arg("frontier",
             static_cast<std::int64_t>(out.frontier.size()))
        .arg("cache_hit_rate", out.cacheHitRate)
        .arg("seconds", out.seconds);
    return out;
}

std::string
frontierCsv(const ExploreResult &result)
{
    std::string out =
        "t,lambda,topo,binding,depth,fmax_hz,utilization,latency_s\n";
    for (std::size_t idx : result.frontier) {
        const PointOutcome &po = result.trace[idx];
        out += strprintf(
            "%.6g,%s,%s,%s,%d,%.17g,%.17g,%.17g\n",
            po.point.threshold,
            po.point.slotThreshold > 0.0
                ? strprintf("%.6g", po.point.slotThreshold).c_str()
                : "follow",
            gridTopologyName(po.point.topology),
            bindingName(po.point.bindingSweep), po.point.depth,
            po.obj.fmax, po.obj.utilization, po.obj.latency);
    }
    return out;
}

std::string
exploreJson(const ExploreResult &result)
{
    std::ostringstream out;
    out << "{\"points\":" << result.trace.size() << ",\"trace\":[";
    for (std::size_t i = 0; i < result.trace.size(); ++i) {
        const PointOutcome &po = result.trace[i];
        if (i != 0)
            out << ",";
        const bool onFrontier =
            std::find(result.frontier.begin(), result.frontier.end(),
                      i) != result.frontier.end();
        out << strprintf(
            "{\"index\":%zu,\"t\":%.6g,\"lambda\":%.6g,"
            "\"topo\":\"%s\",\"binding\":\"%s\",\"depth\":%d,"
            "\"status\":\"%s\",\"routable\":%s,\"degraded\":%s,"
            "\"simulated\":%s,\"fmax\":%.17g,\"utilization\":%.17g,"
            "\"latency\":%.17g,\"seconds\":%.6g,\"frontier\":%s}",
            i, po.point.threshold, po.point.slotThreshold,
            gridTopologyName(po.point.topology),
            bindingName(po.point.bindingSweep), po.point.depth,
            toString(po.status.code()),
            po.routable ? "true" : "false",
            po.degraded ? "true" : "false",
            po.simulated ? "true" : "false", po.obj.fmax,
            po.obj.utilization, po.obj.latency, po.seconds,
            onFrontier ? "true" : "false");
    }
    out << "],\"frontier\":[";
    for (std::size_t i = 0; i < result.frontier.size(); ++i) {
        if (i != 0)
            out << ",";
        out << result.frontier[i];
    }
    out << strprintf("],\"cache\":{\"hits\":%lld,\"misses\":%lld,"
                     "\"hit_rate\":%.6g},\"seconds\":%.6g}",
                     static_cast<long long>(result.cacheHits),
                     static_cast<long long>(result.cacheMisses),
                     result.cacheHitRate, result.seconds);
    return out.str();
}

} // namespace tapacs::explore
