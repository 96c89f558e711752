#include "compiler/compiler.hh"

#include <algorithm>
#include <chrono>
#include <optional>
#include <unordered_set>

#include "cache/compile_cache.hh"
#include "common/logging.hh"
#include "network/link.hh"
#include "obs/trace.hh"
#include "partition/multilevel.hh"
#include "partition/replicate.hh"

namespace tapacs
{

namespace
{

/**
 * The Vitis stand-in placement: no chip-level view, tasks packed
 * into slots in program order, moving on only when a slot is full.
 * This concentrates logic (and every HBM-adjacent module) in the
 * lower slots — the congestion pattern the motivating example of
 * the paper describes.
 */
SlotPlacement
naivePackedPlacement(const TaskGraph &g, const DeviceModel &dev,
                     const DevicePartition &partition)
{
    SlotPlacement out;
    out.slotOf.assign(g.numVertices(), SlotCoord{0, 0});
    std::vector<ResourceVector> used(dev.numSlots());
    std::vector<int> cursor(64, 0); // per device

    for (VertexId v = 0; v < g.numVertices(); ++v) {
        const DeviceId d = partition.deviceOf[v];
        tapacs_assert(d < static_cast<int>(cursor.size()));
        int s = cursor[d];
        while (s + 1 < dev.numSlots()) {
            ResourceVector after = used[s];
            after += g.vertex(v).area;
            // Vitis's packer moves on once a region is well filled —
            // but it has no global view, so earlier slots end up far
            // more congested than a balanced floorplan would allow.
            if (after.maxUtilization(dev.slots()[s].capacity) <= 0.60)
                break;
            ++s;
        }
        cursor[d] = s;
        used[s] += g.vertex(v).area;
        out.slotOf[v] = dev.slots()[s].coord;
    }
    return out;
}

/** Round-robin HBM binding with no placement awareness (Vitis). */
HbmBinding
naiveBinding(const TaskGraph &g, const Cluster &cluster,
             const DevicePartition &partition)
{
    const int channels = cluster.device().memory().channels;
    HbmBinding out;
    out.channelsOf.assign(g.numVertices(), {});
    out.usersPerChannel.assign(cluster.numDevices(),
                               std::vector<int>(channels, 0));
    std::vector<int> next(cluster.numDevices(), 0);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        const DeviceId d = partition.deviceOf[v];
        for (int k = 0; k < g.vertex(v).work.memChannels; ++k) {
            const int c = next[d]++ % channels;
            out.channelsOf[v].push_back(c);
            ++out.usersPerChannel[d][c];
        }
    }
    return out;
}

/**
 * The compile-local ephemeral cache. With no caller-provided cache, a
 * bounded memory-only store (dropped with this object) costs little
 * and is what lets every compile record the reuse signature that
 * recompile() seeds back. A context with a deadline gets none: a run
 * that can be cut short depends on wall-clock timing, and truncated
 * solves must never be recorded anywhere, not even in a compile-local
 * scratch store.
 */
class LocalCache
{
  public:
    LocalCache() = default;
    LocalCache(const LocalCache &) = delete;
    LocalCache &operator=(const LocalCache &) = delete;

    /** The cache to compile against: `shared` when set, else a local
     *  store, or null under a deadline. */
    cache::CompileCache *
    attach(cache::CompileCache *shared, const Context &ctx)
    {
        if (shared != nullptr || ctx.hasDeadline())
            return shared;
        cache::CacheStore::Options so;
        so.capacityBytes = 64ull << 20; // bounded scratch, no disk tier
        store_.emplace(so);
        cache_.emplace(*store_);
        return &*cache_;
    }

  private:
    std::optional<cache::CacheStore> store_;
    std::optional<cache::CompileCache> cache_;
};

} // namespace

const char *
toString(CompileMode mode)
{
    switch (mode) {
      case CompileMode::VitisBaseline: return "F1-V (Vitis HLS)";
      case CompileMode::TapaSingle: return "F1-T (TAPA/AutoBridge)";
      case CompileMode::TapaCs: return "TAPA-CS";
    }
    return "?";
}

ResourceVector
networkIpArea(const DeviceModel &device, int ports)
{
    const NetworkIpOverhead oh;
    const ResourceVector &total = device.totalResources();
    ResourceVector area;
    area[ResourceKind::Lut] = total[ResourceKind::Lut] * oh.lutFrac;
    area[ResourceKind::Ff] = total[ResourceKind::Ff] * oh.ffFrac;
    area[ResourceKind::Bram] = total[ResourceKind::Bram] * oh.bramFrac;
    area[ResourceKind::Dsp] = total[ResourceKind::Dsp] * oh.dspFrac;
    area[ResourceKind::Uram] = total[ResourceKind::Uram] * oh.uramFrac;
    area *= static_cast<double>(ports);
    return area;
}

CompileResult
compile(const TaskGraph &g, const Cluster &cluster,
        const CompileOptions &options,
        const std::vector<Hertz> &fmaxCeiling)
{
    CompileResult out;
    out.mode = options.mode;

    const bool multi = options.mode == CompileMode::TapaCs &&
                       options.numFpgas > 1;
    const int fpgas = multi ? options.numFpgas : 1;
    if (fpgas > cluster.numDevices()) {
        out.status = Status::invalidInput(
            "compile: requested %d FPGAs but the cluster has %d", fpgas,
            cluster.numDevices());
        out.failureReason = out.status.message();
        return out;
    }

    const DeviceModel &dev = cluster.device();

    // A run with a deadline never writes the cache. A phase whose
    // budget is already spent does not read it either: it takes the
    // deterministic degraded path, whatever full-quality answer the
    // cache may hold.
    const bool may_store = !options.ctx.hasDeadline();

    // ---- Step 1: task-graph validation + fit gates ------------------
    // (Graph *construction* happens in the app builders; this is the
    // compiler's entry gate on that graph.)
    const ResourceVector total_area = g.totalArea();
    {
        obs::TraceSpan span("compile", "phase1.task_graph");
        const Status graph_status = g.validateStatus();
        if (!graph_status.ok()) {
            out.status = graph_status;
            out.failureReason = graph_status.message();
            return out;
        }
        span.arg("vertices", static_cast<std::int64_t>(g.numVertices()))
            .arg("edges", static_cast<std::int64_t>(g.numEdges()))
            .arg("total_luts", total_area[ResourceKind::Lut]);
        if (options.mode == CompileMode::VitisBaseline) {
            const double util =
                total_area.maxUtilization(dev.totalResources());
            if (util > kVitisRoutableUtil) {
                out.failureReason = strprintf(
                    "Vitis routing failure: device utilization %.1f%% "
                    "exceeds the un-floorplanned routable limit %.1f%%",
                    util * 100.0, kVitisRoutableUtil * 100.0);
                out.status =
                    Status::infeasible("%s", out.failureReason.c_str());
                return out;
            }
        }
        if (!multi && dev.memory().channels > 0) {
            // Single-device flows are bounded by the physical channel
            // count (e.g. 32 HBM channels on the U55C) — the hard limit
            // the paper's scaled KNN configuration exceeds.
            int total_ch = 0;
            for (const auto &v : g.vertices())
                total_ch += v.work.memChannels;
            if (total_ch > dev.memory().channels) {
                out.failureReason = strprintf(
                    "design binds %d memory channels but the device "
                    "exposes only %d",
                    total_ch, dev.memory().channels);
                out.status =
                    Status::infeasible("%s", out.failureReason.c_str());
                return out;
            }
        }
    }

    // ---- Step 4 (reservation half): communication logic -------------
    // The AlveoLink IP area must be reserved *before* floorplanning so
    // both levels see the reduced budget; the span covers the
    // reservation decision.
    {
        obs::TraceSpan span("compile", "phase4.comm_logic");
        out.reservedPerDevice =
            multi ? networkIpArea(dev, kNetworkPorts) : ResourceVector{};
        span.arg("ports", static_cast<std::int64_t>(multi ? kNetworkPorts
                                                          : 0))
            .arg("reserved_luts",
                 out.reservedPerDevice[ResourceKind::Lut]);
    }

    LocalCache local_cache;
    cache::CompileCache *cc = local_cache.attach(options.cache, options.ctx);

    // Keys of the artifacts this run binds, for the reuse signature.
    cache::CacheKey l1_used_key;
    bool l1_key_recorded = false;
    std::vector<cache::CacheKey> l2_used_keys;

    // ---- Step 3: inter-FPGA floorplanning (eq. 1-3) -----------------
    if (multi) {
        obs::TraceSpan span("compile", "phase3.inter_fpga");
        InterFpgaOptions inter = options.inter;
        inter.threshold = options.threshold;
        inter.reserved = out.reservedPerDevice;
        inter.seed = options.seed;
        inter.numThreads = options.numThreads;
        inter.channelsPerDevice = dev.memory().channels;
        // Phase budget: the level-1 solve may spend at most half the
        // remaining time, leaving the rest for level 2 and the cheap
        // tail phases. When that slice runs out the search drains
        // with its best incumbent.
        inter.ctx = options.ctx;
        if (options.ctx.hasDeadline()) {
            const double remain =
                std::max(options.ctx.remainingSeconds(), 0.0);
            inter.ctx = options.ctx.withBudget(0.5 * remain);
        }
        cache::CacheKey l1_key;
        bool l1_cached = false;
        InterFpgaResult l1;
        if (cc != nullptr && !inter.ctx.expired()) {
            l1_key = cache::interKey(g, cluster, fpgas, inter);
            l1_cached = cc->getInter(l1_key, g.numVertices(), &l1);
            l1_used_key = l1_key;
            l1_key_recorded = true;
        }
        if (!l1_cached) {
            l1 = partition::solveL1(g, cluster, inter);
            if (cc != nullptr && may_store)
                cc->putInter(l1_key, l1);
        }
        if (!l1.status.ok() &&
            l1.status.code() == StatusCode::InvalidInput) {
            out.status = l1.status;
            out.failureReason = l1.status.message();
            return out;
        }
        if (!l1.feasible && inter.useIlp) {
            // Degraded-mode fallback: the exact tier found nothing
            // (infeasible incumbent, or the budget fired before one
            // appeared) — retry once on the deterministic greedy +
            // refinement path, which is cheap and succeeds whenever
            // any threshold-feasible partition is reachable greedily.
            InterFpgaOptions fallback = inter;
            fallback.useIlp = false;
            InterFpgaResult retry = partition::solveL1(g, cluster,
                                                       fallback);
            if (retry.feasible) {
                retry.solverStats.merge(l1.solverStats);
                retry.elapsedSeconds += l1.elapsedSeconds;
                l1 = std::move(retry);
                out.degraded = true;
                out.degradedReason =
                    "inter-FPGA ILP tier produced no feasible "
                    "partition under its budget; greedy fallback "
                    "succeeded";
            }
        }
        span.arg("devices", static_cast<std::int64_t>(fpgas))
            .arg("cost", l1.cost)
            .arg("cut_traffic_bytes", l1.cutTrafficBytes)
            .arg("solver_nodes", l1.solverStats.nodesExplored)
            .arg("lp_iterations", l1.solverStats.lpIterations)
            .arg("seconds", l1.elapsedSeconds);
        if (!l1.feasible) {
            out.failureReason = strprintf(
                "no threshold-feasible partition on %d FPGA(s)", fpgas);
            // When the deadline expired, a fuller search might have
            // found one — report the truncation, not infeasibility.
            out.status = (l1.interrupted || inter.ctx.expired())
                             ? inter.ctx.status()
                             : Status::infeasible(
                                   "%s", out.failureReason.c_str());
            if (out.status.ok())
                out.status =
                    Status::infeasible("%s", out.failureReason.c_str());
            return out;
        }
        if (l1.interrupted && !out.degraded) {
            out.degraded = true;
            out.degradedReason = strprintf(
                "inter-FPGA floorplan truncated (%s): best incumbent "
                "under the budget",
                toString(inter.ctx.status().code()));
        }
        out.partition = l1.partition;
        out.l1Seconds = l1.elapsedSeconds;
        out.l1SolverStats = l1.solverStats;
        out.cutTrafficBytes = l1.cutTrafficBytes;
        if (!l1.replication.empty()) {
            // Materialize the replication plan: every later phase —
            // placement, binding, pipelining, timing, simulation —
            // consumes the expanded graph as if the app had been
            // written with the copies in it.
            obs::TraceSpan rep_span("compile", "phase3.replicate");
            partition::ReplicatedDesign design =
                partition::applyReplication(g, l1.partition,
                                            l1.replication);
            out.replication = l1.replication;
            out.expandedGraph = std::move(design.graph);
            out.partition = std::move(design.partition);
            out.expandedOriginOf = std::move(design.originOf);
            out.cutTrafficBytes = interFpgaTrafficBytes(
                out.expandedGraph, out.partition);
            rep_span
                .arg("replicas", out.replication.totalReplicas())
                .arg("cut_traffic_bytes", out.cutTrafficBytes);
        }
    } else {
        // Single device: the fit gate for the TAPA modes is the same
        // threshold the floorplanner would enforce.
        if (options.mode != CompileMode::VitisBaseline) {
            ResourceVector need = total_area;
            need += out.reservedPerDevice;
            const double util = need.maxUtilization(dev.totalResources());
            if (util > options.threshold) {
                out.failureReason = strprintf(
                    "design utilization %.1f%% exceeds threshold %.1f%% "
                    "on a single device", util * 100.0,
                    options.threshold * 100.0);
                out.status =
                    Status::infeasible("%s", out.failureReason.c_str());
                return out;
            }
        }
        out.partition.deviceOf.assign(g.numVertices(), 0);
    }

    // Phases 5-7 operate on the design as it will be built: the
    // replication-expanded graph when phase 3 produced one, the
    // caller's graph otherwise.
    const TaskGraph &dg = out.replicated() ? out.expandedGraph : g;

    // ---- Step 5: intra-FPGA floorplanning (eq. 4) -------------------
    {
        obs::TraceSpan span("compile", "phase5.intra_fpga");
        if (options.mode == CompileMode::VitisBaseline) {
            out.placement = naivePackedPlacement(dg, dev, out.partition);
            out.binding = naiveBinding(dg, cluster, out.partition);
        } else {
            IntraFpgaOptions intra = options.intra;
            intra.threshold = options.slotThreshold > 0.0
                                  ? options.slotThreshold
                                  : options.threshold;
            intra.reserved = out.reservedPerDevice;
            // Phase budget: level 2 gets most of whatever remains —
            // only the cheap pipelining/timing phases follow it.
            intra.ctx = options.ctx;
            if (options.ctx.hasDeadline()) {
                const double remain =
                    std::max(options.ctx.remainingSeconds(), 0.0);
                intra.ctx = options.ctx.withBudget(0.9 * remain);
            }
            // HBM channel binding is the memory half of step 5: the
            // paper binds channels from the same placement the
            // intra-FPGA ILP produced — so placement and binding are
            // cached together, one artifact per DEVICE. Devices are
            // independent at level 2 (cross-device edges are a level-1
            // cost), so an edit that dirties one device's subgraph
            // re-solves that device alone while every clean device
            // rebinds from its cached entry.
            const auto l2_t0 = std::chrono::steady_clock::now();
            const int num_devices = cluster.numDevices();
            std::vector<std::optional<IntraDeviceEntry>> known(
                num_devices);
            std::vector<cache::CacheKey> dev_keys(num_devices);
            if (cc != nullptr && !intra.ctx.expired()) {
                for (DeviceId d = 0; d < num_devices; ++d) {
                    dev_keys[d] = cache::intraDeviceKey(
                        dg, out.partition, d, dev, intra,
                        options.hbmBindingSweep);
                    IntraDeviceEntry e;
                    if (cc->getIntraDevice(dev_keys[d], &e))
                        known[d] = std::move(e);
                }
                l2_used_keys = dev_keys;
            }
            Level2Result l2 = floorplanLevel2(
                dg, cluster, out.partition, intra,
                options.hbmBindingSweep, options.numThreads,
                std::move(known));
            if (cc != nullptr && may_store && !l2.interrupted) {
                for (DeviceId d = 0; d < num_devices; ++d) {
                    if (l2.solved[d])
                        cc->putIntraDevice(dev_keys[d], l2.devices[d]);
                }
            }
            out.placement = std::move(l2.placement);
            out.binding = std::move(l2.binding);
            out.l2SolverStats = l2.solverStats;

            if (l2.interrupted) {
                out.degraded = true;
                if (!out.degradedReason.empty())
                    out.degradedReason += "; ";
                out.degradedReason += strprintf(
                    "intra-FPGA floorplan degraded (%s): greedy cuts "
                    "instead of per-bisection ILPs",
                    toString(intra.ctx.status().code()));
            }
            out.l2Seconds = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - l2_t0)
                                .count();
            span.arg("cost", l2.cost)
                .arg("devices_cached",
                     static_cast<std::int64_t>(std::count(
                         l2.solved.begin(), l2.solved.end(), 0)))
                .arg("solver_nodes", out.l2SolverStats.nodesExplored)
                .arg("lp_iterations", out.l2SolverStats.lpIterations)
                .arg("seconds", out.l2Seconds);
        }
    }

    // ---- Step 6: interconnect pipelining ----------------------------
    {
        obs::TraceSpan span("compile", "phase6.pipelining");
        PipelineOptions popt = options.pipeline;
        if (options.mode == CompileMode::VitisBaseline &&
            !options.vitisPrePipelined) {
            // HLS without a placement view under-pipelines: no stages.
            popt.stagesPerCrossing = 0;
            popt.balanceReconvergent = false;
        }
        out.pipeline = planPipelining(dg, cluster, out.partition,
                                      out.placement, popt);
        span.arg("register_bits", out.pipeline.totalRegisterBits)
            .arg("balance_bits", out.pipeline.totalBalanceBits);
    }

    // ---- Step 7 stand-in: timing closure ----------------------------
    obs::TraceSpan timing_span("compile", "phase7.bitstream");
    // Replicas inherit their original's intrinsic fmax ceiling.
    std::vector<Hertz> ceilings = fmaxCeiling;
    if (out.replicated() && !fmaxCeiling.empty()) {
        ceilings.resize(dg.numVertices());
        for (VertexId v = g.numVertices(); v < dg.numVertices(); ++v)
            ceilings[v] = fmaxCeiling[out.expandedOriginOf[v]];
    }
    out.timing = estimateTiming(dg, cluster, out.partition, out.placement,
                                out.pipeline, ceilings,
                                out.reservedPerDevice, &out.binding);
    timing_span
        .arg("fmax_mhz", out.timing.designFmax / 1e6)
        .arg("routable",
             static_cast<std::int64_t>(out.timing.allRoutable));
    if (!out.timing.allRoutable) {
        for (const auto &dt : out.timing.perDevice) {
            if (!dt.routable) {
                out.failureReason = dt.critical;
                break;
            }
        }
        out.status = Status::infeasible("%s", out.failureReason.c_str());
        return out;
    }

    out.routable = true;
    out.fmax = out.timing.designFmax;
    out.deviceFmax.resize(cluster.numDevices());
    for (DeviceId d = 0; d < cluster.numDevices(); ++d)
        out.deviceFmax[d] = out.timing.perDevice[d].fmax;
    out.deviceAreas = perDeviceArea(dg, cluster, out.partition);

    // Reuse signature: the content keys + blobs of every solver
    // artifact this run bound, for recompile() to seed forward. Only
    // keys whose blob actually sits in the store are captured.
    if (cc != nullptr && may_store) {
        out.signature.schemaVersion = cache::kSchemaVersion;
        auto capture = [&](const char *tier,
                           const cache::CacheKey &key) {
            if (auto blob = cc->store().get(key))
                out.signature.artifacts.push_back(
                    cache::Artifact{tier, key, *blob});
        };
        if (l1_key_recorded)
            capture(cache::kTierL1, l1_used_key);
        for (const cache::CacheKey &key : l2_used_keys)
            capture(cache::kTierL2Device, key);
    }
    return out;
}

CompileResult
compileProgram(TaskGraph &g, const std::vector<hls::TaskIr> &tasks,
               const Cluster &cluster, const CompileOptions &options)
{
    // Attached here rather than in compile() so the per-task HLS
    // estimates participate in the reuse signature too.
    LocalCache local_cache;
    CompileOptions opts = options;
    opts.cache = local_cache.attach(options.cache, options.ctx);

    std::vector<Hertz> ceilings(g.numVertices(), 340.0e6);
    std::vector<cache::CacheKey> hls_keys;
    {
        obs::TraceSpan span("compile", "phase2.synthesis");
        hls::ProgramSynthesis synth;
        cache::CompileCache *cc = opts.cache;
        if (cc == nullptr) {
            synth = hls::synthesizeAll(tasks, opts.numThreads);
        } else {
            // Per-task memoization: only the tasks whose content keys
            // miss go through the (parallel) estimator; the assembled
            // result keeps the original task order, so applySynthesis
            // and the ceiling join below behave exactly as cold.
            std::vector<cache::CacheKey> keys(tasks.size());
            std::vector<char> have(tasks.size(), 0);
            std::vector<hls::SynthesisResult> hit(tasks.size());
            std::vector<hls::TaskIr> missing;
            for (std::size_t i = 0; i < tasks.size(); ++i) {
                keys[i] = cache::hlsTaskKey(tasks[i]);
                have[i] = cc->getHls(keys[i], &hit[i]) ? 1 : 0;
                if (!have[i])
                    missing.push_back(tasks[i]);
            }
            hls::ProgramSynthesis fresh;
            if (!missing.empty())
                fresh = hls::synthesizeAll(missing, opts.numThreads);
            synth.tasks.reserve(tasks.size());
            std::size_t m = 0;
            for (std::size_t i = 0; i < tasks.size(); ++i) {
                if (have[i]) {
                    synth.tasks.push_back(std::move(hit[i]));
                } else {
                    cc->putHls(keys[i], fresh.tasks[m]);
                    synth.tasks.push_back(std::move(fresh.tasks[m]));
                    ++m;
                }
            }
            hls_keys = std::move(keys);
        }
        hls::applySynthesis(g, synth);
        for (VertexId v = 0; v < g.numVertices(); ++v) {
            const hls::SynthesisResult *r = synth.find(g.vertex(v).name);
            if (r)
                ceilings[v] = r->fmaxCeiling;
        }
        span.arg("tasks", static_cast<std::int64_t>(tasks.size()));
    }
    CompileResult out = compile(g, cluster, opts, ceilings);
    // Append the phase-2 artifacts to the signature compile() started
    // (a routable run with caching and no deadline; otherwise the
    // signature is deliberately absent and HLS reuse with it).
    if (!hls_keys.empty() && out.signature.schemaVersion != 0) {
        cache::CacheStore &store = opts.cache->store();
        for (const cache::CacheKey &key : hls_keys) {
            if (auto blob = store.get(key))
                out.signature.artifacts.push_back(
                    cache::Artifact{cache::kTierHls, key, *blob});
        }
    }
    return out;
}

namespace
{

/** Why @p prior cannot seed this request; empty when it can. */
std::string
priorRejectReason(const CompileResult &prior)
{
    if (prior.signature.empty())
        return "incremental: prior result carries no reuse signature; "
               "cold compile";
    if (prior.signature.schemaVersion != cache::kSchemaVersion)
        return strprintf(
            "incremental: prior reuse signature has cache schema %d "
            "(this build writes %d); cold compile",
            prior.signature.schemaVersion, cache::kSchemaVersion);
    return "";
}

/** Post-hoc reuse report: the new compile's artifact keys against the
 *  prior's. Purely informational (see CompileDelta). */
cache::CompileDelta
computeDelta(const cache::CompileSignature &prior,
             const cache::CompileSignature &now)
{
    cache::CompileDelta d;
    d.attempted = true;
    std::unordered_set<cache::CacheKey, cache::CacheKeyHash> seen;
    for (const cache::Artifact &a : prior.artifacts)
        seen.insert(a.key);
    for (const cache::Artifact &a : now.artifacts) {
        const bool reused = seen.count(a.key) > 0;
        if (a.tier == cache::kTierHls) {
            ++d.hlsTotal;
            if (reused)
                ++d.hlsReused;
        } else if (a.tier == cache::kTierL1) {
            d.l1Reused = d.l1Reused || reused;
        } else if (a.tier == cache::kTierL2Device) {
            ++d.devicesTotal;
            if (reused)
                ++d.devicesReused;
        }
    }
    return d;
}

/**
 * Everything the two incremental entry points share around the plain
 * flow: validate the prior, seed its artifacts into a cache (owning
 * the ephemeral store when the caller attached none), and afterwards
 * stamp the delta plus the typed fallback notes onto the result.
 */
class IncrementalSeed
{
  public:
    IncrementalSeed(const CompileResult &prior,
                    const CompileOptions &options)
        : opts(options)
    {
        reject_ = priorRejectReason(prior);
        if (reject_.empty()) {
            opts.cache = localCache_.attach(options.cache, options.ctx);
            if (opts.cache == nullptr) {
                // A deadline and no shared cache: compile() will run
                // uncached (truncated solves must not be recorded), so
                // there is nowhere to seed the prior into.
                reject_ = "incremental: deadline context with no "
                          "shared cache; cold compile";
            } else {
                // Content-addressed seeding: a put is a no-op unless
                // the edited graph re-derives the same key, in which
                // case the bytes are what a cold solve would produce.
                for (const cache::Artifact &a : prior.signature.artifacts)
                    opts.cache->store().put(a.key, a.blob);
                seeded_ = true;
            }
        }
    }

    void
    finish(const CompileResult &prior, CompileResult *out) const
    {
        out->delta = seeded_
                         ? computeDelta(prior.signature, out->signature)
                         : cache::CompileDelta{};
        out->delta.attempted = true;
        std::string note = reject_;
        if (note.empty() && out->routable &&
            out->signature.schemaVersion != 0 &&
            !prior.signature.empty() && out->delta.hlsReused == 0 &&
            !out->delta.l1Reused && out->delta.devicesReused == 0) {
            note = "incremental: edit invalidated every subgraph; cold "
                   "recompile";
        }
        if (!note.empty()) {
            // Typed note, not a quality downgrade: the cold result is
            // full quality, so degraded stays untouched.
            if (!out->degradedReason.empty())
                out->degradedReason += "; ";
            out->degradedReason += note;
        }
    }

    CompileOptions opts;

  private:
    LocalCache localCache_;
    std::string reject_;
    bool seeded_ = false;
};

} // namespace

CompileResult
recompile(const CompileResult &prior, const TaskGraph &g,
          const Cluster &cluster, const CompileOptions &options)
{
    IncrementalSeed seed(prior, options);
    CompileResult out = compile(g, cluster, seed.opts);
    seed.finish(prior, &out);
    return out;
}

CompileResult
recompileProgram(const CompileResult &prior, TaskGraph &g,
                 const std::vector<hls::TaskIr> &tasks,
                 const Cluster &cluster, const CompileOptions &options)
{
    IncrementalSeed seed(prior, options);
    CompileResult out = compileProgram(g, tasks, cluster, seed.opts);
    seed.finish(prior, &out);
    return out;
}

} // namespace tapacs
