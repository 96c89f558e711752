#include "cache/compile_cache.hh"

#include <cstdlib>
#include <cstring>

#include "cache/entry_io.hh"
#include "common/logging.hh"

namespace tapacs::cache
{

namespace
{

/**
 * Fold what can change which solution comes back: the node budget and
 * the solver's numerical constants, which are solver content too, so
 * editing one invalidates old disk entries. The trailing 0 keeps the
 * key bytes of entries written when the LP iteration cap was an option
 * (0 = derived from the model size, the engine's only cap).
 */
void
mixSolver(KeyBuilder &b, const ilp::SolverOptions &s)
{
    b.i64(s.maxNodes)
        .f64(ilp::kIntTol)
        .f64(ilp::kRelativeGap)
        .f64(ilp::kLpTol)
        .i64(0);
}

} // namespace

CacheKey
hlsTaskKey(const hls::TaskIr &task)
{
    KeyBuilder b;
    b.i64(kSchemaVersion).str("hls").str(task.name);
    b.i64(task.fp32AddUnits)
        .i64(task.fp32MulUnits)
        .i64(task.fp32CmpUnits)
        .i64(task.intAluUnits)
        .i64(task.fsmStates)
        .f64(static_cast<double>(task.localBufferBytes))
        .i64(task.preferUram ? 1 : 0)
        .i64(task.bufferBanks);
    b.i64(static_cast<std::int64_t>(task.streamPorts.size()));
    for (const auto &p : task.streamPorts)
        b.str(p.name).i64(p.widthBits).i64(p.isInput ? 1 : 0);
    b.i64(static_cast<std::int64_t>(task.memPorts.size()));
    for (const auto &p : task.memPorts)
        b.str(p.name).i64(p.widthBits).f64(
            static_cast<double>(p.burstBufferBytes));
    return b.build();
}

CacheKey
interKey(const TaskGraph &g, const Cluster &cluster, int numFpgas,
         const InterFpgaOptions &options)
{
    KeyBuilder b;
    b.i64(kSchemaVersion).str("inter");
    // The graph in id order, with only the attributes the level-1
    // solve reads. Positional on purpose: the solver is index-order-
    // sensitive, so equal keys must mean an identical solver walk.
    // totalBytes stays in because the entry carries cutTrafficBytes.
    b.i64(g.numVertices());
    for (const Vertex &vx : g.vertices()) {
        b.vec(vx.area)
            .i64(vx.work.memChannels)
            .f64(vx.work.memReadBytes)
            .f64(vx.work.memWriteBytes);
    }
    b.i64(g.numEdges());
    for (const Edge &ed : g.edges())
        b.i64(ed.src).i64(ed.dst).i64(ed.widthBits).f64(ed.totalBytes);
    b.key(clusterKey(cluster)).i64(numFpgas);
    b.f64(options.threshold)
        .vec(options.reserved)
        .i64(options.coarseLimit)
        .f64(kBalanceSlack)
        .i64(options.channelsPerDevice)
        .i64(options.useIlp ? 1 : 0)
        .i64(static_cast<std::int64_t>(options.seed));
    // Engine selection changes the artifact, so it is content.
    // InterFpgaOptions::numThreads is deliberately absent: the
    // multilevel backend is bit-identical at any thread count.
    b.i64(options.backend == L1Backend::Multilevel ? 1 : 0)
        .i64(options.replicate ? 1 : 0)
        .i64(options.mlIlpVertexLimit);
    // Two zeros where the key once folded the lengths of a device
    // mask and a per-vertex placement hint (both always empty), so
    // existing entries stay addressable under schema 5.
    b.i64(0).i64(0);
    mixSolver(b, options.solver);
    return b.build();
}

CacheKey
intraDeviceKey(const TaskGraph &g, const DevicePartition &partition,
               DeviceId device, const DeviceModel &dev,
               const IntraFpgaOptions &options, bool sweep)
{
    KeyBuilder b;
    b.i64(kSchemaVersion).str("intradev");
    b.key(deviceModelKey(dev));
    // The ordered induced subgraph: device vertices in ascending
    // graph id (the exact order the bisection and the binder walk),
    // with only the attributes the level-2 passes read — area and
    // memory-channel demand per vertex, width per intra-device edge.
    // Positional on purpose: the solver is index-order-sensitive, so
    // equal keys must mean an identical solver walk.
    std::vector<int> localOf(g.numVertices(), -1);
    std::int64_t nLocal = 0;
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (partition.deviceOf[v] == device)
            localOf[v] = static_cast<int>(nLocal++);
    }
    b.i64(nLocal);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (localOf[v] < 0)
            continue;
        const Vertex &vx = g.vertex(v);
        b.vec(vx.area).i64(vx.work.memChannels);
    }
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &ed = g.edge(e);
        const int lu = localOf[ed.src];
        const int lv = localOf[ed.dst];
        if (lu < 0 || lv < 0)
            continue; // cross-device: a level-1 cost, invisible here
        b.i64(lu).i64(lv).i64(ed.widthBits);
    }
    b.f64(options.threshold)
        .vec(options.reserved)
        .i64(options.useIlp ? 1 : 0)
        .f64(kMemAttractionWidth);
    mixSolver(b, options.solver);
    // The thread count is deliberately absent: floorplanLevel2 is
    // thread-count invariant, which is what lets a parallel batch
    // compile share entries with a serial one.
    b.i64(sweep ? 1 : 0);
    return b.build();
}

CompileCache &
CompileCache::global()
{
    static CompileCache *cache = new CompileCache(CacheStore::global());
    return *cache;
}

bool
CompileCache::getHls(const CacheKey &key, hls::SynthesisResult *out)
{
    auto blob = store_.get(key);
    if (!blob)
        return false;
    EntryReader r(*blob);
    hls::SynthesisResult parsed;
    std::int64_t fsm = 0, depth = 0;
    if (!r.tag("hls1") || !r.str(&parsed.taskName) ||
        !r.vec(&parsed.area) || !r.f64(&parsed.fmaxCeiling) ||
        !r.i64(&fsm) || !r.i64(&depth))
        return false;
    parsed.fsmStates = static_cast<int>(fsm);
    parsed.pipelineDepth = static_cast<int>(depth);
    *out = std::move(parsed);
    return true;
}

void
CompileCache::putHls(const CacheKey &key, const hls::SynthesisResult &result)
{
    EntryWriter w;
    w.tag("hls1");
    w.str(result.taskName);
    w.vec(result.area);
    w.f64(result.fmaxCeiling);
    w.i64(result.fsmStates);
    w.i64(result.pipelineDepth);
    store_.put(key, w.take());
}

bool
CompileCache::getInter(const CacheKey &key, int numVertices,
                       InterFpgaResult *out)
{
    auto blob = store_.get(key);
    if (!blob)
        return false;
    EntryReader r(*blob);
    InterFpgaResult parsed;
    std::int64_t nv = 0, coarse = 0, levels = 0;
    if (!r.tag("inter3") || !r.count(&nv) || !r.boolean(&parsed.feasible) ||
        !r.f64(&parsed.cost) || !r.f64(&parsed.cutTrafficBytes) ||
        !r.f64(&parsed.elapsedSeconds) || !r.boolean(&parsed.ilpOptimal) ||
        !r.i64(&coarse) || !r.i64(&levels) ||
        !readStats(r, &parsed.solverStats))
        return false;
    parsed.coarseVertices = static_cast<int>(coarse);
    parsed.levels = static_cast<int>(levels);
    // nv == 0 encodes an infeasible solve's empty partition.
    if (nv != 0 && nv != numVertices)
        return false;
    parsed.partition.deviceOf.resize(nv);
    for (DeviceId &dev : parsed.partition.deviceOf) {
        std::int64_t d;
        if (!r.i64(&d))
            return false;
        dev = static_cast<DeviceId>(d);
    }
    // Replication map: 0 or nv per-vertex device lists in id order.
    std::int64_t nr = 0;
    if (!r.count(&nr) || (nr != 0 && nr != nv))
        return false;
    parsed.replication.extraDevicesOf.resize(nr);
    for (std::vector<DeviceId> &devs : parsed.replication.extraDevicesOf) {
        std::int64_t count = 0;
        if (!r.count(&count))
            return false;
        devs.resize(count);
        for (DeviceId &dev : devs) {
            std::int64_t d;
            if (!r.i64(&d))
                return false;
            dev = static_cast<DeviceId>(d);
        }
    }
    *out = std::move(parsed);
    return true;
}

void
CompileCache::putInter(const CacheKey &key, const InterFpgaResult &result)
{
    if (!result.replication.extraDevicesOf.empty() &&
        result.replication.extraDevicesOf.size() !=
            result.partition.deviceOf.size()) {
        warn("cache: replication map size mismatch; not storing");
        return;
    }
    EntryWriter w;
    w.tag("inter3");
    w.i64(static_cast<std::int64_t>(result.partition.deviceOf.size()));
    w.i64(result.feasible ? 1 : 0);
    w.f64(result.cost);
    w.f64(result.cutTrafficBytes);
    w.f64(result.elapsedSeconds);
    w.i64(result.ilpOptimal ? 1 : 0);
    w.i64(result.coarseVertices);
    w.i64(result.levels);
    writeStats(w, result.solverStats);
    for (DeviceId d : result.partition.deviceOf)
        w.i64(d);
    w.i64(static_cast<std::int64_t>(
        result.replication.extraDevicesOf.size()));
    for (const auto &devs : result.replication.extraDevicesOf) {
        w.i64(static_cast<std::int64_t>(devs.size()));
        for (DeviceId d : devs)
            w.i64(d);
    }
    store_.put(key, w.take());
}

bool
CompileCache::getIntraDevice(const CacheKey &key, IntraDeviceEntry *out)
{
    auto blob = store_.get(key);
    if (!blob)
        return false;
    EntryReader r(*blob);
    IntraDeviceEntry parsed;
    std::int64_t nv = 0, nu = 0, nc = 0;
    if (!r.tag("intradev1") || !r.count(&nv) || !r.count(&nu) ||
        nu > nv || !r.count(&nc) ||
        !r.f64(&parsed.displacement) ||
        !r.boolean(&parsed.allIlpOptimal) || !readStats(r, &parsed.stats))
        return false;
    parsed.slots.resize(nv);
    for (std::int64_t i = 0; i < nv; ++i) {
        std::int64_t col, row;
        if (!r.i64(&col) || !r.i64(&row))
            return false;
        parsed.slots[i].col = static_cast<int>(col);
        parsed.slots[i].row = static_cast<int>(row);
    }
    parsed.grants.resize(nu);
    for (std::int64_t i = 0; i < nu; ++i) {
        std::int64_t count = 0;
        if (!r.count(&count))
            return false;
        parsed.grants[i].resize(count);
        for (std::int64_t c = 0; c < count; ++c) {
            std::int64_t ch;
            if (!r.i64(&ch))
                return false;
            parsed.grants[i][c] = static_cast<int>(ch);
        }
    }
    parsed.usersPerChannel.resize(nc);
    for (std::int64_t c = 0; c < nc; ++c) {
        std::int64_t users;
        if (!r.i64(&users))
            return false;
        parsed.usersPerChannel[c] = static_cast<int>(users);
    }
    *out = std::move(parsed);
    return true;
}

void
CompileCache::putIntraDevice(const CacheKey &key,
                             const IntraDeviceEntry &entry)
{
    if (entry.grants.size() > entry.slots.size()) {
        warn("cache: intra-device entry size mismatch; not storing");
        return;
    }
    EntryWriter w;
    w.tag("intradev1");
    w.i64(static_cast<std::int64_t>(entry.slots.size()));
    w.i64(static_cast<std::int64_t>(entry.grants.size()));
    w.i64(static_cast<std::int64_t>(entry.usersPerChannel.size()));
    w.f64(entry.displacement);
    w.i64(entry.allIlpOptimal ? 1 : 0);
    writeStats(w, entry.stats);
    for (const SlotCoord &s : entry.slots) {
        w.i64(s.col);
        w.i64(s.row);
    }
    for (const auto &channels : entry.grants) {
        w.i64(static_cast<std::int64_t>(channels.size()));
        for (int c : channels)
            w.i64(c);
    }
    for (int users : entry.usersPerChannel)
        w.i64(users);
    store_.put(key, w.take());
}

} // namespace tapacs::cache
