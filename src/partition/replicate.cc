#include "partition/replicate.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tapacs::partition
{

namespace
{

constexpr double kSaveEps = 1e-9;

struct Candidate
{
    VertexId vertex;
    DeviceId device;
    double save;
};

} // namespace

ReplicationMap
planReplication(const TaskGraph &g, const Cluster &cluster,
                const InterFpgaOptions &options,
                const DevicePartition &part)
{
    const int n = g.numVertices();
    const int f = cluster.numDevices();
    ReplicationMap map;
    map.extraDevicesOf.assign(n, {});
    if (f < 2 || n == 0)
        return map;

    const ResourceVector budget =
        interFpgaDeviceBudget(g, cluster, options);
    std::vector<ResourceVector> used(f);
    std::vector<int> ch(f, 0);
    for (VertexId v = 0; v < n; ++v) {
        used[part.deviceOf[v]] += g.vertex(v).area;
        ch[part.deviceOf[v]] += g.vertex(v).work.memChannels;
    }

    std::vector<Candidate> candidates;
    std::vector<double> outWidthTo(f, 0.0);
    for (VertexId v = 0; v < n; ++v) {
        const Vertex &vx = g.vertex(v);
        // Writers cannot be duplicated (stores would double); a
        // self-loop carries private state a copy must not fork.
        if (vx.work.memWriteBytes > 0.0)
            continue;
        bool selfLoop = false;
        for (EdgeId e : g.outEdges(v))
            selfLoop = selfLoop || g.edge(e).dst == v;
        if (selfLoop || g.outEdges(v).empty())
            continue;
        const DeviceId p = part.deviceOf[v];
        std::fill(outWidthTo.begin(), outWidthTo.end(), 0.0);
        bool anyForeign = false;
        for (EdgeId e : g.outEdges(v)) {
            const DeviceId d = part.deviceOf[g.edge(e).dst];
            outWidthTo[d] += g.edge(e).widthBits;
            anyForeign = anyForeign || d != p;
        }
        if (!anyForeign)
            continue;
        for (DeviceId r = 0; r < f; ++r) {
            if (r == p || outWidthTo[r] <= 0.0)
                continue;
            double save =
                outWidthTo[r] * cluster.costDistance(p, r);
            for (EdgeId e : g.inEdges(v)) {
                save -= g.edge(e).widthBits *
                        cluster.costDistance(
                            part.deviceOf[g.edge(e).src], r);
            }
            if (save > kSaveEps)
                candidates.push_back({v, r, save});
        }
    }

    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate &a, const Candidate &b) {
                  if (a.save != b.save)
                      return a.save > b.save;
                  if (a.vertex != b.vertex)
                      return a.vertex < b.vertex;
                  return a.device < b.device;
              });

    // Greedy commit: savings are independent across accepted replicas
    // (no vertex moves), so only the shared budget needs re-checking.
    for (const Candidate &c : candidates) {
        const Vertex &vx = g.vertex(c.vertex);
        ResourceVector after = used[c.device];
        after += vx.area;
        if (!after.fitsWithin(budget))
            continue;
        if (options.channelsPerDevice > 0 &&
            ch[c.device] + vx.work.memChannels >
                options.channelsPerDevice)
            continue;
        used[c.device] = after;
        ch[c.device] += vx.work.memChannels;
        map.extraDevicesOf[c.vertex].push_back(c.device);
    }
    for (auto &devs : map.extraDevicesOf)
        std::sort(devs.begin(), devs.end());
    return map;
}

ReplicatedDesign
applyReplication(const TaskGraph &g, const DevicePartition &part,
                 const ReplicationMap &replication)
{
    const int n = g.numVertices();
    tapacs_assert(static_cast<int>(part.deviceOf.size()) == n);
    tapacs_assert(
        static_cast<int>(replication.extraDevicesOf.size()) == n);

    ReplicatedDesign out;
    out.graph.setName(g.name());
    out.partition.deviceOf = part.deviceOf;
    out.originOf.resize(n);
    for (VertexId v = 0; v < n; ++v) {
        out.graph.addVertex(g.vertex(v));
        out.originOf[v] = v;
    }

    // Replicas appended in (vertex, device) order; per-vertex lookup
    // of replica ids by device for the re-wiring pass below.
    std::vector<std::vector<std::pair<DeviceId, VertexId>>> replicaOf(
        n);
    for (VertexId v = 0; v < n; ++v) {
        for (DeviceId r : replication.extraDevicesOf[v]) {
            Vertex copy = g.vertex(v);
            copy.name += strprintf("@%d", r);
            const VertexId id = out.graph.addVertex(std::move(copy));
            out.partition.deviceOf.push_back(r);
            out.originOf.push_back(v);
            replicaOf[v].push_back({r, id});
        }
    }

    auto replicaOn = [&](VertexId v, DeviceId d) -> VertexId {
        for (const auto &[dev, id] : replicaOf[v]) {
            if (dev == d)
                return id;
        }
        return -1;
    };

    // Original edges: a consumer sitting on a device that hosts a
    // replica of its producer rewires to that local copy.
    for (const auto &e : g.edges()) {
        VertexId src = e.src;
        if (e.src != e.dst) {
            const VertexId rep =
                replicaOn(e.src, part.deviceOf[e.dst]);
            if (rep >= 0 && part.deviceOf[e.dst] != part.deviceOf[e.src])
                src = rep;
        }
        const EdgeId id = out.graph.addEdge(src, e.dst, e.widthBits,
                                            e.totalBytes, e.depth);
        out.graph.edge(id).initialTokens = e.initialTokens;
    }

    // Replica in-edges: copies of every in-edge of the original,
    // always fed by the *primary* producers (never by co-located
    // replicas — that keeps the planner's cost model exact).
    for (VertexId v = 0; v < n; ++v) {
        for (const auto &[dev, id] : replicaOf[v]) {
            (void)dev;
            for (EdgeId e : g.inEdges(v)) {
                const Edge &edge = g.edge(e);
                const EdgeId copy =
                    out.graph.addEdge(edge.src, id, edge.widthBits,
                                      edge.totalBytes, edge.depth);
                out.graph.edge(copy).initialTokens =
                    edge.initialTokens;
            }
        }
    }
    return out;
}

} // namespace tapacs::partition
