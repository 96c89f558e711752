#include "partition/refine.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "network/cluster.hh"

namespace tapacs::partition
{

namespace
{

constexpr int kMaxPasses = 8;
constexpr double kGainEps = 1e-9;

/** A candidate single-vertex move produced by the parallel map. */
struct Move
{
    VertexId vertex = -1;
    DeviceId target = -1;
    double gain = 0.0;
};

} // namespace

RefineStats
refineLevel(const Hypergraph &hg, const Cluster &cluster,
            const InterFpgaOptions &options,
            const ResourceVector &budget,
            const std::vector<DeviceId> &hint,
            std::vector<DeviceId> &part)
{
    RefineStats stats;
    const int n = hg.numVertices();
    const int f = cluster.numDevices();
    if (n == 0 || options.numAllowed(f) < 2)
        return stats;
    tapacs_assert(static_cast<int>(part.size()) == n);
    tapacs_assert(hint.empty() || static_cast<int>(hint.size()) == n);

    std::vector<ResourceVector> used(f);
    std::vector<int> ch(f, 0);
    for (int v = 0; v < n; ++v) {
        used[part[v]] += hg.area[v];
        ch[part[v]] += hg.channels[v];
    }

    // Connectivity cost of v sitting on device d, plus the hint
    // migration penalty (mirrors the exact engine's refine()).
    auto vertexCost = [&](VertexId v, DeviceId d) {
        double c = 0.0;
        for (int i = hg.vtxOffset[v]; i < hg.vtxOffset[v + 1]; ++i) {
            const int net = hg.vtxNets[i];
            c += hg.netWeight[net] *
                 cluster.costDistance(d, part[hg.otherPin(net, v)]);
        }
        if (!hint.empty() && hint[v] >= 0 && hint[v] < f &&
            options.allowed(hint[v]) && d != hint[v]) {
            c += options.hintWeight;
        }
        return c;
    };

    std::vector<Move> moves(n);
    std::vector<int> candidates;

    for (int pass = 0; pass < kMaxPasses; ++pass) {
        // Refinement is pure polish: a fired deadline keeps the
        // current (already feasible) partition.
        if (options.ctx.done())
            break;
        ++stats.passes;

        // Parallel pure gain map over boundary vertices. Reads the
        // pass-start snapshot of part/used/ch; results land in
        // index-ordered slots, so the map is thread-count-invariant.
        auto mapOne = [&](std::int64_t vi) {
            const auto v = static_cast<VertexId>(vi);
            Move &m = moves[v];
            m.vertex = v;
            m.target = -1;
            m.gain = 0.0;
            const DeviceId cur = part[v];
            bool boundary = false;
            for (int i = hg.vtxOffset[v];
                 i < hg.vtxOffset[v + 1] && !boundary; ++i) {
                const int net = hg.vtxNets[i];
                boundary = part[hg.otherPin(net, v)] != cur;
            }
            if (!boundary && hint.empty())
                return;
            const double curCost = vertexCost(v, cur);
            for (DeviceId d = 0; d < f; ++d) {
                if (d == cur || !options.allowed(d))
                    continue;
                ResourceVector after = used[d];
                after += hg.area[v];
                if (!after.fitsWithin(budget))
                    continue;
                if (options.channelsPerDevice > 0 &&
                    ch[d] + hg.channels[v] > options.channelsPerDevice)
                    continue;
                const double gain = curCost - vertexCost(v, d);
                if (gain > m.gain + kGainEps) {
                    m.gain = gain;
                    m.target = d;
                }
            }
        };
        ThreadPool::defaultPool().parallelFor(
            0, n, mapOne, n < 256 ? 1 : options.numThreads);

        candidates.clear();
        for (int v = 0; v < n; ++v) {
            if (moves[v].target >= 0 && moves[v].gain > kGainEps)
                candidates.push_back(v);
        }
        if (candidates.empty())
            break;
        std::sort(candidates.begin(), candidates.end(),
                  [&](int a, int b) {
                      if (moves[a].gain != moves[b].gain)
                          return moves[a].gain > moves[b].gain;
                      return a < b;
                  });

        // Serial application in the sorted order; every move is
        // re-validated against the *current* state (earlier moves in
        // this pass may have changed neighbours or budgets).
        int applied = 0;
        for (int v : candidates) {
            const DeviceId cur = part[v];
            const DeviceId d = moves[v].target;
            if (d == cur)
                continue;
            ResourceVector after = used[d];
            after += hg.area[v];
            if (!after.fitsWithin(budget))
                continue;
            if (options.channelsPerDevice > 0 &&
                ch[d] + hg.channels[v] > options.channelsPerDevice)
                continue;
            const double gain = vertexCost(v, cur) - vertexCost(v, d);
            if (gain <= kGainEps)
                continue;
            used[cur] -= hg.area[v];
            used[d] = after;
            ch[cur] -= hg.channels[v];
            ch[d] += hg.channels[v];
            part[v] = d;
            ++applied;
        }
        stats.moves += applied;
        if (applied == 0)
            break;
    }
    return stats;
}

} // namespace tapacs::partition
