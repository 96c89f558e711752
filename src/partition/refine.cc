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
            const ResourceVector &budget, std::vector<DeviceId> &part)
{
    RefineStats stats;
    const int n = hg.numVertices();
    const int f = cluster.numDevices();
    if (n == 0 || f < 2)
        return stats;
    tapacs_assert(static_cast<int>(part.size()) == n);

    std::vector<ResourceVector> used(f);
    std::vector<int> ch(f, 0);
    for (int v = 0; v < n; ++v) {
        used[part[v]] += hg.area[v];
        ch[part[v]] += hg.channels[v];
    }

    // Connectivity cost of v sitting on each device, written to
    // row[0..f). One walk of v's nets; every device accumulates its
    // terms in net order.
    auto costRow = [&](VertexId v, double *row) {
        std::fill(row, row + f, 0.0);
        for (int i = hg.vtxOffset[v]; i < hg.vtxOffset[v + 1]; ++i) {
            const int net = hg.vtxNets[i];
            const double w = hg.netWeight[net];
            const DeviceId od = part[hg.otherPin(net, v)];
            for (DeviceId d = 0; d < f; ++d)
                row[d] += w * cluster.costDistance(d, od);
        }
    };

    // Gain cache: boundary[v] and cost[v * f ..] hold v's state for the
    // current partition unless dirty[v]. They depend only on where v
    // and its net neighbours sit, so a move dirties the mover and its
    // neighbours and nothing else. The cost row is only kept for
    // boundary vertices, the only ones that can move.
    std::vector<char> dirty(n, 1);
    std::vector<char> boundary(n, 0);
    std::vector<double> cost(static_cast<std::size_t>(n) * f);
    std::vector<double> scratch(f);
    auto row = [&](VertexId v) {
        return cost.data() + static_cast<std::size_t>(v) * f;
    };

    std::vector<Move> moves(n);
    std::vector<int> candidates;

    for (int pass = 0; pass < kMaxPasses; ++pass) {
        // Refinement is pure polish: an expired request stops here
        // (the compiler discards the result).
        if (options.ctx.expired())
            break;
        ++stats.passes;

        // Parallel pure gain map: refresh the dirty cache entries,
        // then pick each movable vertex's best feasible target
        // against the pass-start snapshot of part/used/ch. Results
        // land in index-ordered slots, so the map is
        // thread-count-invariant.
        auto mapOne = [&](std::int64_t vi) {
            const auto v = static_cast<VertexId>(vi);
            Move &m = moves[v];
            m.vertex = v;
            m.target = -1;
            m.gain = 0.0;
            const DeviceId cur = part[v];
            if (dirty[v]) {
                dirty[v] = 0;
                bool b = false;
                for (int i = hg.vtxOffset[v]; i < hg.vtxOffset[v + 1] && !b;
                     ++i)
                    b = part[hg.otherPin(hg.vtxNets[i], v)] != cur;
                boundary[v] = b;
                if (b)
                    costRow(v, row(v));
            }
            if (!boundary[v])
                return;
            const double *c = row(v);
            for (DeviceId d = 0; d < f; ++d) {
                if (d == cur)
                    continue;
                ResourceVector after = used[d];
                after += hg.area[v];
                if (!after.fitsWithin(budget))
                    continue;
                if (options.channelsPerDevice > 0 &&
                    ch[d] + hg.channels[v] > options.channelsPerDevice)
                    continue;
                const double gain = c[cur] - c[d];
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
        // this pass may have changed neighbours or budgets). A clean
        // cache row is current; a dirtied one is recomputed aside.
        int applied = 0;
        for (int v : candidates) {
            const DeviceId cur = part[v];
            const DeviceId d = moves[v].target;
            ResourceVector after = used[d];
            after += hg.area[v];
            if (!after.fitsWithin(budget))
                continue;
            if (options.channelsPerDevice > 0 &&
                ch[d] + hg.channels[v] > options.channelsPerDevice)
                continue;
            const double *c = row(v);
            if (dirty[v]) {
                costRow(v, scratch.data());
                c = scratch.data();
            }
            if (c[cur] - c[d] <= kGainEps)
                continue;
            used[cur] -= hg.area[v];
            used[d] = after;
            ch[cur] -= hg.channels[v];
            ch[d] += hg.channels[v];
            part[v] = d;
            dirty[v] = 1;
            for (int i = hg.vtxOffset[v]; i < hg.vtxOffset[v + 1]; ++i)
                dirty[hg.otherPin(hg.vtxNets[i], v)] = 1;
            ++applied;
        }
        stats.moves += applied;
        if (applied == 0)
            break;
    }
    return stats;
}

} // namespace tapacs::partition
