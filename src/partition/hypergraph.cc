#include "partition/hypergraph.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"

namespace tapacs::partition
{

namespace
{

/** A two-pin net before parallel nets are merged (lo < hi). */
struct RawNet
{
    VertexId lo;
    VertexId hi;
    double weight;
};

/** Finish a Hypergraph under construction: build the vertex->net CSR
 *  from the (already final) net pin lists. */
void
buildIncidence(Hypergraph &hg)
{
    const int n = hg.numVertices();
    std::vector<int> degree(n, 0);
    for (VertexId p : hg.pins)
        ++degree[p];
    hg.vtxOffset.assign(n + 1, 0);
    for (int v = 0; v < n; ++v)
        hg.vtxOffset[v + 1] = hg.vtxOffset[v] + degree[v];
    hg.vtxNets.resize(hg.pins.size());
    std::vector<int> cursor(hg.vtxOffset.begin(),
                            hg.vtxOffset.end() - 1);
    for (int net = 0; net < hg.numNets(); ++net) {
        for (int i = hg.netOffset[net]; i < hg.netOffset[net + 1]; ++i)
            hg.vtxNets[cursor[hg.pins[i]]++] = net;
    }
}

/**
 * Give @p hg (vertices already set) the nets of @p raw with parallel
 * nets merged, then its incidence. The first raw net of each pin pair
 * stands for the pair and takes the next net id; the others add their
 * weight to it in raw order. Raw nets are bucketed by low pin, and a
 * marker array stamped with the bucket's pin finds a high pin's first
 * net in O(1), so the merge is O(nets + vertices).
 */
void
setNets(Hypergraph &hg, const std::vector<RawNet> &raw)
{
    const int n = hg.numVertices();
    const int m = static_cast<int>(raw.size());
    std::vector<int> start(n + 1, 0);
    for (const RawNet &r : raw)
        ++start[r.lo + 1];
    for (int v = 0; v < n; ++v)
        start[v + 1] += start[v];
    std::vector<int> bucket(m);
    {
        std::vector<int> cursor(start.begin(), start.end() - 1);
        for (int i = 0; i < m; ++i)
            bucket[cursor[raw[i].lo]++] = i;
    }

    // rep[i]: the first raw net with raw[i]'s pins (buckets keep raw
    // order, so the first one seen in a bucket is the first overall).
    std::vector<int> rep(m);
    std::vector<VertexId> mark(n, -1);
    std::vector<int> first(n);
    for (VertexId lo = 0; lo < n; ++lo) {
        for (int k = start[lo]; k < start[lo + 1]; ++k) {
            const int i = bucket[k];
            const VertexId hi = raw[i].hi;
            if (mark[hi] != lo) {
                mark[hi] = lo;
                first[hi] = i;
            }
            rep[i] = first[hi];
        }
    }

    std::vector<int> id(m);
    for (int i = 0; i < m; ++i) {
        if (rep[i] != i) {
            hg.netWeight[id[rep[i]]] += raw[i].weight;
            continue;
        }
        id[i] = hg.numNets();
        hg.pins.push_back(raw[i].lo);
        hg.pins.push_back(raw[i].hi);
        hg.netOffset.push_back(static_cast<int>(hg.pins.size()));
        hg.netWeight.push_back(raw[i].weight);
    }
    buildIncidence(hg);
}

/**
 * One seeded heavy-edge matching round over @p hg; returns the coarse
 * hypergraph and fills @p coarseOf. HDN vertices (degree above the
 * level's limit) stay singletons so hubs survive to the coarsest
 * level.
 */
Hypergraph
coarsenOnce(const Hypergraph &hg, const CoarsenOptions &opt, Rng &rng,
            std::vector<int> &coarseOf)
{
    const int n = hg.numVertices();

    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);
    for (int i = n - 1; i > 0; --i)
        std::swap(order[i], order[rng.uniformInt(0, i)]);

    // HDN limit from this level's average net degree.
    std::vector<char> hdn(n, 0);
    if (n > 0) {
        const double avg =
            static_cast<double>(hg.vtxNets.size()) / n;
        const double limit = std::max(4.0, kHdnFactor * avg);
        for (int v = 0; v < n; ++v) {
            const int deg = hg.vtxOffset[v + 1] - hg.vtxOffset[v];
            if (deg > limit)
                hdn[v] = 1;
        }
    }

    // Heavy-edge matching; neighbor weights accumulated in a scratch
    // array reset via the touched list (O(degree) per vertex).
    std::vector<int> match(n, -1);
    std::vector<double> weightTo(n, 0.0);
    std::vector<VertexId> touched;
    for (int v : order) {
        if (match[v] >= 0 || hdn[v])
            continue;
        touched.clear();
        for (int i = hg.vtxOffset[v]; i < hg.vtxOffset[v + 1]; ++i) {
            const int net = hg.vtxNets[i];
            const VertexId w = hg.otherPin(net, v);
            if (w == v || match[w] >= 0 || hdn[w])
                continue;
            if (weightTo[w] == 0.0)
                touched.push_back(w);
            weightTo[w] += hg.netWeight[net];
        }
        int best = -1;
        double bestW = 0.0;
        for (VertexId w : touched) {
            ResourceVector merged = hg.area[v];
            merged += hg.area[w];
            bool ok = merged.fitsWithin(opt.mergeCap);
            if (ok && opt.channelMergeCap > 0 &&
                hg.channels[v] + hg.channels[w] > opt.channelMergeCap)
                ok = false;
            if (ok && (weightTo[w] > bestW ||
                       (weightTo[w] == bestW && (best < 0 || w < best)))) {
                bestW = weightTo[w];
                best = w;
            }
            weightTo[w] = 0.0;
        }
        if (best >= 0) {
            match[v] = best;
            match[best] = v;
        }
    }

    // Coarse ids in visit order (first appearance), like the exact
    // engine's single-shot coarsening.
    coarseOf.assign(n, -1);
    Hypergraph out;
    for (int v : order) {
        if (coarseOf[v] >= 0)
            continue;
        const int partner = match[v];
        const int cv = out.numVertices();
        coarseOf[v] = cv;
        ResourceVector a = hg.area[v];
        int ch = hg.channels[v];
        if (partner >= 0) {
            coarseOf[partner] = cv;
            a += hg.area[partner];
            ch += hg.channels[partner];
        }
        out.area.push_back(a);
        out.channels.push_back(ch);
    }

    // Re-net: drop internal nets, merge parallel coarse nets.
    std::vector<RawNet> raw;
    raw.reserve(hg.numNets());
    for (int net = 0; net < hg.numNets(); ++net) {
        const int ca = coarseOf[hg.pins[hg.netOffset[net]]];
        const int cb = coarseOf[hg.pins[hg.netOffset[net] + 1]];
        if (ca != cb)
            raw.push_back({std::min(ca, cb), std::max(ca, cb),
                           hg.netWeight[net]});
    }
    setNets(out, raw);
    return out;
}

} // namespace

Hypergraph
buildHypergraph(const TaskGraph &g)
{
    const int n = g.numVertices();
    Hypergraph hg;
    hg.area.resize(n);
    hg.channels.resize(n);
    for (VertexId v = 0; v < n; ++v) {
        hg.area[v] = g.vertex(v).area;
        hg.channels[v] = g.vertex(v).work.memChannels;
    }
    std::vector<RawNet> raw;
    raw.reserve(g.numEdges());
    for (const auto &e : g.edges()) {
        if (e.src != e.dst) // a self-loop never crosses a cut
            raw.push_back({std::min(e.src, e.dst), std::max(e.src, e.dst),
                           static_cast<double>(e.widthBits)});
    }
    setNets(hg, raw);
    return hg;
}

std::vector<Level>
buildHierarchy(const TaskGraph &g, const CoarsenOptions &options)
{
    std::vector<Level> levels;
    levels.push_back({buildHypergraph(g), {}});
    Rng rng(options.seed);
    while (levels.back().hg.numVertices() > options.targetVertices) {
        const Hypergraph &cur = levels.back().hg;
        Level next;
        next.hg = coarsenOnce(cur, options, rng, next.coarseOf);
        if (next.hg.numVertices() >= cur.numVertices())
            break; // nothing merged; give the solver what we have
        const double shrink = static_cast<double>(cur.numVertices()) /
                              next.hg.numVertices();
        levels.push_back(std::move(next));
        if (shrink < kMinShrinkFactor)
            break; // stagnating (caps or HDNs block further merges)
    }
    return levels;
}

std::vector<int>
mapToCoarsest(const std::vector<Level> &levels)
{
    tapacs_assert(!levels.empty());
    const int n = levels.front().hg.numVertices();
    std::vector<int> map(n);
    std::iota(map.begin(), map.end(), 0);
    for (std::size_t k = 1; k < levels.size(); ++k) {
        for (int v = 0; v < n; ++v)
            map[v] = levels[k].coarseOf[map[v]];
    }
    return map;
}

} // namespace tapacs::partition
