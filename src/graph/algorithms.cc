#include "graph/algorithms.hh"

#include <algorithm>

namespace tapacs
{

std::optional<std::vector<VertexId>>
topologicalOrder(const TaskGraph &g)
{
    const int n = g.numVertices();
    std::vector<int> indeg(n, 0);
    for (const auto &e : g.edges())
        ++indeg[e.dst];

    std::vector<VertexId> ready;
    for (VertexId v = 0; v < n; ++v) {
        if (indeg[v] == 0)
            ready.push_back(v);
    }

    std::vector<VertexId> order;
    order.reserve(n);
    while (!ready.empty()) {
        const VertexId v = ready.back();
        ready.pop_back();
        order.push_back(v);
        for (EdgeId e : g.outEdges(v)) {
            const VertexId w = g.edge(e).dst;
            if (--indeg[w] == 0)
                ready.push_back(w);
        }
    }
    if (static_cast<int>(order.size()) != n)
        return std::nullopt;
    return order;
}

bool
hasCycle(const TaskGraph &g)
{
    return !topologicalOrder(g).has_value();
}

namespace
{

/** Iterative Tarjan SCC to avoid deep recursion on long pipelines. */
struct TarjanState
{
    const TaskGraph &g;
    std::vector<int> index, lowlink, comp;
    std::vector<bool> onStack;
    std::vector<VertexId> stack;
    int nextIndex = 0;
    int nextComp = 0;

    explicit TarjanState(const TaskGraph &graph)
        : g(graph),
          index(graph.numVertices(), -1),
          lowlink(graph.numVertices(), 0),
          comp(graph.numVertices(), -1),
          onStack(graph.numVertices(), false)
    {
    }

    void
    run(VertexId root)
    {
        struct Frame
        {
            VertexId v;
            size_t edgeIdx;
        };
        std::vector<Frame> frames;
        frames.push_back({root, 0});
        index[root] = lowlink[root] = nextIndex++;
        stack.push_back(root);
        onStack[root] = true;

        while (!frames.empty()) {
            Frame &f = frames.back();
            const auto &outs = g.outEdges(f.v);
            if (f.edgeIdx < outs.size()) {
                const VertexId w = g.edge(outs[f.edgeIdx++]).dst;
                if (index[w] < 0) {
                    index[w] = lowlink[w] = nextIndex++;
                    stack.push_back(w);
                    onStack[w] = true;
                    frames.push_back({w, 0});
                } else if (onStack[w]) {
                    lowlink[f.v] = std::min(lowlink[f.v], index[w]);
                }
            } else {
                if (lowlink[f.v] == index[f.v]) {
                    while (true) {
                        const VertexId w = stack.back();
                        stack.pop_back();
                        onStack[w] = false;
                        comp[w] = nextComp;
                        if (w == f.v)
                            break;
                    }
                    ++nextComp;
                }
                const VertexId child = f.v;
                frames.pop_back();
                if (!frames.empty()) {
                    const VertexId parent = frames.back().v;
                    lowlink[parent] =
                        std::min(lowlink[parent], lowlink[child]);
                }
            }
        }
    }
};

} // namespace

std::vector<int>
stronglyConnectedComponents(const TaskGraph &g, int *numComponents)
{
    TarjanState state(g);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (state.index[v] < 0)
            state.run(v);
    }
    if (numComponents)
        *numComponents = state.nextComp;
    return state.comp;
}

} // namespace tapacs
