/**
 * @file
 * Shared helpers for the differential compile suites (test_cache,
 * test_incremental, test_properties): random layered designs, the
 * isomorphic-relabeling generator, and the field-by-field bit-exact
 * result comparison that defines "identical" for every cold/warm and
 * cold/incremental differential in the repo.
 */

#ifndef TAPACS_TESTS_COMPILE_IDENTITY_HH
#define TAPACS_TESTS_COMPILE_IDENTITY_HH

#include <gtest/gtest.h>

#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "compiler/compiler.hh"
#include "graph/task_graph.hh"

namespace tapacs
{

/** Random layered DAG in the style of the full-flow property suite:
 *  real-valued areas and profiles, memory tasks at the edges. */
inline TaskGraph
randomDesign(std::uint64_t seed, int layers, int width)
{
    Rng rng(seed);
    TaskGraph g(strprintf("rand%llu", (unsigned long long)seed));
    std::vector<std::vector<VertexId>> layer_ids(layers);
    for (int l = 0; l < layers; ++l) {
        const int count =
            1 + static_cast<int>(rng.uniformInt(0, width - 1));
        for (int i = 0; i < count; ++i) {
            Vertex v;
            v.name = strprintf("t%d_%d", l, i);
            v.area = ResourceVector(rng.uniformReal(500, 40000),
                                    rng.uniformReal(800, 60000),
                                    rng.uniformReal(0, 30),
                                    rng.uniformReal(0, 60), 0);
            v.work.computeOps = rng.uniformReal(1e6, 1e9);
            v.work.opsPerCycle = 1 << rng.uniformInt(0, 5);
            v.work.numBlocks = 8;
            if (l == 0 || l == layers - 1) {
                v.work.memChannels =
                    static_cast<int>(rng.uniformInt(1, 3));
                v.work.memReadBytes =
                    l == 0 ? rng.uniformReal(1e6, 1e8) : 0.0;
                v.work.memWriteBytes =
                    l == layers - 1 ? rng.uniformReal(1e6, 1e8) : 0.0;
            }
            layer_ids[l].push_back(g.addVertex(v));
        }
    }
    for (int l = 1; l < layers; ++l) {
        for (VertexId v : layer_ids[l]) {
            const auto &prev = layer_ids[l - 1];
            const VertexId u = prev[rng.uniformInt(0, prev.size() - 1)];
            g.addEdge(u, v, 32 << rng.uniformInt(0, 4),
                      rng.uniformReal(1e4, 1e7));
            if (rng.bernoulli(0.3) && l >= 2) {
                const auto &pp = layer_ids[l - 2];
                g.addEdge(pp[rng.uniformInt(0, pp.size() - 1)], v, 64,
                          rng.uniformReal(1e4, 1e6));
            }
        }
    }
    return g;
}

/**
 * An isomorphic relabeling: the same design re-inserted under random
 * vertex and edge orders. newIdOf maps original vertex ids to ids in
 * the relabeled graph.
 */
inline TaskGraph
relabel(const TaskGraph &g, std::uint64_t seed,
        std::vector<VertexId> *newIdOf)
{
    Rng rng(seed);
    std::vector<VertexId> order(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        order[v] = v;
    for (int i = g.numVertices() - 1; i > 0; --i)
        std::swap(order[i], order[rng.uniformInt(0, i)]);

    TaskGraph out(g.name() + "_relabeled");
    newIdOf->assign(g.numVertices(), -1);
    for (VertexId nv = 0; nv < g.numVertices(); ++nv) {
        (*newIdOf)[order[nv]] = nv;
        out.addVertex(g.vertex(order[nv]));
    }
    std::vector<EdgeId> eorder(g.numEdges());
    for (EdgeId e = 0; e < g.numEdges(); ++e)
        eorder[e] = e;
    for (int i = g.numEdges() - 1; i > 0; --i)
        std::swap(eorder[i], eorder[rng.uniformInt(0, i)]);
    for (EdgeId ne = 0; ne < g.numEdges(); ++ne) {
        const Edge &ed = g.edge(eorder[ne]);
        const EdgeId id =
            out.addEdge((*newIdOf)[ed.src], (*newIdOf)[ed.dst],
                        ed.widthBits, ed.totalBytes, ed.depth);
        out.edge(id).initialTokens = ed.initialTokens;
    }
    return out;
}

/** The single-task edit kinds the incremental differential exercises
 *  — the moves of a real edit-compile loop. */
enum class GraphEdit
{
    AreaTweak,     ///< grow one task's LUT demand (solver-visible)
    LatencyTweak,  ///< scale one task's computeOps (timing-only)
    Rename,        ///< relabel one task (names are not content)
    EdgeRetarget,  ///< re-wire one FIFO to a topologically-safe dst
    AddTask,       ///< append one task fed by an existing FIFO
    RemoveTask,    ///< drop one sink task and its FIFOs
};

inline const char *
toString(GraphEdit e)
{
    switch (e) {
      case GraphEdit::AreaTweak: return "area-tweak";
      case GraphEdit::LatencyTweak: return "latency-tweak";
      case GraphEdit::Rename: return "rename";
      case GraphEdit::EdgeRetarget: return "edge-retarget";
      case GraphEdit::AddTask: return "add-task";
      case GraphEdit::RemoveTask: return "remove-task";
    }
    return "?";
}

/** Rebuild @p g with vertex @p skip removed (its FIFOs dropped, all
 *  other ids compacted in order). */
inline TaskGraph
removeVertex(const TaskGraph &g, VertexId skip)
{
    TaskGraph out(g.name());
    std::vector<VertexId> remap(g.numVertices(), -1);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (v == skip)
            continue;
        remap[v] = out.addVertex(g.vertex(v));
    }
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &ed = g.edge(e);
        if (ed.src == skip || ed.dst == skip)
            continue;
        const EdgeId id = out.addEdge(remap[ed.src], remap[ed.dst],
                                      ed.widthBits, ed.totalBytes,
                                      ed.depth);
        out.edge(id).initialTokens = ed.initialTokens;
    }
    return out;
}

/** A topological order of @p g (Kahn); used to keep edits acyclic. */
inline std::vector<int>
topoRankOf(const TaskGraph &g)
{
    std::vector<int> indeg(g.numVertices(), 0);
    for (EdgeId e = 0; e < g.numEdges(); ++e)
        ++indeg[g.edge(e).dst];
    std::vector<VertexId> ready;
    for (VertexId v = 0; v < g.numVertices(); ++v)
        if (indeg[v] == 0)
            ready.push_back(v);
    std::vector<int> rank(g.numVertices(), 0);
    int next = 0;
    while (!ready.empty()) {
        const VertexId v = ready.back();
        ready.pop_back();
        rank[v] = next++;
        for (EdgeId e : g.outEdges(v))
            if (--indeg[g.edge(e).dst] == 0)
                ready.push_back(g.edge(e).dst);
    }
    return rank;
}

/**
 * Apply one seeded single-task edit of @p kind to a copy of @p g.
 * Every kind keeps the graph a valid DAG; kinds that would not apply
 * (a retarget with no safe target, a removal from a 2-task graph)
 * fall back to AreaTweak so a chained edit sequence never stalls.
 * When @p renamed is non-null, a Rename records (oldName, newName)
 * there so callers can patch joined task IRs.
 */
inline TaskGraph
applyEdit(const TaskGraph &g, GraphEdit kind, std::uint64_t seed,
          std::pair<std::string, std::string> *renamed = nullptr)
{
    Rng rng(seed);
    TaskGraph out = g;
    switch (kind) {
      case GraphEdit::AreaTweak: {
        const VertexId v = rng.uniformInt(0, g.numVertices() - 1);
        out.vertex(v).area[ResourceKind::Lut] += 64.0;
        return out;
      }
      case GraphEdit::LatencyTweak: {
        const VertexId v = rng.uniformInt(0, g.numVertices() - 1);
        out.vertex(v).work.computeOps *= 1.25;
        return out;
      }
      case GraphEdit::Rename: {
        const VertexId v = rng.uniformInt(0, g.numVertices() - 1);
        const std::string fresh = out.vertex(v).name + "~edited";
        if (renamed != nullptr)
            *renamed = {out.vertex(v).name, fresh};
        out.vertex(v).name = fresh;
        return out;
      }
      case GraphEdit::EdgeRetarget: {
        // Re-point one FIFO at a vertex strictly later in topological
        // order than its source, so the graph stays acyclic no matter
        // how the builder numbered its vertices. A chained RemoveTask
        // can leave a graph with no FIFOs at all — fall back then.
        if (g.numEdges() == 0) {
            out.vertex(rng.uniformInt(0, g.numVertices() - 1))
                .area[ResourceKind::Lut] += 64.0;
            return out;
        }
        const std::vector<int> rank = topoRankOf(g);
        for (int attempt = 0; attempt < 16; ++attempt) {
            const EdgeId e = rng.uniformInt(0, g.numEdges() - 1);
            const Edge &ed = g.edge(e);
            const VertexId w = rng.uniformInt(0, g.numVertices() - 1);
            if (w == ed.dst || w == ed.src ||
                rank[w] <= rank[ed.src])
                continue;
            TaskGraph re(g.name());
            for (VertexId v = 0; v < g.numVertices(); ++v)
                re.addVertex(g.vertex(v));
            for (EdgeId e2 = 0; e2 < g.numEdges(); ++e2) {
                const Edge &e2d = g.edge(e2);
                const EdgeId id = re.addEdge(
                    e2d.src, e2 == e ? w : e2d.dst, e2d.widthBits,
                    e2d.totalBytes, e2d.depth);
                re.edge(id).initialTokens = e2d.initialTokens;
            }
            return re;
        }
        out.vertex(rng.uniformInt(0, g.numVertices() - 1))
            .area[ResourceKind::Lut] += 64.0;
        return out;
      }
      case GraphEdit::AddTask: {
        Vertex nv;
        nv.name = strprintf("added_%llu", (unsigned long long)seed);
        nv.area = ResourceVector(rng.uniformReal(500, 4000),
                                 rng.uniformReal(800, 6000), 0, 0, 0);
        nv.work.computeOps = rng.uniformReal(1e6, 1e8);
        nv.work.opsPerCycle = 2;
        nv.work.numBlocks = 8;
        const VertexId feeder = rng.uniformInt(0, g.numVertices() - 1);
        const VertexId id = out.addVertex(nv);
        out.addEdge(feeder, id, 64, rng.uniformReal(1e4, 1e6));
        return out;
      }
      case GraphEdit::RemoveTask: {
        if (g.numVertices() < 3) {
            out.vertex(0).area[ResourceKind::Lut] += 64.0;
            return out;
        }
        // Drop a sink so no downstream consumer is orphaned.
        std::vector<VertexId> sinks;
        for (VertexId v = 0; v < g.numVertices(); ++v)
            if (g.outEdges(v).empty())
                sinks.push_back(v);
        if (sinks.empty()) {
            out.vertex(0).area[ResourceKind::Lut] += 64.0;
            return out;
        }
        return removeVertex(
            g, sinks[rng.uniformInt(0, sinks.size() - 1)]);
      }
    }
    return out;
}

/** Field-by-field bit-exact comparison of two compile results. This
 *  is the identity contract both differentials assert: warm == cold
 *  (test_cache) and incremental == cold (test_incremental). Timing
 *  fields (wallSeconds, threadsUsed) are deliberately outside it. */
inline void
expectResultsIdentical(const CompileResult &a, const CompileResult &b,
                       const char *what)
{
    ASSERT_EQ(a.routable, b.routable) << what;
    EXPECT_TRUE(a.partition == b.partition) << what;
    EXPECT_TRUE(a.placement == b.placement) << what;
    EXPECT_TRUE(a.binding == b.binding) << what;
    EXPECT_EQ(a.fmax, b.fmax) << what;
    EXPECT_EQ(a.cutTrafficBytes, b.cutTrafficBytes) << what;
    EXPECT_EQ(a.deviceFmax, b.deviceFmax) << what;
    EXPECT_EQ(a.pipeline.totalRegisterBits, b.pipeline.totalRegisterBits)
        << what;
    EXPECT_EQ(a.l1SolverStats.nodesExplored, b.l1SolverStats.nodesExplored)
        << what;
    EXPECT_EQ(a.l2SolverStats.lpIterations, b.l2SolverStats.lpIterations)
        << what;
}

} // namespace tapacs

#endif // TAPACS_TESTS_COMPILE_IDENTITY_HH
