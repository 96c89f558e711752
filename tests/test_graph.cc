/**
 * @file
 * Tests for the task-graph IR and graph algorithms.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/logging.hh"
#include "graph/algorithms.hh"
#include "graph/task_graph.hh"

namespace tapacs
{
namespace
{

TaskGraph
makeDiamond()
{
    TaskGraph g("diamond");
    const VertexId a = g.addVertex("a", ResourceVector{});
    const VertexId b = g.addVertex("b", ResourceVector{});
    const VertexId c = g.addVertex("c", ResourceVector{});
    const VertexId d = g.addVertex("d", ResourceVector{});
    g.addEdge(a, b, 32);
    g.addEdge(a, c, 64);
    g.addEdge(b, d, 32);
    g.addEdge(c, d, 64);
    return g;
}

TEST(TaskGraph, BasicConstruction)
{
    TaskGraph g = makeDiamond();
    EXPECT_EQ(g.numVertices(), 4);
    EXPECT_EQ(g.numEdges(), 4);
    EXPECT_EQ(g.outEdges(0).size(), 2u);
    EXPECT_EQ(g.inEdges(3).size(), 2u);
    EXPECT_EQ(g.findVertex("c"), 2);
    EXPECT_EQ(g.findVertex("zzz"), -1);
    g.validate();
}

TEST(TaskGraph, TotalArea)
{
    TaskGraph g("sum");
    g.addVertex("a", ResourceVector(100, 200, 1, 2, 0));
    g.addVertex("b", ResourceVector(50, 100, 3, 0, 1));
    g.addEdge(0, 1, 32, 1000.0);
    const ResourceVector total = g.totalArea();
    EXPECT_DOUBLE_EQ(total[ResourceKind::Lut], 150.0);
    EXPECT_DOUBLE_EQ(total[ResourceKind::Uram], 1.0);
}

TEST(TaskGraphDeath, ValidateCatchesDuplicateNames)
{
    TaskGraph g("dup");
    g.addVertex("same", ResourceVector{});
    g.addVertex("same", ResourceVector{});
    EXPECT_DEATH(g.validate(), "duplicate task name");
}

TEST(TaskGraph, ValidateReportsTheFirstDuplicateInVertexOrder)
{
    // "z" repeats before "m" does, though "m" sorts first and also
    // repeats: the diagnostic names the earliest vertex whose name
    // was already taken.
    TaskGraph g("dups");
    for (const char *name : {"m", "z", "a", "z", "m"})
        g.addVertex(name, ResourceVector{});
    const Status st = g.validateStatus();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.message(), "task graph 'dups': duplicate task name 'z'");
}

TEST(TaskGraphDeath, ValidateCatchesBadWork)
{
    TaskGraph g("bad");
    Vertex v;
    v.name = "t";
    v.work.numBlocks = 0;
    g.addVertex(v);
    EXPECT_DEATH(g.validate(), "numBlocks");
}

TEST(Algorithms, TopologicalOrderOnDag)
{
    TaskGraph g = makeDiamond();
    auto order = topologicalOrder(g);
    ASSERT_TRUE(order.has_value());
    std::vector<int> pos(4);
    for (int i = 0; i < 4; ++i)
        pos[(*order)[i]] = i;
    for (const auto &e : g.edges())
        EXPECT_LT(pos[e.src], pos[e.dst]);
    EXPECT_FALSE(hasCycle(g));
}

TEST(Algorithms, CycleDetected)
{
    TaskGraph g("cyc");
    g.addVertex("a", ResourceVector{});
    g.addVertex("b", ResourceVector{});
    g.addEdge(0, 1, 32);
    g.addEdge(1, 0, 32);
    EXPECT_FALSE(topologicalOrder(g).has_value());
    EXPECT_TRUE(hasCycle(g));
}

TEST(Algorithms, SccFindsLoop)
{
    // a -> b <-> c -> d : components {a}, {b,c}, {d}.
    TaskGraph g("scc");
    for (const char *n : {"a", "b", "c", "d"})
        g.addVertex(n, ResourceVector{});
    g.addEdge(0, 1, 32);
    g.addEdge(1, 2, 32);
    g.addEdge(2, 1, 32);
    g.addEdge(2, 3, 32);
    int n = 0;
    auto comp = stronglyConnectedComponents(g, &n);
    EXPECT_EQ(n, 3);
    EXPECT_EQ(comp[1], comp[2]);
    EXPECT_NE(comp[0], comp[1]);
    EXPECT_NE(comp[3], comp[1]);
}

/** SCC on random graphs: ids are in range and reverse-topological. */
class SccProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(SccProperty, ComponentsPartitionAndOrder)
{
    Rng rng(500 + GetParam());
    TaskGraph g("rand");
    const int n = 6 + GetParam() % 10;
    for (int i = 0; i < n; ++i)
        g.addVertex(strprintf("v%d", i), ResourceVector{});
    const int e = n + static_cast<int>(rng.uniformInt(0, n));
    for (int i = 0; i < e; ++i) {
        g.addEdge(static_cast<int>(rng.uniformInt(0, n - 1)),
                  static_cast<int>(rng.uniformInt(0, n - 1)), 32);
    }
    int num = 0;
    auto comp = stronglyConnectedComponents(g, &num);
    EXPECT_GE(num, 1);
    for (int c : comp) {
        EXPECT_GE(c, 0);
        EXPECT_LT(c, num);
    }
    // Every edge runs to a component of equal or lower id, so the
    // component graph is a DAG.
    for (const auto &edge : g.edges())
        EXPECT_GE(comp[edge.src], comp[edge.dst]);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, SccProperty,
                         ::testing::Range(0, 15));

} // namespace
} // namespace tapacs
