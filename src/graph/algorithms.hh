/**
 * @file
 * Graph algorithms over TaskGraph.
 *
 * The pipelining pass balances latency per strongly connected
 * component (PageRank's controller loop makes the graph cyclic);
 * topological order and cycle detection answer acyclicity queries.
 */

#ifndef TAPACS_GRAPH_ALGORITHMS_HH
#define TAPACS_GRAPH_ALGORITHMS_HH

#include <optional>
#include <vector>

#include "graph/task_graph.hh"

namespace tapacs
{

/**
 * Topological order of the vertices.
 *
 * @return vertex ids in topological order, or std::nullopt if the
 *         graph contains a directed cycle.
 */
std::optional<std::vector<VertexId>> topologicalOrder(const TaskGraph &g);

/** True if the directed graph has at least one cycle. */
bool hasCycle(const TaskGraph &g);

/**
 * Strongly connected components via Tarjan's algorithm.
 *
 * @return component id per vertex; ids are assigned in reverse
 *         topological order of the component DAG (a component's id
 *         is greater than those of the components it can reach).
 */
std::vector<int> stronglyConnectedComponents(const TaskGraph &g,
                                             int *numComponents = nullptr);

} // namespace tapacs

#endif // TAPACS_GRAPH_ALGORITHMS_HH
