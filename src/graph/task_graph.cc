#include "graph/task_graph.hh"

#include <set>

#include "common/logging.hh"

namespace tapacs
{

VertexId
TaskGraph::addVertex(Vertex v)
{
    vertices_.push_back(std::move(v));
    out_.emplace_back();
    in_.emplace_back();
    return static_cast<VertexId>(vertices_.size()) - 1;
}

VertexId
TaskGraph::addVertex(std::string name, const ResourceVector &area,
                     const WorkProfile &work)
{
    Vertex v;
    v.name = std::move(name);
    v.area = area;
    v.work = work;
    return addVertex(std::move(v));
}

EdgeId
TaskGraph::addEdge(VertexId src, VertexId dst, int widthBits,
                   double totalBytes, int depth)
{
    tapacs_assert(src >= 0 && src < numVertices());
    tapacs_assert(dst >= 0 && dst < numVertices());
    Edge e;
    e.src = src;
    e.dst = dst;
    e.widthBits = widthBits;
    e.totalBytes = totalBytes;
    e.depth = depth;
    edges_.push_back(e);
    const EdgeId id = static_cast<EdgeId>(edges_.size()) - 1;
    out_[src].push_back(id);
    in_[dst].push_back(id);
    return id;
}

Vertex &
TaskGraph::vertex(VertexId v)
{
    tapacs_assert(v >= 0 && v < numVertices());
    return vertices_[v];
}

const Vertex &
TaskGraph::vertex(VertexId v) const
{
    tapacs_assert(v >= 0 && v < numVertices());
    return vertices_[v];
}

Edge &
TaskGraph::edge(EdgeId e)
{
    tapacs_assert(e >= 0 && e < numEdges());
    return edges_[e];
}

const Edge &
TaskGraph::edge(EdgeId e) const
{
    tapacs_assert(e >= 0 && e < numEdges());
    return edges_[e];
}

const std::vector<EdgeId> &
TaskGraph::outEdges(VertexId v) const
{
    tapacs_assert(v >= 0 && v < numVertices());
    return out_[v];
}

const std::vector<EdgeId> &
TaskGraph::inEdges(VertexId v) const
{
    tapacs_assert(v >= 0 && v < numVertices());
    return in_[v];
}

VertexId
TaskGraph::findVertex(const std::string &name) const
{
    for (VertexId v = 0; v < numVertices(); ++v) {
        if (vertices_[v].name == name)
            return v;
    }
    return -1;
}

ResourceVector
TaskGraph::totalArea() const
{
    ResourceVector total;
    for (const auto &v : vertices_)
        total += v.area;
    return total;
}

Status
TaskGraph::validateStatus() const
{
    std::set<std::string> names;
    for (VertexId v = 0; v < numVertices(); ++v) {
        const Vertex &vert = vertices_[v];
        if (vert.name.empty())
            return Status::invalidInput(
                "task graph '%s': vertex %d has an empty name",
                name_.c_str(), v);
        if (!names.insert(vert.name).second)
            return Status::invalidInput(
                "task graph '%s': duplicate task name '%s'",
                name_.c_str(), vert.name.c_str());
        if (vert.work.numBlocks < 1)
            return Status::invalidInput(
                "task '%s': numBlocks must be >= 1", vert.name.c_str());
        if (vert.work.opsPerCycle <= 0.0)
            return Status::invalidInput(
                "task '%s': opsPerCycle must be positive",
                vert.name.c_str());
    }
    for (EdgeId e = 0; e < numEdges(); ++e) {
        const Edge &edge = edges_[e];
        if (edge.src < 0 || edge.src >= numVertices() || edge.dst < 0 ||
            edge.dst >= numVertices()) {
            return Status::invalidInput(
                "task graph '%s': edge %d references missing vertex",
                name_.c_str(), e);
        }
        if (edge.widthBits <= 0)
            return Status::invalidInput(
                "task graph '%s': edge %d has non-positive width",
                name_.c_str(), e);
        if (edge.depth < 1)
            return Status::invalidInput(
                "task graph '%s': edge %d has depth < 1",
                name_.c_str(), e);
        if (edge.totalBytes < 0.0)
            return Status::invalidInput(
                "task graph '%s': edge %d has negative traffic",
                name_.c_str(), e);
    }
    return Status();
}

void
TaskGraph::validate() const
{
    const Status st = validateStatus();
    if (!st.ok())
        fatal("%s", st.message().c_str());
}

} // namespace tapacs
