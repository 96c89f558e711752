/**
 * @file
 * Task-graph intermediate representation.
 *
 * A TAPA program is a set of C++ task functions connected by FIFO
 * streams; TAPA-CS models it as a graph G(V,E) where each vertex is a
 * compute module (one RTL module after HLS) and each edge is a FIFO
 * (paper section 4.1). Vertices carry the resource profile produced
 * by parallel synthesis plus the workload descriptor the dataflow
 * simulator executes; edges carry FIFO width/depth plus the total
 * traffic volume observed over one run.
 */

#ifndef TAPACS_GRAPH_TASK_GRAPH_HH
#define TAPACS_GRAPH_TASK_GRAPH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hh"
#include "common/units.hh"
#include "device/resources.hh"

namespace tapacs
{

/** Dense vertex id within one TaskGraph. */
using VertexId = int;

/** Dense edge id within one TaskGraph. */
using EdgeId = int;

/**
 * Dynamic workload of one task over a full run, consumed by the
 * dataflow simulator. All byte/op counts are totals for the run;
 * numBlocks sets the streaming granularity (1 block = fully
 * sequential handoff, many blocks = fine-grained pipelining).
 */
struct WorkProfile
{
    /** Total arithmetic operations executed across the run. */
    double computeOps = 0.0;
    /** Operations retired per clock cycle when not stalled. */
    double opsPerCycle = 1.0;
    /** Total bytes read from external memory (HBM/DDR). */
    double memReadBytes = 0.0;
    /** Total bytes written to external memory. */
    double memWriteBytes = 0.0;
    /** Width in bits of each external-memory port. */
    int memPortWidthBits = 512;
    /** Number of external-memory channels this task binds. */
    int memChannels = 0;
    /** Streaming granularity: number of equal-size blocks. */
    int numBlocks = 1;
};

/** One compute module. */
struct Vertex
{
    std::string name;
    /** Post-synthesis resource requirement of the module. */
    ResourceVector area;
    /** Dynamic behaviour for simulation. */
    WorkProfile work;
};

/** One FIFO stream connecting two modules. */
struct Edge
{
    VertexId src = -1;
    VertexId dst = -1;
    /** Data width of the FIFO in bits (drives eq. 2 and eq. 4). */
    int widthBits = 32;
    /** FIFO depth in elements. */
    int depth = 2;
    /** Total bytes carried over one run (drives transfer times). */
    double totalBytes = 0.0;
    /**
     * Tokens present before the run starts. Dataflow graphs with
     * dependency cycles (e.g. PageRank's controller loop) need
     * initial credit on a back edge to avoid deadlock.
     */
    int initialTokens = 0;
};

/**
 * The dataflow program graph. Vertices and edges are appended and
 * never removed; ids are stable dense indices.
 */
class TaskGraph
{
  public:
    TaskGraph() = default;
    explicit TaskGraph(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }
    void setName(std::string n) { name_ = std::move(n); }

    /** Add a module; returns its id. */
    VertexId addVertex(Vertex v);

    /** Convenience overload building the Vertex inline. */
    VertexId addVertex(std::string name, const ResourceVector &area,
                       const WorkProfile &work = {});

    /** Add a FIFO from src to dst; returns the edge id. */
    EdgeId addEdge(VertexId src, VertexId dst, int widthBits,
                   double totalBytes = 0.0, int depth = 2);

    int numVertices() const { return static_cast<int>(vertices_.size()); }
    int numEdges() const { return static_cast<int>(edges_.size()); }

    Vertex &vertex(VertexId v);
    const Vertex &vertex(VertexId v) const;
    Edge &edge(EdgeId e);
    const Edge &edge(EdgeId e) const;

    const std::vector<Vertex> &vertices() const { return vertices_; }
    const std::vector<Edge> &edges() const { return edges_; }

    /** Edge ids leaving v. */
    const std::vector<EdgeId> &outEdges(VertexId v) const;
    /** Edge ids entering v. */
    const std::vector<EdgeId> &inEdges(VertexId v) const;

    /** Look a vertex up by name; -1 if absent (linear scan). */
    VertexId findVertex(const std::string &name) const;

    /** Sum of all vertex areas. */
    ResourceVector totalArea() const;

    /**
     * Structural validation: ids in range, names unique and
     * non-empty, widths positive. Returns Ok or InvalidInput with a
     * description — the form library code (the compile service) uses
     * so a malformed request cannot take down the process.
     */
    Status validateStatus() const;

    /**
     * Structural validation for tool mains: calls fatal() with the
     * validateStatus() description on violation.
     */
    void validate() const;

  private:
    std::string name_;
    std::vector<Vertex> vertices_;
    std::vector<Edge> edges_;
    std::vector<std::vector<EdgeId>> out_;
    std::vector<std::vector<EdgeId>> in_;
};

} // namespace tapacs

#endif // TAPACS_GRAPH_TASK_GRAPH_HH
