/**
 * @file
 * Hypergraph representation for the multilevel level-1 partitioner.
 *
 * A TaskGraph is lowered to an undirected weighted hypergraph: every
 * unordered vertex pair connected by one or more FIFOs becomes one
 * two-pin net whose weight is the summed FIFO width in bits (the
 * paper's eq. 2 objective is symmetric in costDistance, so merging
 * parallel and anti-parallel edges preserves the total cut cost
 * exactly). Pins and vertex->net incidence are stored CSR so the
 * per-level refinement walks contiguous memory. Parallel nets are
 * merged without hashing: nets are bucketed by their low pin and a
 * marker array finds each pin pair's first net, so the build is
 * deterministic and O(E + V). The first net of a pair (in edge or
 * net order) takes the next net id and the rest add their weight to
 * it in that order.
 *
 * Coarsening produces a hierarchy of these hypergraphs via seeded
 * heavy-edge matching with high-degree-node (HDN) exclusion: hub
 * vertices whose degree exceeds a multiple of the average stay
 * unmatched, so broadcast structures survive to the coarsest level
 * (they are both the hardest vertices to place and the candidates
 * for logic replication). Vertex area / channel demand sum under
 * merging, which keeps every level's balance constraint equivalent
 * to the finest one.
 */

#ifndef TAPACS_PARTITION_HYPERGRAPH_HH
#define TAPACS_PARTITION_HYPERGRAPH_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "device/resources.hh"
#include "graph/task_graph.hh"

namespace tapacs::partition
{

/** CSR hypergraph with per-vertex area/channel weights. Nets are
 *  two-pin by construction (see file comment). */
struct Hypergraph
{
    /** netOffset[n] .. netOffset[n+1] indexes pins of net n. */
    std::vector<int> netOffset{0};
    std::vector<VertexId> pins;
    /** Summed FIFO width (bits) of the FIFOs folded into each net. */
    std::vector<double> netWeight;

    /** vtxOffset[v] .. vtxOffset[v+1] indexes vtxNets of vertex v. */
    std::vector<int> vtxOffset{0};
    std::vector<int> vtxNets;

    std::vector<ResourceVector> area;
    std::vector<int> channels;

    int numVertices() const { return static_cast<int>(area.size()); }
    int numNets() const
    {
        return static_cast<int>(netWeight.size());
    }

    /** The pin of two-pin net @p n that is not @p v. */
    VertexId
    otherPin(int n, VertexId v) const
    {
        const VertexId a = pins[netOffset[n]];
        const VertexId b = pins[netOffset[n] + 1];
        return a == v ? b : a;
    }
};

/** Lower a TaskGraph (self-loops dropped, parallel FIFOs merged). */
Hypergraph buildHypergraph(const TaskGraph &g);

/**
 * One level of the coarsening hierarchy. levels[0] is the finest
 * (the lowered TaskGraph, coarseOf empty); levels[k].coarseOf maps a
 * level k-1 vertex to its level-k cluster.
 */
struct Level
{
    Hypergraph hg;
    std::vector<int> coarseOf;
};

/** HDN exclusion: a vertex with net degree above kHdnFactor times the
 *  level average is left unmatched. */
constexpr double kHdnFactor = 8.0;
/** Stop coarsening early when a round shrinks the level by less than
 *  this factor (stagnation guard). */
constexpr double kMinShrinkFactor = 1.05;

/** Knobs for one hierarchy build. */
struct CoarsenOptions
{
    /** Stop once a level has at most this many vertices. */
    int targetVertices = 36;
    /** Per-cluster area cap (keeps coarse vertices placeable). */
    ResourceVector mergeCap;
    /** Per-cluster channel-demand cap (0 = uncapped). */
    int channelMergeCap = 0;
    std::uint64_t seed = 1;
};

/**
 * Build the full hierarchy. levels.front() is the lowered input;
 * levels.back() is the coarsest. Deterministic for a fixed seed.
 */
std::vector<Level> buildHierarchy(const TaskGraph &g,
                                  const CoarsenOptions &options);

/** Compose the hierarchy's maps: finest vertex -> coarsest cluster. */
std::vector<int> mapToCoarsest(const std::vector<Level> &levels);

} // namespace tapacs::partition

#endif // TAPACS_PARTITION_HYPERGRAPH_HH
