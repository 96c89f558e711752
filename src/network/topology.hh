/**
 * @file
 * Network topologies for FPGA clusters.
 *
 * The inter-FPGA floorplanner's communication cost is
 * `e.width * dist(F_i, F_j) * lambda` (paper eq. 2); `dist` depends
 * on how the cluster is cabled (paper Figure 6 shows daisy-chain,
 * ring, bus, star, mesh and hypercube options). This module provides
 * the hop-distance metric for each supported topology, both as the
 * closed forms the paper gives (eq. 3 for chains, the min-wrap form
 * for rings) and as BFS over an explicit adjacency for the rest.
 */

#ifndef TAPACS_NETWORK_TOPOLOGY_HH
#define TAPACS_NETWORK_TOPOLOGY_HH

#include <string>
#include <vector>

#include "common/status.hh"

namespace tapacs
{

/** Device index within a cluster. */
using DeviceId = int;

/** Supported cluster wirings (paper Figure 6). */
enum class TopologyKind
{
    Chain,          ///< daisy-chained, eq. 3
    Ring,           ///< bidirectional ring (the paper's testbed)
    Star,           ///< hub-and-spoke, hub = device 0
    Mesh2D,         ///< 2-D grid
    Hypercube,      ///< binary n-cube (device count must be 2^k)
    FullyConnected, ///< all-to-all (bus/switch)
};

/** Display name of a topology kind. */
const char *toString(TopologyKind kind);

/**
 * Ok when @p numDevices devices can be wired as @p kind; otherwise
 * InvalidInput naming the rule: every topology needs at least one
 * device, and a hypercube needs a power of two. The Topology
 * constructor enforces the same rules fatally, so request-reachable
 * callers check here first.
 */
Status checkTopology(TopologyKind kind, int numDevices);

/**
 * A cluster topology: device count, adjacency, hop distances.
 */
class Topology
{
  public:
    /**
     * Build a topology over @p numDevices devices.
     *
     * @param kind wiring pattern.
     * @param numDevices device count; must pass checkTopology()
     *        (fatal otherwise). Mesh2D lays devices out in the
     *        squarest grid.
     */
    Topology(TopologyKind kind, int numDevices);

    TopologyKind kind() const { return kind_; }
    int numDevices() const { return numDevices_; }

    /**
     * Hop distance between two devices (0 when i == j). This is the
     * `dist` of paper eq. 2-4.
     */
    int dist(DeviceId i, DeviceId j) const;

    /** Largest pairwise hop distance. */
    int diameter() const;

  private:
    void buildAdjacency();
    void computeDistances();

    TopologyKind kind_;
    int numDevices_;
    int meshCols_ = 0;
    std::vector<std::vector<DeviceId>> adj_;
    std::vector<int> dist_; // numDevices x numDevices
};

} // namespace tapacs

#endif // TAPACS_NETWORK_TOPOLOGY_HH
