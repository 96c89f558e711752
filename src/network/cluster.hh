/**
 * @file
 * Cluster model: devices + per-node topology + links.
 *
 * The paper's testbed is two server nodes, each holding four Alveo
 * U55C cards cabled in a QSFP28 ring; designs spanning nodes move
 * intermediate data device->host->host->device, over PCIe to the
 * hosts and a 10 Gbps Ethernet link between them (paper section 5.7,
 * Table 9). A Cluster bundles that physical description for the
 * floorplanner (cost distances with lambda scaling) and the
 * simulator (wall-clock transfer times).
 *
 * Device ids are global: node = id / devicesPerNode, local index =
 * id % devicesPerNode. All nodes share the same intra-node topology.
 */

#ifndef TAPACS_NETWORK_CLUSTER_HH
#define TAPACS_NETWORK_CLUSTER_HH

#include <vector>

#include "common/status.hh"
#include "device/device.hh"
#include "network/link.hh"
#include "network/topology.hh"

namespace tapacs
{

/**
 * A homogeneous multi-FPGA, possibly multi-node cluster.
 */
class Cluster
{
  public:
    /**
     * @param device board model replicated across the cluster.
     * @param nodeTopology wiring of the devices inside one node.
     * @param numNodes number of identical server nodes.
     * @param intraLink device-to-device link inside a node.
     * @param hostLink device-to-host link (PCIe).
     * @param interNodeLink host-to-host link between nodes.
     */
    Cluster(DeviceModel device, Topology nodeTopology, int numNodes = 1,
            LinkModel intraLink = LinkModel(LinkKind::Ethernet100G),
            LinkModel hostLink = LinkModel(LinkKind::PCIeGen3x16),
            LinkModel interNodeLink = LinkModel(LinkKind::InterNode10G));

    int devicesPerNode() const { return nodeTopology_.numDevices(); }
    int numNodes() const { return numNodes_; }
    int numDevices() const { return devicesPerNode() * numNodes_; }

    const DeviceModel &device() const { return device_; }
    const Topology &nodeTopology() const { return nodeTopology_; }
    const LinkModel &intraLink() const { return intraLink_; }
    const LinkModel &hostLink() const { return hostLink_; }
    const LinkModel &interNodeLink() const { return interNodeLink_; }

    /** Server node index of a device. */
    int nodeOf(DeviceId d) const;

    /** Index of a device within its node. */
    int localIndex(DeviceId d) const;

    /** True if both devices sit in the same server node. */
    bool sameNode(DeviceId a, DeviceId b) const;

    /**
     * ILP communication-cost distance between two devices: intra-node
     * pairs cost hop-count x lambda of the FPGA link; inter-node
     * pairs additionally pay two host hops (PCIe lambda) plus the
     * inter-node lambda (paper eq. 2-4 with the lambda adjustment of
     * section 4.3).
     */
    double costDistance(DeviceId a, DeviceId b) const;

    /**
     * Wall-clock time to move @p bytes from device a to device b.
     * Intra-node transfers ride the FPGA link once per hop;
     * inter-node transfers pay device->host, host->host and
     * host->device serially.
     */
    Seconds transferTime(DeviceId a, DeviceId b, double bytes) const;

    /** Aggregate cluster HBM bandwidth (devices x per-card HBM). */
    BytesPerSecond totalMemoryBandwidth() const;

  private:
    DeviceModel device_;
    Topology nodeTopology_;
    int numNodes_;
    LinkModel intraLink_;
    LinkModel hostLink_;
    LinkModel interNodeLink_;
};

/**
 * The paper's testbed scaled to @p numFpgas cards: U55C boards in
 * rings of at most four per node, AlveoLink between cards in a node,
 * PCIe + 10 Gbps host MPI between nodes. numFpgas > 4 must be a
 * multiple of 4 (full nodes).
 */
Cluster makePaperTestbed(int numFpgas);

/**
 * Validating form of makePaperTestbed for the compile service: an
 * unsatisfiable card count returns InvalidInput instead of killing
 * the process; on Ok, @p out holds the cluster.
 */
Status tryMakePaperTestbed(int numFpgas, Cluster *out);

} // namespace tapacs

#endif // TAPACS_NETWORK_CLUSTER_HH
