#include "network/cluster.hh"

#include "common/logging.hh"

namespace tapacs
{

Cluster::Cluster(DeviceModel device, Topology nodeTopology, int numNodes,
                 LinkModel intraLink, LinkModel hostLink,
                 LinkModel interNodeLink)
    : device_(std::move(device)),
      nodeTopology_(std::move(nodeTopology)),
      numNodes_(numNodes),
      intraLink_(intraLink),
      hostLink_(hostLink),
      interNodeLink_(interNodeLink)
{
    if (numNodes_ < 1)
        fatal("cluster requires at least one node, got %d", numNodes_);
}

int
Cluster::nodeOf(DeviceId d) const
{
    tapacs_assert(d >= 0 && d < numDevices());
    return d / devicesPerNode();
}

int
Cluster::localIndex(DeviceId d) const
{
    tapacs_assert(d >= 0 && d < numDevices());
    return d % devicesPerNode();
}

bool
Cluster::sameNode(DeviceId a, DeviceId b) const
{
    return nodeOf(a) == nodeOf(b);
}

double
Cluster::costDistance(DeviceId a, DeviceId b) const
{
    if (a == b)
        return 0.0;
    if (sameNode(a, b)) {
        const int hops = nodeTopology_.dist(localIndex(a), localIndex(b));
        return hops * intraLink_.lambda();
    }
    // dev -> host (PCIe), host -> host (10G), host -> dev (PCIe).
    return 2.0 * hostLink_.lambda() + interNodeLink_.lambda();
}

Seconds
Cluster::transferTime(DeviceId a, DeviceId b, double bytes) const
{
    if (a == b)
        return 0.0;
    if (sameNode(a, b)) {
        const int hops = nodeTopology_.dist(localIndex(a), localIndex(b));
        // Store-and-forward per hop through intermediate cards.
        return hops * intraLink_.transferTime(bytes);
    }
    return hostLink_.transferTime(bytes) +
           interNodeLink_.transferTime(bytes) +
           hostLink_.transferTime(bytes);
}

BytesPerSecond
Cluster::totalMemoryBandwidth() const
{
    return numDevices() * device_.memory().aggregateBandwidth;
}

Cluster
makePaperTestbed(int numFpgas)
{
    Cluster out(makeU55C(), Topology(TopologyKind::Ring, 1), 1);
    const Status st = tryMakePaperTestbed(numFpgas, &out);
    if (!st.ok())
        fatal("%s", st.message().c_str());
    return out;
}

Status
tryMakePaperTestbed(int numFpgas, Cluster *out)
{
    if (numFpgas < 1)
        return Status::invalidInput(
            "testbed requires at least one FPGA, got %d", numFpgas);
    if (numFpgas <= 4) {
        *out = Cluster(makeU55C(), Topology(TopologyKind::Ring, numFpgas),
                       /*numNodes=*/1);
        return Status();
    }
    if (numFpgas % 4 != 0)
        return Status::invalidInput(
            "multi-node testbed requires a multiple of 4 FPGAs, got %d",
            numFpgas);
    *out = Cluster(makeU55C(), Topology(TopologyKind::Ring, 4),
                   /*numNodes=*/numFpgas / 4);
    return Status();
}

} // namespace tapacs
