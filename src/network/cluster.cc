#include "network/cluster.hh"

#include <algorithm>

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
    const int f = numDevices();
    costTable_.assign(static_cast<std::size_t>(f) * f, 0.0);
    for (DeviceId a = 0; a < f; ++a) {
        for (DeviceId b = 0; b < f; ++b) {
            double &cost = costTable_[static_cast<std::size_t>(a) * f + b];
            if (a == b)
                continue;
            if (sameNode(a, b)) {
                const int hops =
                    nodeTopology_.dist(localIndex(a), localIndex(b));
                cost = hops * intraLink_.lambda();
            } else {
                // dev -> host (PCIe), host -> host (10G), host -> dev.
                cost = 2.0 * hostLink_.lambda() + interNodeLink_.lambda();
            }
        }
    }
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
tryMakePaperTestbed(int numFpgas, Cluster *out, TopologyKind kind)
{
    if (numFpgas < 1)
        return Status::invalidInput(
            "testbed requires at least one FPGA, got %d", numFpgas);
    if (numFpgas > 4 && numFpgas % 4 != 0)
        return Status::invalidInput(
            "multi-node testbed requires a multiple of 4 FPGAs, got %d",
            numFpgas);
    const int perNode = std::min(numFpgas, 4);
    const Status st = checkTopology(kind, perNode);
    if (!st.ok())
        return st;
    *out = Cluster(makeU55C(), Topology(kind, perNode),
                   /*numNodes=*/numFpgas / perNode);
    return Status();
}

} // namespace tapacs
