#include "network/topology.hh"

#include <algorithm>
#include <cmath>
#include <deque>

#include "common/logging.hh"

namespace tapacs
{

const char *
toString(TopologyKind kind)
{
    switch (kind) {
      case TopologyKind::Chain: return "chain";
      case TopologyKind::Ring: return "ring";
      case TopologyKind::Star: return "star";
      case TopologyKind::Mesh2D: return "mesh2d";
      case TopologyKind::Hypercube: return "hypercube";
      case TopologyKind::FullyConnected: return "fully-connected";
    }
    return "?";
}

Status
checkTopology(TopologyKind kind, int numDevices)
{
    if (numDevices < 1)
        return Status::invalidInput(
            "topology requires at least one device, got %d", numDevices);
    if (kind == TopologyKind::Hypercube &&
        (numDevices & (numDevices - 1)) != 0)
        return Status::invalidInput(
            "hypercube topology requires a power-of-two device count, "
            "got %d",
            numDevices);
    return Status();
}

Topology::Topology(TopologyKind kind, int numDevices)
    : kind_(kind), numDevices_(numDevices)
{
    const Status st = checkTopology(kind_, numDevices_);
    if (!st.ok())
        fatal("%s", st.message().c_str());
    if (kind_ == TopologyKind::Mesh2D) {
        meshCols_ = static_cast<int>(
            std::ceil(std::sqrt(static_cast<double>(numDevices_))));
    }
    buildAdjacency();
    computeDistances();
}

void
Topology::buildAdjacency()
{
    adj_.assign(numDevices_, {});
    auto link = [&](DeviceId a, DeviceId b) {
        adj_[a].push_back(b);
        adj_[b].push_back(a);
    };
    switch (kind_) {
      case TopologyKind::Chain:
        for (int i = 0; i + 1 < numDevices_; ++i)
            link(i, i + 1);
        break;
      case TopologyKind::Ring:
        for (int i = 0; i + 1 < numDevices_; ++i)
            link(i, i + 1);
        if (numDevices_ > 2)
            link(numDevices_ - 1, 0);
        break;
      case TopologyKind::Star:
        for (int i = 1; i < numDevices_; ++i)
            link(0, i);
        break;
      case TopologyKind::Mesh2D:
        for (int i = 0; i < numDevices_; ++i) {
            const int col = i % meshCols_;
            if (col + 1 < meshCols_ && i + 1 < numDevices_)
                link(i, i + 1);
            if (i + meshCols_ < numDevices_)
                link(i, i + meshCols_);
        }
        break;
      case TopologyKind::Hypercube:
        for (int i = 0; i < numDevices_; ++i) {
            for (int bit = 1; bit < numDevices_; bit <<= 1) {
                const int j = i ^ bit;
                if (j > i)
                    link(i, j);
            }
        }
        break;
      case TopologyKind::FullyConnected:
        for (int i = 0; i < numDevices_; ++i) {
            for (int j = i + 1; j < numDevices_; ++j)
                link(i, j);
        }
        break;
    }
}

void
Topology::computeDistances()
{
    const int n = numDevices_;
    dist_.assign(static_cast<size_t>(n) * n, -1);
    for (int s = 0; s < n; ++s) {
        auto d = [&](int v) -> int & {
            return dist_[static_cast<size_t>(s) * n + v];
        };
        std::deque<int> queue;
        d(s) = 0;
        queue.push_back(s);
        while (!queue.empty()) {
            const int v = queue.front();
            queue.pop_front();
            for (int w : adj_[v]) {
                if (d(w) < 0) {
                    d(w) = d(v) + 1;
                    queue.push_back(w);
                }
            }
        }
        for (int v = 0; v < n; ++v) {
            if (d(v) < 0)
                panic("topology %s is disconnected", toString(kind_));
        }
    }
}

int
Topology::dist(DeviceId i, DeviceId j) const
{
    tapacs_assert(i >= 0 && i < numDevices_ && j >= 0 && j < numDevices_);
    return dist_[static_cast<size_t>(i) * numDevices_ + j];
}

int
Topology::diameter() const
{
    return *std::max_element(dist_.begin(), dist_.end());
}

} // namespace tapacs
