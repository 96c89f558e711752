#include "timing/frequency.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace tapacs
{

TimingResult
estimateTiming(const TaskGraph &g, const Cluster &cluster,
               const DevicePartition &partition,
               const SlotPlacement &placement, const PipelinePlan &plan,
               const std::vector<Hertz> &fmaxCeiling,
               const ResourceVector &reserved, const HbmBinding *binding)
{
    const DeviceModel &dev = cluster.device();
    TimingResult out;
    out.perDevice.resize(cluster.numDevices());
    out.designFmax = dev.maxFrequency();

    auto ceilingOf = [&](VertexId v) -> Hertz {
        if (!fmaxCeiling.empty())
            return fmaxCeiling[v];
        return 340.0e6;
    };

    for (DeviceId d = 0; d < cluster.numDevices(); ++d) {
        DeviceTiming &dt = out.perDevice[d];

        // Slot utilizations including the reserved (networking) share
        // and the inserted pipeline hardware.
        auto slotAreas = perSlotArea(g, dev, partition, placement, d);
        ResourceVector extra = reserved;
        if (d < static_cast<int>(plan.addedAreaPerDevice.size()))
            extra += plan.addedAreaPerDevice[d];
        extra *= 1.0 / dev.numSlots();

        std::vector<double> util(dev.numSlots(), 0.0);
        bool device_used = false;
        for (int s = 0; s < dev.numSlots(); ++s) {
            ResourceVector a = slotAreas[s];
            if (!a.isZero())
                device_used = true;
            a += extra;
            util[s] = a.maxUtilization(dev.slots()[s].capacity);
            dt.maxSlotUtil = std::max(dt.maxSlotUtil, util[s]);
        }

        // Congestion-effective utilization adds HBM crossbar pressure
        // to the memory-row slots (placement feasibility above uses
        // the raw logic utilization only).
        std::vector<double> cong_util = util;
        if (binding && dev.memory().channels > 0 &&
            d < static_cast<int>(binding->usersPerChannel.size())) {
            // Count total port requests, not just distinct channels:
            // oversubscribed channels (contention > 1) congest the
            // AXI crossbar further.
            int requests = 0;
            for (int users : binding->usersPerChannel[d])
                requests += users;
            const double frac = std::min(
                1.5,
                static_cast<double>(requests) / dev.memory().channels);
            for (int s = 0; s < dev.numSlots(); ++s) {
                if (dev.slots()[s].exposesMemory)
                    cong_util[s] += kHbmPressure * frac;
            }
        }
        if (!device_used) {
            dt.fmax = dev.maxFrequency();
            dt.critical = "unused";
            continue;
        }
        if (dt.maxSlotUtil > kRoutableUtil) {
            dt.routable = false;
            dt.fmax = 0.0;
            dt.critical = strprintf("routing failure: slot util %.1f%%",
                                    dt.maxSlotUtil * 100.0);
            out.allRoutable = false;
            continue;
        }

        auto congestion = [&](int slotIdx) {
            const double u = cong_util[slotIdx];
            return 1.0 + kCongestionGamma *
                             std::max(0.0, u - kCongestionKnee);
        };
        auto slotIndex = [&](const SlotCoord &c) {
            return c.row * dev.cols() + c.col;
        };

        // Start from the board-max clock period (in ns).
        double worst_delay_ns = 1.0e3 / (dev.maxFrequency() / 1.0e6);
        std::string critical =
            strprintf("board maximum (%s)",
                      formatFrequency(dev.maxFrequency()).c_str());

        // Module-internal paths, derated by their slot's congestion.
        for (VertexId v = 0; v < g.numVertices(); ++v) {
            if (partition.deviceOf[v] != d)
                continue;
            const double m = congestion(slotIndex(placement.slotOf[v]));
            const double delay = 1.0e3 / (ceilingOf(v) / 1.0e6) * m;
            if (delay > worst_delay_ns) {
                worst_delay_ns = delay;
                critical = strprintf("module '%s' (congestion %.2fx)",
                                     g.vertex(v).name.c_str(), m);
            }
        }

        // Interconnect paths: wire delay split across pipeline stages.
        for (EdgeId e = 0; e < g.numEdges(); ++e) {
            const Edge &edge = g.edge(e);
            if (partition.deviceOf[edge.src] != d ||
                partition.deviceOf[edge.dst] != d) {
                continue;
            }
            const SlotCoord &a = placement.slotOf[edge.src];
            const SlotCoord &b = placement.slotOf[edge.dst];
            const int col_cross = std::abs(a.col - b.col);
            const int row_cross = std::abs(a.row - b.row);
            // Rows are SLR boundaries on the modeled boards.
            const double wire = col_cross * kSlotCrossNs +
                                row_cross * kDieCrossNs;
            const double m = 0.5 * (congestion(slotIndex(a)) +
                                    congestion(slotIndex(b)));
            const int segments = plan.edges[e].stages + 1;
            const double delay =
                (kLocalDelayNs + wire / segments) * m;
            if (delay > worst_delay_ns) {
                worst_delay_ns = delay;
                critical = strprintf(
                    "FIFO %s->%s (%d crossings, %d stages, "
                    "congestion %.2fx)",
                    g.vertex(edge.src).name.c_str(),
                    g.vertex(edge.dst).name.c_str(),
                    col_cross + row_cross, plan.edges[e].stages, m);
            }
        }

        dt.fmax = std::min<double>(dev.maxFrequency(),
                                   1.0e3 / worst_delay_ns * 1.0e6);
        dt.critical = critical;
        out.designFmax = std::min(out.designFmax, dt.fmax);
    }

    if (!out.allRoutable)
        out.designFmax = 0.0;
    return out;
}

} // namespace tapacs
