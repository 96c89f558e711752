/**
 * @file
 * HBM channel binding (paper section 4.5).
 *
 * All HBM channels of a U55C surface in the bottom die; binding a
 * kernel port to a channel on the far side of the die drags long
 * routes through the congested bottom row and can fail routing.
 * TAPA-CS explores channel bindings automatically: each memory-using
 * task gets the channels physically nearest its placed slot, demand
 * permitting, and contention (several tasks on one channel) is made
 * explicit so the simulator can derate the per-channel bandwidth.
 */

#ifndef TAPACS_FLOORPLAN_HBM_BINDING_HH
#define TAPACS_FLOORPLAN_HBM_BINDING_HH

#include <vector>

#include "floorplan/partition.hh"

namespace tapacs
{

/** Channel assignment for every task on every device. */
struct HbmBinding
{
    /** channelsOf[v] = memory channels bound to vertex v (global
     *  graph indexing; empty when the task has no memory ports). */
    std::vector<std::vector<int>> channelsOf;
    /** usersPerChannel[d][c] = tasks sharing channel c on device d. */
    std::vector<std::vector<int>> usersPerChannel;

    /** Worst-case sharing across all channels of a device. */
    int maxContention(DeviceId d) const;

    /** Sum over tasks of |task column - channel column| (binding
     *  displacement; lower is better routed). */
    double displacementCost = 0.0;

    bool operator==(const HbmBinding &o) const
    {
        return channelsOf == o.channelsOf &&
               usersPerChannel == o.usersPerChannel &&
               displacementCost == o.displacementCost;
    }
    bool operator!=(const HbmBinding &o) const { return !(*this == o); }
};

/**
 * Binding of one device's memory users. `grants` is parallel to the
 * `users` list handed to bindHbmDevice; `usersPerChannel` has one
 * load per channel of the device model.
 */
struct HbmDeviceBinding
{
    std::vector<std::vector<int>> grants;
    std::vector<int> usersPerChannel;
    double displacement = 0.0;
};

/**
 * Bind one device's memory users to its channels. Each task requests
 * work.memChannels channels. The classic walk visits tasks in
 * slot-column order and grants the nearest free channels; once every
 * channel is granted, further requests share the least-loaded ones
 * (contention > 1). With @p sweep the binder also tries the other
 * walk orders x pick policies and keeps the lowest (maxContention,
 * displacement); ties keep the classic walk, so the sweep never does
 * worse than it. Deterministic in (users, placement, device model) —
 * the candidates run serially, so per-device results can be cached
 * positionally.
 */
HbmDeviceBinding bindHbmDevice(const TaskGraph &g, const DeviceModel &dev,
                               const SlotPlacement &placement,
                               const std::vector<VertexId> &users,
                               bool sweep);

/**
 * Column of a memory channel on the device (channels are spread
 * evenly across the bottom-row slot columns).
 */
int channelColumn(const DeviceModel &device, int channel);

} // namespace tapacs

#endif // TAPACS_FLOORPLAN_HBM_BINDING_HH
