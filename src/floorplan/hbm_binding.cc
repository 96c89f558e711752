#include "floorplan/hbm_binding.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hh"
#include "obs/trace.hh"

namespace tapacs
{

namespace
{

/** How a candidate walks the memory-using tasks of a device. */
enum class WalkOrder
{
    ColumnAsc,  ///< slot column ascending (the classic order)
    ColumnDesc, ///< slot column descending
    DemandDesc, ///< heaviest requesters first
    IdOrder,    ///< graph vertex order
};

/** How a candidate picks a channel for one request. */
enum class PickPolicy
{
    LeastLoadedThenNear, ///< balance first (the classic policy)
    NearestThenLeastLoaded, ///< locality first
};

/** One point of the per-device sweep grid. Candidate 0 must stay the
 *  classic heuristic: scores tie-break toward the lowest candidate
 *  index, which preserves the historical binding whenever the sweep
 *  finds nothing strictly better. */
struct Candidate
{
    WalkOrder order;
    PickPolicy policy;
};

constexpr Candidate kCandidates[] = {
    {WalkOrder::ColumnAsc, PickPolicy::LeastLoadedThenNear},
    {WalkOrder::ColumnAsc, PickPolicy::NearestThenLeastLoaded},
    {WalkOrder::ColumnDesc, PickPolicy::LeastLoadedThenNear},
    {WalkOrder::ColumnDesc, PickPolicy::NearestThenLeastLoaded},
    {WalkOrder::DemandDesc, PickPolicy::LeastLoadedThenNear},
    {WalkOrder::DemandDesc, PickPolicy::NearestThenLeastLoaded},
    {WalkOrder::IdOrder, PickPolicy::LeastLoadedThenNear},
    {WalkOrder::IdOrder, PickPolicy::NearestThenLeastLoaded},
};
constexpr int kNumCandidates =
    static_cast<int>(sizeof(kCandidates) / sizeof(kCandidates[0]));

/** Binding of one device under one candidate. */
struct DeviceBinding
{
    std::vector<int> load; ///< users per channel
    /** grants[i] = channels of users[i] (user-list indexing). */
    std::vector<std::vector<int>> grants;
    double displacement = 0.0;
    int maxContention = 0;
};

/** Run one candidate over one device's users. */
DeviceBinding
bindDevice(const TaskGraph &g, const DeviceModel &dev,
           const SlotPlacement &placement,
           const std::vector<VertexId> &users, const Candidate &cand)
{
    const int channels = dev.memory().channels;
    DeviceBinding out;
    out.load.assign(channels, 0);
    out.grants.assign(users.size(), {});

    std::vector<size_t> order(users.size());
    std::iota(order.begin(), order.end(), 0);
    switch (cand.order) {
      case WalkOrder::ColumnAsc:
        std::stable_sort(order.begin(), order.end(),
                         [&](size_t a, size_t b) {
                             return placement.slotOf[users[a]].col <
                                    placement.slotOf[users[b]].col;
                         });
        break;
      case WalkOrder::ColumnDesc:
        std::stable_sort(order.begin(), order.end(),
                         [&](size_t a, size_t b) {
                             return placement.slotOf[users[a]].col >
                                    placement.slotOf[users[b]].col;
                         });
        break;
      case WalkOrder::DemandDesc:
        std::stable_sort(order.begin(), order.end(),
                         [&](size_t a, size_t b) {
                             return g.vertex(users[a]).work.memChannels >
                                    g.vertex(users[b]).work.memChannels;
                         });
        break;
      case WalkOrder::IdOrder:
        break;
    }

    for (size_t i : order) {
        const VertexId v = users[i];
        const int want = g.vertex(v).work.memChannels;
        const int col = placement.slotOf[v].col;
        for (int k = 0; k < want; ++k) {
            int best = -1;
            for (int c = 0; c < channels; ++c) {
                if (best < 0) {
                    best = c;
                    continue;
                }
                const int dcost = std::abs(channelColumn(dev, c) - col);
                const int bcost = std::abs(channelColumn(dev, best) - col);
                bool better;
                if (cand.policy == PickPolicy::LeastLoadedThenNear) {
                    better = out.load[c] < out.load[best] ||
                             (out.load[c] == out.load[best] &&
                              dcost < bcost);
                } else {
                    better = dcost < bcost ||
                             (dcost == bcost &&
                              out.load[c] < out.load[best]);
                }
                if (better)
                    best = c;
            }
            tapacs_assert(best >= 0);
            ++out.load[best];
            out.grants[i].push_back(best);
            out.displacement += std::abs(channelColumn(dev, best) - col);
        }
    }
    for (int users_on_c : out.load)
        out.maxContention = std::max(out.maxContention, users_on_c);
    return out;
}

/** Lexicographic candidate score: contention, then displacement.
 *  Strict comparison so equal scores keep the earlier candidate. */
bool
strictlyBetter(const DeviceBinding &a, const DeviceBinding &b)
{
    if (a.maxContention != b.maxContention)
        return a.maxContention < b.maxContention;
    return a.displacement < b.displacement - 1e-12;
}

} // namespace

int
HbmBinding::maxContention(DeviceId d) const
{
    tapacs_assert(d >= 0 && d < static_cast<int>(usersPerChannel.size()));
    int worst = 0;
    for (int users : usersPerChannel[d])
        worst = std::max(worst, users);
    return worst;
}

int
channelColumn(const DeviceModel &device, int channel)
{
    const int channels = device.memory().channels;
    tapacs_assert(channels > 0 && channel >= 0 && channel < channels);
    const int per_col = (channels + device.cols() - 1) / device.cols();
    return std::min(channel / per_col, device.cols() - 1);
}

HbmDeviceBinding
bindHbmDevice(const TaskGraph &g, const DeviceModel &dev,
              const SlotPlacement &placement,
              const std::vector<VertexId> &users, bool sweep)
{
    HbmDeviceBinding out;
    out.usersPerChannel.assign(dev.memory().channels, 0);
    out.grants.assign(users.size(), {});
    if (users.empty())
        return out;

    // Evaluate the candidates serially and keep the winner; ties go
    // to the lowest candidate index, so candidate 0 (the classic
    // heuristic) survives unless something is strictly better.
    obs::TraceSpan span("floorplan", "hbm.device");
    const int cands = sweep ? kNumCandidates : 1;
    DeviceBinding win = bindDevice(g, dev, placement, users,
                                   kCandidates[0]);
    for (int k = 1; k < cands; ++k) {
        DeviceBinding cand =
            bindDevice(g, dev, placement, users, kCandidates[k]);
        if (strictlyBetter(cand, win))
            win = std::move(cand);
    }
    span.arg("users", static_cast<std::int64_t>(users.size()))
        .arg("contention", static_cast<std::int64_t>(win.maxContention));
    out.usersPerChannel = std::move(win.load);
    out.grants = std::move(win.grants);
    out.displacement = win.displacement;
    return out;
}

} // namespace tapacs
