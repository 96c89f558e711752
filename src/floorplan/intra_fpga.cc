#include "floorplan/intra_fpga.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "obs/trace.hh"

namespace tapacs
{

namespace
{

/** Rectangular region of slots: [c0, c1] x [r0, r1], inclusive. */
struct Region
{
    int c0, c1, r0, r1;

    int slotCount() const { return (c1 - c0 + 1) * (r1 - r0 + 1); }
    bool single() const { return slotCount() == 1; }

    double centerCol() const { return 0.5 * (c0 + c1); }
    double centerRow() const { return 0.5 * (r0 + r1); }

    bool containsRow(int row) const { return row >= r0 && row <= r1; }
};

/** State of one device's recursive bisection. */
struct DeviceState
{
    std::vector<VertexId> verts;     // vertices on this device
    std::vector<Region> regionOf;    // current region per local index
};

double
regionDist(const Region &a, const Region &b)
{
    return std::abs(a.centerCol() - b.centerCol()) +
           std::abs(a.centerRow() - b.centerRow());
}

/** Capacity budget of a region (threshold-scaled, reserve deducted). */
ResourceVector
regionBudget(const DeviceModel &dev, const Region &region,
             const IntraFpgaOptions &opt)
{
    ResourceVector cap;
    for (int r = region.r0; r <= region.r1; ++r) {
        for (int c = region.c0; c <= region.c1; ++c)
            cap += dev.slot(c, r).capacity;
    }
    cap *= opt.threshold;
    ResourceVector reserve = opt.reserved;
    reserve *= static_cast<double>(region.slotCount()) / dev.numSlots();
    cap -= reserve;
    for (int r = 0; r < kNumResourceKinds; ++r) {
        const auto kind = static_cast<ResourceKind>(r);
        if (cap[kind] < 0.0)
            cap[kind] = 0.0;
    }
    return cap;
}

/**
 * Linear pull of vertex lv toward side B (positive values favour A).
 * Folds in edges to vertices outside the active set and the HBM
 * attraction toward the memory row.
 */
std::vector<double>
sidePull(const TaskGraph &g, const DeviceModel &dev,
         const std::vector<VertexId> &active,
         const std::vector<int> &activeIndex, const DeviceState &state,
         const std::vector<int> &localOf, const Region &sideA,
         const Region &sideB)
{
    std::vector<double> delta(active.size(), 0.0);
    for (size_t i = 0; i < active.size(); ++i) {
        const VertexId v = active[i];
        auto external = [&](VertexId other, double width) {
            const int lo = localOf[other];
            if (lo < 0)
                return; // other device: level-1 handled that cost
            if (activeIndex[other] >= 0)
                return; // same bisection, handled quadratically
            const Region &r = state.regionOf[lo];
            delta[i] += width * (regionDist(sideB, r) -
                                 regionDist(sideA, r));
        };
        for (EdgeId e : g.outEdges(v))
            external(g.edge(e).dst, g.edge(e).widthBits);
        for (EdgeId e : g.inEdges(v))
            external(g.edge(e).src, g.edge(e).widthBits);

        // HBM attraction: pseudo-edge to the memory row.
        const int ch = g.vertex(v).work.memChannels;
        if (ch > 0 && dev.memoryRow() >= 0) {
            Region mem{0, dev.cols() - 1, dev.memoryRow(),
                       dev.memoryRow()};
            delta[i] += kMemAttractionWidth * ch *
                        (regionDist(sideB, mem) - regionDist(sideA, mem));
        }
    }
    return delta;
}

/** Greedy bisection fallback/warm start: descending area, best side. */
std::vector<int>
greedyCut(const TaskGraph &g, const std::vector<VertexId> &active,
          const std::vector<int> &activeIndex,
          const std::vector<double> &pull, const ResourceVector &budgetA,
          const ResourceVector &budgetB, double step)
{
    std::vector<size_t> order(active.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return g.vertex(active[a]).area[ResourceKind::Lut] >
               g.vertex(active[b]).area[ResourceKind::Lut];
    });

    std::vector<int> side(active.size(), -1);
    ResourceVector usedA, usedB;
    for (size_t i : order) {
        const VertexId v = active[i];
        // Cost of each side: pull plus cut edges to already-placed
        // neighbors inside this bisection.
        double costA = 0.0, costB = pull[i];
        auto neighbor = [&](VertexId other, double width) {
            const int oi = activeIndex[other];
            if (oi < 0 || side[oi] < 0)
                return;
            if (side[oi] == 0)
                costB += width * step;
            else
                costA += width * step;
        };
        for (EdgeId e : g.outEdges(v))
            neighbor(g.edge(e).dst, g.edge(e).widthBits);
        for (EdgeId e : g.inEdges(v))
            neighbor(g.edge(e).src, g.edge(e).widthBits);

        ResourceVector afterA = usedA, afterB = usedB;
        afterA += g.vertex(v).area;
        afterB += g.vertex(v).area;
        const bool okA = afterA.fitsWithin(budgetA);
        const bool okB = afterB.fitsWithin(budgetB);
        int pick;
        if (okA && okB)
            pick = costA <= costB ? 0 : 1;
        else if (okA)
            pick = 0;
        else if (okB)
            pick = 1;
        else
            pick = afterA.maxUtilization(budgetA) <=
                           afterB.maxUtilization(budgetB)
                       ? 0
                       : 1;
        side[i] = pick;
        (pick == 0 ? usedA : usedB) += g.vertex(v).area;
    }
    return side;
}

/**
 * One ILP bisection: assign each active vertex to side A (0) or B
 * (1). Objective: step * sum_e w_e |y_u - y_v| + linear pulls.
 */
std::vector<int>
ilpCut(const TaskGraph &g, const std::vector<VertexId> &active,
       const std::vector<int> &activeIndex,
       const std::vector<double> &pull, const ResourceVector &budgetA,
       const ResourceVector &budgetB, double step,
       const IntraFpgaOptions &opt, const std::vector<int> &warm,
       bool *optimal, ilp::SolverStats *statsOut, int *rowsOut)
{
    const int n = static_cast<int>(active.size());
    ilp::Model model;
    std::vector<ilp::VarId> y(n);
    for (int i = 0; i < n; ++i)
        y[i] = model.addBinary(strprintf("y_%d", i));

    // Resource budgets: side B usage <= budgetB, side A usage =
    // total - sideB usage <= budgetA.
    for (int r = 0; r < kNumResourceKinds; ++r) {
        const auto kind = static_cast<ResourceKind>(r);
        ilp::LinExpr useB;
        double total = 0.0;
        bool any = false;
        for (int i = 0; i < n; ++i) {
            const double a = g.vertex(active[i]).area[kind];
            total += a;
            if (a > 0.0) {
                useB.add(y[i], a);
                any = true;
            }
        }
        if (!any)
            continue;
        ilp::LinExpr useB2 = useB;
        model.addConstraint(std::move(useB), ilp::Sense::LessEqual,
                            budgetB[kind]);
        model.addConstraint(std::move(useB2), ilp::Sense::GreaterEqual,
                            total - budgetA[kind]);
    }

    // Cut edges among the active set, one row each:
    // |y_u - y_v| = (y_u - y_v) + 2 q_e with q_e >= y_v - y_u, q_e >= 0.
    // The linear half folds into the y costs next to the pull; the LP
    // relaxation is the same as with a two-row |.| split.
    std::vector<double> ycost = pull;
    ilp::LinExpr objective;
    struct CutVar
    {
        ilp::VarId q;
        int u, v;
    };
    std::vector<CutVar> cuts;
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &edge = g.edge(e);
        const int ui = activeIndex[edge.src];
        const int vi = activeIndex[edge.dst];
        if (ui < 0 || vi < 0 || ui == vi)
            continue;
        const double w = step * edge.widthBits;
        const ilp::VarId q = model.addContinuous(0.0);
        ilp::LinExpr row;
        row.add(y[vi], 1.0).add(y[ui], -1.0).add(q, -1.0);
        model.addConstraint(std::move(row), ilp::Sense::LessEqual, 0.0);
        objective.add(q, 2.0 * w);
        ycost[ui] += w;
        ycost[vi] -= w;
        cuts.push_back({q, ui, vi});
    }
    for (int i = 0; i < n; ++i)
        objective.add(y[i], ycost[i]);
    model.setObjective(std::move(objective));

    std::vector<double> warm_values(model.numVars(), 0.0);
    for (int i = 0; i < n; ++i)
        warm_values[y[i]] = warm[i];
    for (const auto &cv : cuts)
        warm_values[cv.q] = std::max(0, warm[cv.v] - warm[cv.u]);

    *rowsOut = std::max(*rowsOut, model.numConstraints());
    ilp::BranchBoundSolver solver(opt.solver);
    ilp::Solution sol = solver.solve(model, warm_values);
    if (optimal)
        *optimal = solver.stats().provenOptimal;
    if (statsOut)
        statsOut->merge(solver.stats());
    if (!sol.hasSolution())
        return warm;
    std::vector<int> side(n);
    for (int i = 0; i < n; ++i)
        side[i] = static_cast<int>(sol.round(y[i]));
    return side;
}

} // namespace

IntraDeviceResult
floorplanIntraDevice(const TaskGraph &g, const DeviceModel &dev,
                     const std::vector<VertexId> &verts,
                     const IntraFpgaOptions &options)
{
    // Runs on a pool worker under parallelFor, so this span lands on
    // a per-worker track in the trace.
    obs::TraceSpan span("floorplan", "intra.device");

    // Forward the request deadline into every bisection ILP; once it
    // expires, remaining cuts take the greedy side assignment so the
    // request unwinds promptly (the compiler discards the result).
    IntraFpgaOptions opts = options;
    opts.solver.ctx = options.ctx;

    IntraDeviceResult outcome;
    outcome.stats.provenOptimal = true; // identity for merge()
    int max_rows = 0; // rows of the largest bisection ILP
    DeviceState state;
    state.verts = verts;
    // localOf[v]: index of v within this device's vertex list.
    std::vector<int> localOf(g.numVertices(), -1);
    for (size_t i = 0; i < state.verts.size(); ++i)
        localOf[state.verts[i]] = static_cast<int>(i);
    if (state.verts.empty())
        return outcome;
    const Region full{0, dev.cols() - 1, 0, dev.rows() - 1};
    state.regionOf.assign(state.verts.size(), full);

    std::vector<Region> queue = {full};
    while (!queue.empty()) {
            const Region region = queue.back();
            queue.pop_back();
            if (region.single())
                continue;

            // Split the longer axis; rows split so the memory row
            // stays in the lower half when present.
            const int ncols = region.c1 - region.c0 + 1;
            const int nrows = region.r1 - region.r0 + 1;
            Region sideA = region, sideB = region;
            if (nrows >= ncols) {
                const int mid = region.r0 + (nrows - 1) / 2;
                sideA.r1 = mid;
                sideB.r0 = mid + 1;
            } else {
                const int mid = region.c0 + (ncols - 1) / 2;
                sideA.c1 = mid;
                sideB.c0 = mid + 1;
            }
            const double step = regionDist(sideA, sideB);

            // Active set: vertices currently in this region.
            std::vector<VertexId> active;
            for (size_t i = 0; i < state.verts.size(); ++i) {
                const Region &r = state.regionOf[i];
                if (r.c0 == region.c0 && r.c1 == region.c1 &&
                    r.r0 == region.r0 && r.r1 == region.r1) {
                    active.push_back(state.verts[i]);
                }
            }
            if (!active.empty()) {
                std::vector<int> activeIndex(g.numVertices(), -1);
                for (size_t i = 0; i < active.size(); ++i)
                    activeIndex[active[i]] = static_cast<int>(i);

                ResourceVector budgetA = regionBudget(dev, sideA, options);
                ResourceVector budgetB = regionBudget(dev, sideB, options);

                // Balance pressure: beyond the threshold cap, each
                // side may only take its area-proportional share plus
                // slack. Spreading logic evenly is what lets the
                // floorplanned designs close timing at the board
                // maximum (congestion grows with slot utilization).
                ResourceVector active_total;
                for (VertexId av : active)
                    active_total += g.vertex(av).area;
                for (int r = 0; r < kNumResourceKinds; ++r) {
                    const auto kind = static_cast<ResourceKind>(r);
                    const double cap_a = budgetA[kind];
                    const double cap_b = budgetB[kind];
                    if (cap_a + cap_b <= 0.0)
                        continue;
                    const double total = active_total[kind];
                    const double slack = 0.10;
                    budgetA[kind] = std::min(
                        cap_a, total * cap_a / (cap_a + cap_b) +
                                   slack * cap_a + 1.0);
                    budgetB[kind] = std::min(
                        cap_b, total * cap_b / (cap_a + cap_b) +
                                   slack * cap_b + 1.0);
                }
                const std::vector<double> pull =
                    sidePull(g, dev, active, activeIndex, state, localOf,
                             sideA, sideB);

                std::vector<int> side =
                    greedyCut(g, active, activeIndex, pull, budgetA,
                              budgetB, step);
                if (options.useIlp && !opts.ctx.expired()) {
                    bool optimal = false;
                    side = ilpCut(g, active, activeIndex, pull, budgetA,
                                  budgetB, step, opts, side, &optimal,
                                  &outcome.stats, &max_rows);
                    if (!optimal)
                        outcome.allIlpOptimal = false;
                } else {
                    outcome.allIlpOptimal = false;
                }
                for (size_t i = 0; i < active.size(); ++i) {
                    state.regionOf[localOf[active[i]]] =
                        side[i] == 0 ? sideA : sideB;
                }
            }
            queue.push_back(sideA);
            queue.push_back(sideB);
        }

    outcome.slotOf.resize(state.verts.size());
    for (size_t i = 0; i < state.verts.size(); ++i) {
        const Region &r = state.regionOf[i];
        tapacs_assert(r.single());
        outcome.slotOf[i] = SlotCoord{r.c0, r.r0};
    }
    span.arg("vertices", static_cast<std::int64_t>(state.verts.size()))
        .arg("solver_nodes", outcome.stats.nodesExplored)
        .arg("lp_solves", outcome.stats.lpSolves)
        .arg("lp_iterations", outcome.stats.lpIterations)
        .arg("rows", static_cast<std::int64_t>(max_rows));
    return outcome;
}

Level2Result
floorplanLevel2(const TaskGraph &g, const Cluster &cluster,
                const DevicePartition &partition,
                const IntraFpgaOptions &options, bool hbmSweep,
                int numThreads,
                std::vector<std::optional<IntraDeviceEntry>> known)
{
    tapacs_assert(static_cast<int>(partition.deviceOf.size()) ==
                  g.numVertices());
    const DeviceModel &dev = cluster.device();
    const int num_devices = cluster.numDevices();
    const int channels = dev.memory().channels;

    // Per-device vertex and memory-user lists, both in ascending graph
    // id — the order the per-device solve walks and IntraDeviceEntry
    // is laid out in.
    std::vector<std::vector<VertexId>> verts_of(num_devices);
    std::vector<std::vector<VertexId>> users_of(num_devices);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        const DeviceId d = partition.deviceOf[v];
        verts_of[d].push_back(v);
        if (g.vertex(v).work.memChannels > 0)
            users_of[d].push_back(v);
    }

    Level2Result out;
    out.devices.resize(num_devices);
    out.solved.assign(num_devices, 1);
    known.resize(num_devices);
    for (DeviceId d = 0; d < num_devices; ++d) {
        std::optional<IntraDeviceEntry> &k = known[d];
        if (k && k->slots.size() == verts_of[d].size() &&
            k->grants.size() == users_of[d].size() &&
            k->usersPerChannel.size() ==
                static_cast<std::size_t>(channels)) {
            out.devices[d] = std::move(*k);
            out.solved[d] = 0;
        }
    }

    // Each device reads shared inputs and writes only its own record
    // and its own vertices' slots, so the loop needs no
    // synchronization; the binder reads the slots its own device just
    // wrote.
    out.placement.slotOf.assign(g.numVertices(), SlotCoord{0, 0});
    auto solveDevice = [&](std::int64_t d) {
        if (!out.solved[d])
            return;
        IntraDeviceResult fr =
            floorplanIntraDevice(g, dev, verts_of[d], options);
        IntraDeviceEntry &e = out.devices[d];
        e.slots = std::move(fr.slotOf);
        for (std::size_t i = 0; i < verts_of[d].size(); ++i)
            out.placement.slotOf[verts_of[d][i]] = e.slots[i];
        HbmDeviceBinding hb =
            bindHbmDevice(g, dev, out.placement, users_of[d], hbmSweep);
        e.grants = std::move(hb.grants);
        e.usersPerChannel = std::move(hb.usersPerChannel);
        e.displacement = hb.displacement;
        e.allIlpOptimal = fr.allIlpOptimal;
        e.stats = fr.stats;
    };
    int threads = numThreads > 0 ? numThreads
                                 : ThreadPool::defaultPool().size();
    if (num_devices <= 1)
        threads = 1;
    ThreadPool::defaultPool().parallelFor(0, num_devices, solveDevice,
                                          threads);

    // Fold in fixed device order so the stats sums and the binding
    // aggregate are identical at any thread count — and identical
    // whether a record was solved or known.
    out.binding.channelsOf.assign(g.numVertices(), {});
    out.binding.usersPerChannel.assign(num_devices,
                                       std::vector<int>(channels, 0));
    out.solverStats.provenOptimal = true; // identity for merge()
    for (DeviceId d = 0; d < num_devices; ++d) {
        const IntraDeviceEntry &e = out.devices[d];
        if (!out.solved[d]) {
            for (std::size_t i = 0; i < verts_of[d].size(); ++i)
                out.placement.slotOf[verts_of[d][i]] = e.slots[i];
        }
        out.allIlpOptimal = out.allIlpOptimal && e.allIlpOptimal;
        out.solverStats.merge(e.stats);
        if (users_of[d].empty())
            continue;
        out.binding.usersPerChannel[d] = e.usersPerChannel;
        for (std::size_t i = 0; i < users_of[d].size(); ++i)
            out.binding.channelsOf[users_of[d][i]] = e.grants[i];
        out.binding.displacementCost += e.displacement;
    }
    out.solverStats.threadsUsed =
        std::max(out.solverStats.threadsUsed, threads);
    out.cost = intraFpgaCost(g, partition, out.placement);
    return out;
}

} // namespace tapacs
