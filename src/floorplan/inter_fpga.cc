#include "floorplan/inter_fpga.hh"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "common/logging.hh"
#include "common/rng.hh"

namespace tapacs
{

namespace
{

using clock_type = std::chrono::steady_clock;

/** Coarse graph plus the mapping back to original vertices. */
struct CoarseGraph
{
    TaskGraph graph;
    std::vector<std::vector<VertexId>> members;
};

/**
 * One round of heavy-edge matching: visit vertices in random order,
 * merge each unmatched vertex with its unmatched neighbor across the
 * widest FIFO, subject to the merged area staying under the cap.
 */
CoarseGraph
coarsenOnce(const TaskGraph &g,
            const std::vector<std::vector<VertexId>> &members,
            const ResourceVector &mergeCap, int channelMergeCap,
            Rng &rng)
{
    const int n = g.numVertices();
    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);
    for (int i = n - 1; i > 0; --i)
        std::swap(order[i], order[rng.uniformInt(0, i)]);

    std::vector<int> match(n, -1);
    for (int v : order) {
        if (match[v] >= 0)
            continue;
        int best = -1;
        double best_w = -1.0;
        auto consider = [&](EdgeId e, VertexId other) {
            if (other == v || match[other] >= 0)
                return;
            ResourceVector merged = g.vertex(v).area;
            merged += g.vertex(other).area;
            if (!merged.fitsWithin(mergeCap))
                return;
            if (channelMergeCap > 0 &&
                g.vertex(v).work.memChannels +
                        g.vertex(other).work.memChannels >
                    channelMergeCap) {
                return;
            }
            const double w = g.edge(e).widthBits;
            if (w > best_w) {
                best_w = w;
                best = other;
            }
        };
        for (EdgeId e : g.outEdges(v))
            consider(e, g.edge(e).dst);
        for (EdgeId e : g.inEdges(v))
            consider(e, g.edge(e).src);
        if (best >= 0) {
            match[v] = best;
            match[best] = v;
        }
    }

    // Build the coarse graph.
    std::vector<int> coarse_of(n, -1);
    CoarseGraph out;
    for (int v : order) {
        if (coarse_of[v] >= 0)
            continue;
        Vertex merged;
        merged.name = g.vertex(v).name;
        merged.area = g.vertex(v).area;
        merged.work.memChannels = g.vertex(v).work.memChannels;
        std::vector<VertexId> group = members[v];
        const int partner = match[v];
        if (partner >= 0) {
            merged.area += g.vertex(partner).area;
            merged.work.memChannels +=
                g.vertex(partner).work.memChannels;
            group.insert(group.end(), members[partner].begin(),
                         members[partner].end());
        }
        const VertexId cv = out.graph.addVertex(std::move(merged));
        coarse_of[v] = cv;
        if (partner >= 0)
            coarse_of[partner] = cv;
        out.members.push_back(std::move(group));
    }

    // Merge parallel edges; drop internal ones.
    std::vector<std::vector<std::pair<int, EdgeId>>> seen(
        out.graph.numVertices());
    for (const auto &e : g.edges()) {
        const int cs = coarse_of[e.src];
        const int cd = coarse_of[e.dst];
        if (cs == cd)
            continue;
        const int lo = std::min(cs, cd), hi = std::max(cs, cd);
        EdgeId found = -1;
        for (auto &[other, id] : seen[lo]) {
            if (other == hi) {
                found = id;
                break;
            }
        }
        if (found < 0) {
            EdgeId id = out.graph.addEdge(cs, cd, e.widthBits,
                                          e.totalBytes, e.depth);
            seen[lo].push_back({hi, id});
        } else {
            Edge &m = out.graph.edge(found);
            m.widthBits += e.widthBits;
            m.totalBytes += e.totalBytes;
        }
    }
    return out;
}

CoarseGraph
coarsen(const TaskGraph &g, int limit, const ResourceVector &mergeCap,
        int channelMergeCap, Rng &rng)
{
    CoarseGraph cur;
    cur.graph = g;
    cur.members.resize(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        cur.members[v] = {v};

    while (cur.graph.numVertices() > limit) {
        CoarseGraph next =
            coarsenOnce(cur.graph, cur.members, mergeCap,
                        channelMergeCap, rng);
        if (next.graph.numVertices() == cur.graph.numVertices())
            break; // no merge possible; give the ILP what we have
        cur = std::move(next);
    }
    return cur;
}

/** Local shorthand for the shared public budget helper below. */
ResourceVector
deviceBudget(const TaskGraph &g, const Cluster &cluster,
             const InterFpgaOptions &opt)
{
    return interFpgaDeviceBudget(g, cluster, opt);
}

/**
 * Greedy seed: place vertices in descending-area order onto the
 * feasible device with the least incremental cost; the balance term
 * spreads unconnected work across devices.
 */
DevicePartition
greedyAssign(const TaskGraph &g, const Cluster &cluster,
             const InterFpgaOptions &opt)
{
    const int n = g.numVertices();
    const int f = cluster.numDevices();
    const ResourceVector budget = deviceBudget(g, cluster, opt);
    const ResourceVector cap = cluster.device().totalResources();

    // Scale of the balance penalty relative to edge costs.
    double total_w = 0.0;
    for (const auto &e : g.edges())
        total_w += e.widthBits;
    const double balance_scale =
        (total_w > 0.0 ? total_w / std::max(1, g.numEdges()) : 64.0) * 4.0;

    // Channel-hungry tasks first (a device can host at most a couple
    // of them), then by area; comm cost pulls the rest after them.
    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        const int ca = g.vertex(a).work.memChannels;
        const int cb = g.vertex(b).work.memChannels;
        if (ca != cb)
            return ca > cb;
        return g.vertex(a).area.maxUtilization(cap) >
               g.vertex(b).area.maxUtilization(cap);
    });

    DevicePartition p;
    p.deviceOf.assign(n, -1);
    std::vector<ResourceVector> used(f);
    std::vector<int> ch_used(f, 0);

    for (int v : order) {
        int best_dev = -1;
        double best_cost = std::numeric_limits<double>::infinity();
        bool best_feasible = false;
        for (int d = 0; d < f; ++d) {
            ResourceVector after = used[d];
            after += g.vertex(v).area;
            bool feasible = after.fitsWithin(budget);
            double ch_frac = 0.0;
            if (opt.channelsPerDevice > 0) {
                ch_frac = static_cast<double>(
                              ch_used[d] + g.vertex(v).work.memChannels) /
                          opt.channelsPerDevice;
                if (ch_frac > 1.0)
                    feasible = false;
            }
            double cost = 0.0;
            auto addEdgeCost = [&](EdgeId e, VertexId other) {
                const int od = p.deviceOf[other];
                if (od >= 0)
                    cost += g.edge(e).widthBits *
                            cluster.costDistance(d, od);
            };
            for (EdgeId e : g.outEdges(v))
                addEdgeCost(e, g.edge(e).dst);
            for (EdgeId e : g.inEdges(v))
                addEdgeCost(e, g.edge(e).src);
            cost += balance_scale *
                    std::max(after.maxUtilization(cap), ch_frac);
            if (!feasible) {
                cost += 1.0e12 * std::max(after.maxUtilization(budget),
                                          ch_frac);
            }
            const bool better =
                (feasible && !best_feasible) ||
                (feasible == best_feasible && cost < best_cost);
            if (better) {
                best_cost = cost;
                best_dev = d;
                best_feasible = feasible;
            }
        }
        tapacs_assert(best_dev >= 0);
        p.deviceOf[v] = best_dev;
        used[best_dev] += g.vertex(v).area;
        ch_used[best_dev] += g.vertex(v).work.memChannels;
    }
    return p;
}

/**
 * Repair channel oversubscription left by a relaxed greedy seed:
 * move memory-heavy tasks from oversubscribed devices to the device
 * with the most channel headroom that still fits the area budget.
 */
void
repairChannels(const TaskGraph &g, const Cluster &cluster,
               const InterFpgaOptions &opt, DevicePartition &p)
{
    if (opt.channelsPerDevice <= 0)
        return;
    const int n = g.numVertices();
    const int f = cluster.numDevices();
    const ResourceVector budget = deviceBudget(g, cluster, opt);

    std::vector<ResourceVector> used(f);
    std::vector<int> ch(f, 0);
    for (VertexId v = 0; v < n; ++v) {
        used[p.deviceOf[v]] += g.vertex(v).area;
        ch[p.deviceOf[v]] += g.vertex(v).work.memChannels;
    }

    for (int guard = 0; guard < 4 * n; ++guard) {
        int over = -1;
        for (int d = 0; d < f; ++d) {
            if (ch[d] > opt.channelsPerDevice) {
                over = d;
                break;
            }
        }
        if (over < 0)
            return;
        // Smallest channel user on the oversubscribed device that
        // still clears the excess (least disruptive move).
        const int excess = ch[over] - opt.channelsPerDevice;
        VertexId mover = -1;
        for (VertexId v = 0; v < n; ++v) {
            if (p.deviceOf[v] != over ||
                g.vertex(v).work.memChannels < excess) {
                continue;
            }
            if (mover < 0 || g.vertex(v).work.memChannels <
                                 g.vertex(mover).work.memChannels) {
                mover = v;
            }
        }
        if (mover < 0) {
            // No single vertex covers the excess; take the largest.
            for (VertexId v = 0; v < n; ++v) {
                if (p.deviceOf[v] != over)
                    continue;
                if (mover < 0 || g.vertex(v).work.memChannels >
                                     g.vertex(mover).work.memChannels) {
                    mover = v;
                }
            }
        }
        if (mover < 0 || g.vertex(mover).work.memChannels == 0)
            return; // nothing movable; the caller's check will fail
        int target = -1;
        for (int d = 0; d < f; ++d) {
            if (d == over)
                continue;
            if (ch[d] + g.vertex(mover).work.memChannels >
                opt.channelsPerDevice) {
                continue;
            }
            ResourceVector after = used[d];
            after += g.vertex(mover).area;
            if (!after.fitsWithin(budget))
                continue;
            if (target < 0 || ch[d] < ch[target])
                target = d;
        }
        if (target < 0)
            return;
        used[over] -= g.vertex(mover).area;
        used[target] += g.vertex(mover).area;
        ch[over] -= g.vertex(mover).work.memChannels;
        ch[target] += g.vertex(mover).work.memChannels;
        p.deviceOf[mover] = target;
    }
}

/** Single-vertex move refinement (Fiduccia-Mattheyses flavoured). */
void
refine(const TaskGraph &g, const Cluster &cluster,
       const InterFpgaOptions &opt, DevicePartition &p, Rng &rng)
{
    const int n = g.numVertices();
    const int f = cluster.numDevices();
    if (f < 2 || n == 0)
        return;
    const ResourceVector budget = deviceBudget(g, cluster, opt);

    std::vector<ResourceVector> used(f);
    std::vector<int> ch_used(f, 0);
    for (VertexId v = 0; v < n; ++v) {
        used[p.deviceOf[v]] += g.vertex(v).area;
        ch_used[p.deviceOf[v]] += g.vertex(v).work.memChannels;
    }

    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);

    const int max_passes = 8;
    for (int pass = 0; pass < max_passes; ++pass) {
        // Refinement is pure polish: an expired request stops here
        // (the compiler discards the result).
        if (opt.ctx.expired())
            return;
        for (int i = n - 1; i > 0; --i)
            std::swap(order[i], order[rng.uniformInt(0, i)]);
        bool improved = false;
        for (int v : order) {
            const int cur = p.deviceOf[v];
            auto edgeCost = [&](int d) {
                double c = 0.0;
                for (EdgeId e : g.outEdges(v)) {
                    const VertexId o = g.edge(e).dst;
                    if (o != v)
                        c += g.edge(e).widthBits *
                             cluster.costDistance(d, p.deviceOf[o]);
                }
                for (EdgeId e : g.inEdges(v)) {
                    const VertexId o = g.edge(e).src;
                    if (o != v)
                        c += g.edge(e).widthBits *
                             cluster.costDistance(p.deviceOf[o], d);
                }
                return c;
            };
            const double cur_cost = edgeCost(cur);
            for (int d = 0; d < f; ++d) {
                if (d == cur)
                    continue;
                ResourceVector after = used[d];
                after += g.vertex(v).area;
                if (!after.fitsWithin(budget))
                    continue;
                if (opt.channelsPerDevice > 0 &&
                    ch_used[d] + g.vertex(v).work.memChannels >
                        opt.channelsPerDevice) {
                    continue;
                }
                const double new_cost = edgeCost(d);
                if (new_cost + 1e-9 < cur_cost) {
                    used[cur] -= g.vertex(v).area;
                    used[d] = after;
                    ch_used[cur] -= g.vertex(v).work.memChannels;
                    ch_used[d] += g.vertex(v).work.memChannels;
                    p.deviceOf[v] = d;
                    improved = true;
                    break;
                }
            }
        }
        if (!improved)
            break;
    }
}

/** Exact assignment ILP over the (coarse) graph; paper eq. 1-2. */
ilp::Solution
solveAssignmentIlp(const TaskGraph &g, const Cluster &cluster,
                   const InterFpgaOptions &opt,
                   const DevicePartition &warm, bool *optimal,
                   ilp::SolverStats *statsOut)
{
    const int n = g.numVertices();
    const int f = cluster.numDevices();
    const ResourceVector budget = deviceBudget(g, cluster, opt);

    ilp::Model model;
    // x[v*f + d] = 1 iff vertex v sits on device d.
    std::vector<ilp::VarId> x(static_cast<size_t>(n) * f);
    for (int v = 0; v < n; ++v) {
        for (int d = 0; d < f; ++d)
            x[v * f + d] = model.addBinary(strprintf("x_%d_%d", v, d));
    }
    // One device per vertex.
    for (int v = 0; v < n; ++v) {
        ilp::LinExpr sum;
        for (int d = 0; d < f; ++d)
            sum.add(x[v * f + d], 1.0);
        model.addConstraint(std::move(sum), ilp::Sense::Equal, 1.0);
    }
    // Resource threshold per device (eq. 1).
    for (int d = 0; d < f; ++d) {
        for (int r = 0; r < kNumResourceKinds; ++r) {
            const auto kind = static_cast<ResourceKind>(r);
            ilp::LinExpr sum;
            bool any = false;
            for (int v = 0; v < n; ++v) {
                const double a = g.vertex(v).area[kind];
                if (a > 0.0) {
                    sum.add(x[v * f + d], a);
                    any = true;
                }
            }
            if (any) {
                model.addConstraint(std::move(sum),
                                    ilp::Sense::LessEqual, budget[kind]);
            }
        }
        // Physical memory-channel capacity per device.
        if (opt.channelsPerDevice > 0) {
            ilp::LinExpr chan;
            bool any = false;
            for (int v = 0; v < n; ++v) {
                const int c = g.vertex(v).work.memChannels;
                if (c > 0) {
                    chan.add(x[v * f + d], static_cast<double>(c));
                    any = true;
                }
            }
            if (any) {
                model.addConstraint(
                    std::move(chan), ilp::Sense::LessEqual,
                    static_cast<double>(opt.channelsPerDevice));
            }
        }
    }
    // Edge communication distance (eq. 2), one row per source device:
    // d_e >= sum_q D(p,q) x_vq - max_q D(p,q) (1 - x_up). At integral
    // points this is exactly d_e >= D(dev(u), dev(v)): the row of the
    // source's device binds and every other row is slack.
    ilp::LinExpr objective;
    std::vector<ilp::VarId> dvar(g.numEdges(), -1);
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &edge = g.edge(e);
        if (edge.src == edge.dst)
            continue;
        const ilp::VarId de = model.addContinuous(0.0,
                                                  strprintf("d_%d", e));
        dvar[e] = de;
        for (int pdev = 0; pdev < f; ++pdev) {
            ilp::LinExpr lhs;
            double reach = 0.0;
            for (int q = 0; q < f; ++q) {
                const double dist = cluster.costDistance(pdev, q);
                lhs.add(x[edge.dst * f + q], dist);
                reach = std::max(reach, dist);
            }
            if (reach <= 0.0)
                continue;
            lhs.add(x[edge.src * f + pdev], reach);
            lhs.add(de, -1.0);
            model.addConstraint(std::move(lhs), ilp::Sense::LessEqual,
                                reach);
        }
        objective.add(de, static_cast<double>(edge.widthBits));
    }
    model.setObjective(std::move(objective));

    // Warm start from the greedy seed.
    std::vector<double> warm_values(model.numVars(), 0.0);
    for (int v = 0; v < n; ++v)
        warm_values[x[v * f + warm.deviceOf[v]]] = 1.0;
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        if (dvar[e] < 0)
            continue;
        const Edge &edge = g.edge(e);
        warm_values[dvar[e]] = cluster.costDistance(
            warm.deviceOf[edge.src], warm.deviceOf[edge.dst]);
    }

    ilp::BranchBoundSolver solver(opt.solver);
    ilp::Solution sol = solver.solve(model, warm_values);
    if (optimal)
        *optimal = solver.stats().provenOptimal;
    if (statsOut)
        *statsOut = solver.stats();
    return sol;
}

} // namespace

const char *
toString(L1Backend backend)
{
    switch (backend) {
      case L1Backend::Exact: return "exact";
      case L1Backend::Multilevel: return "multilevel";
    }
    return "?";
}

ResourceVector
interFpgaDeviceBudget(const TaskGraph &g, const Cluster &cluster,
                      const InterFpgaOptions &opt)
{
    const ResourceVector full = cluster.device().totalResources();
    ResourceVector cap = full;
    cap *= opt.threshold;
    cap -= opt.reserved;
    // Balance the design over every device of the cluster.
    const int f = cluster.numDevices();
    if (f > 1) {
        const ResourceVector total = g.totalArea();
        for (int r = 0; r < kNumResourceKinds; ++r) {
            const auto kind = static_cast<ResourceKind>(r);
            const double share = total[kind] * kBalanceSlack / f +
                                 0.02 * full[kind];
            cap[kind] = std::min(cap[kind], share);
        }
    }
    return cap;
}

bool
checkInterFpgaInputs(const TaskGraph &g, const Cluster &cluster,
                     const InterFpgaOptions &options, InterFpgaResult *out)
{
    const int f = cluster.numDevices();
    const ResourceVector budget =
        interFpgaDeviceBudget(g, cluster, options);
    const ResourceVector total = g.totalArea();
    for (int r = 0; r < kNumResourceKinds; ++r) {
        const auto kind = static_cast<ResourceKind>(r);
        if (budget[kind] < 0.0) {
            out->feasible = false;
            out->status = Status::invalidInput(
                "reserved resources exceed the per-device budget "
                "for %s",
                toString(kind));
            return false;
        }
        const double need = total[kind];
        if (need > budget[kind] * f + 1e-9) {
            warn("design '%s' needs %.0f %s but %d device(s) offer only "
                 "%.0f under threshold %.2f — add FPGAs",
                 g.name().c_str(), need, toString(kind), f,
                 budget[kind] * f, options.threshold);
            out->feasible = false;
            out->status = Status::infeasible(
                "design '%s' needs %.0f %s but %d device(s) offer "
                "only %.0f under threshold %.2f",
                g.name().c_str(), need, toString(kind), f,
                budget[kind] * f, options.threshold);
            return false;
        }
    }
    if (options.channelsPerDevice > 0) {
        int total_ch = 0;
        for (const auto &v : g.vertices())
            total_ch += v.work.memChannels;
        if (total_ch > options.channelsPerDevice * f) {
            warn("design '%s' binds %d memory channels but %d device(s) "
                 "expose only %d", g.name().c_str(), total_ch, f,
                 options.channelsPerDevice * f);
            out->feasible = false;
            out->status = Status::infeasible(
                "design '%s' binds %d memory channels but %d "
                "device(s) expose only %d",
                g.name().c_str(), total_ch, f,
                options.channelsPerDevice * f);
            return false;
        }
    }
    return true;
}

InterFpgaResult
floorplanInterFpga(const TaskGraph &g, const Cluster &cluster,
                   const InterFpgaOptions &options)
{
    const auto t0 = clock_type::now();
    g.validate();

    const int f = cluster.numDevices();
    {
        InterFpgaResult bad;
        if (!checkInterFpgaInputs(g, cluster, options, &bad))
            return bad;
    }

    InterFpgaResult out;
    const ResourceVector budget = deviceBudget(g, cluster, options);
    Rng rng(options.seed);

    if (f == 1) {
        // One device: everything lives there.
        out.partition.deviceOf.assign(g.numVertices(), 0);
        out.coarseVertices = g.numVertices();
        out.ilpOptimal = true;
    } else if (!options.useIlp) {
        // Heuristic mode: greedy + repair + refinement.
        out.partition = greedyAssign(g, cluster, options);
        repairChannels(g, cluster, options, out.partition);
        refine(g, cluster, options, out.partition, rng);
        out.coarseVertices = g.numVertices();
    } else {
        // Multilevel: coarsen, exact-solve the coarse graph, project,
        // refine.
        ResourceVector merge_cap = budget;
        merge_cap *= 0.5; // keep coarse vertices placeable
        CoarseGraph coarse =
            coarsen(g, options.coarseLimit, merge_cap,
                    options.channelsPerDevice / 2, rng);
        out.coarseVertices = coarse.graph.numVertices();

        InterFpgaOptions copt = options;
        // The coarse ILP polls the request deadline, so an expired
        // request stops branching promptly.
        copt.solver.ctx = options.ctx;

        DevicePartition warm = greedyAssign(coarse.graph, cluster,
                                            copt);
        bool optimal = false;
        ilp::Solution sol =
            solveAssignmentIlp(coarse.graph, cluster, copt, warm,
                               &optimal, &out.solverStats);
        DevicePartition coarse_part;
        if (sol.hasSolution()) {
            coarse_part.deviceOf.resize(coarse.graph.numVertices());
            for (int v = 0; v < coarse.graph.numVertices(); ++v) {
                int assigned = -1;
                for (int d = 0; d < f; ++d) {
                    if (sol.round(v * f + d) == 1) {
                        assigned = d;
                        break;
                    }
                }
                tapacs_assert(assigned >= 0);
                coarse_part.deviceOf[v] = assigned;
            }
            out.ilpOptimal = optimal;
        } else {
            warn("inter-FPGA ILP found no solution (%s); using greedy",
                 ilp::toString(sol.status));
            coarse_part = warm;
        }

        out.partition.deviceOf.assign(g.numVertices(), 0);
        for (int cv = 0; cv < coarse.graph.numVertices(); ++cv) {
            for (VertexId v : coarse.members[cv])
                out.partition.deviceOf[v] = coarse_part.deviceOf[cv];
        }
        repairChannels(g, cluster, options, out.partition);
        refine(g, cluster, options, out.partition, rng);
    }

    if (options.channelsPerDevice > 0 && f > 1) {
        std::vector<int> ch(f, 0);
        for (VertexId v = 0; v < g.numVertices(); ++v)
            ch[out.partition.deviceOf[v]] += g.vertex(v).work.memChannels;
        for (int d = 0; d < f; ++d) {
            if (ch[d] > options.channelsPerDevice) {
                warn("partition oversubscribes device %d memory "
                     "channels (%d > %d)", d, ch[d],
                     options.channelsPerDevice);
                out.feasible = false;
                out.status = Status::infeasible(
                    "partition oversubscribes device %d memory "
                    "channels (%d > %d)",
                    d, ch[d], options.channelsPerDevice);
                out.partition.deviceOf.clear();
                return out;
            }
        }
    }

    if (!respectsThreshold(g, cluster, out.partition, options.reserved,
                           options.threshold)) {
        // The coarse solution is always threshold-feasible; projection
        // preserves it and refine() only makes feasible moves, so
        // reaching here means the instance genuinely does not fit
        // (e.g. bin-packing failed despite sufficient total area).
        warn("no threshold-feasible %d-device partition found for '%s'",
             f, g.name().c_str());
        out.feasible = false;
        out.status = Status::infeasible(
            "no threshold-feasible %d-device partition found for '%s'",
            f, g.name().c_str());
        out.partition.deviceOf.clear();
        return out;
    }

    out.cost = interFpgaCost(g, cluster, out.partition);
    out.cutTrafficBytes = interFpgaTrafficBytes(g, out.partition);
    out.elapsedSeconds =
        std::chrono::duration<double>(clock_type::now() - t0).count();
    return out;
}

} // namespace tapacs
