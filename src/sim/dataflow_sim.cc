#include "sim/dataflow_sim.hh"

#include <algorithm>
#include <queue>

#include "common/logging.hh"
#include "network/cluster.hh"
#include "obs/trace.hh"
#include "sim/server.hh"

namespace tapacs::sim
{

double
SimResult::deviceUtilization(DeviceId d) const
{
    tapacs_assert(d >= 0 &&
                  d < static_cast<int>(deviceComputeBusy.size()));
    if (makespan <= 0.0 || deviceTaskCount[d] == 0)
        return 0.0;
    return deviceComputeBusy[d] / makespan / deviceTaskCount[d];
}

namespace
{

/**
 * Total order on token arrivals: time, then edge id, then the
 * per-edge emission ordinal. The event order is part of the result:
 * servers serve requests in the order they are acquired, so equal-
 * time arrivals must always pop the same way.
 */
struct EventKey
{
    Seconds time = 0.0;
    EdgeId edge = -1;
    std::uint64_t seq = 0;
};

inline bool
operator>(const EventKey &a, const EventKey &b)
{
    if (a.time != b.time)
        return a.time > b.time;
    if (a.edge != b.edge)
        return a.edge > b.edge;
    return a.seq > b.seq;
}

/** Per-edge constants precomputed once per run. */
struct EdgeConst
{
    enum Kind : std::uint8_t
    {
        Local,     ///< same device: fixed FIFO latency
        IntraNode, ///< same node: netPort + store-and-forward hops
        CrossNode, ///< different nodes: serialized host-routed pipe
    };

    Kind kind = Local;
    VertexId dst = -1;
    /** Consumer firings per arriving token (>0), or -(producer blocks
     *  needed per firing) when the consumer runs coarser. */
    int credit = 1;
    /** Payload of one token (edge.totalBytes / producer blocks). */
    double bytesPerToken = 0.0;
    /** Local: (stages + balanceDepth) / fmax. */
    Seconds localLatency = 0.0;
    /** IntraNode: per-hop wire occupancy. CrossNode: the serialized
     *  three-leg host path occupancy. */
    Seconds occ = 0.0;
    /** IntraNode only: store-and-forward flight latency. */
    Seconds flight = 0.0;
    /** Flattened server index: sdev*D+ddev (IntraNode netPort) or
     *  snode*N+dnode (CrossNode nodeLink). */
    int port = -1;
};

/**
 * One simulate() call: the validated, immutable precomputation
 * (adjacency in CSR form, per-vertex durations, per-edge constants)
 * plus the mutable run state, driven by one event loop. Borrowed
 * references must outlive the object.
 */
class Simulation
{
  public:
    Simulation(const TaskGraph &g, const SimOptions &options)
        : g_(g), options_(options)
    {
    }

    /**
     * Validate inputs and precompute the run. Non-integral rate
     * ratios, memory access without channels and structural problems
     * (graph validation, size mismatches, bad channel indices) are
     * InvalidInput.
     */
    Status build(const Cluster &cluster,
                 const DevicePartition &partition,
                 const HbmBinding &binding, const PipelinePlan &plan,
                 const std::vector<Hertz> &deviceFmax);

    /** Run to completion, or until the context or the event cap stops
     *  the run (recorded in status_). */
    void run();

    /** Fold the run into @p out: fixed-order reductions,
     *  rate-consistency check, stats registry. */
    void finalize(SimResult *out);

  private:
    void applyArrival(EdgeId e);
    void fire(VertexId v, Seconds now);

    const TaskGraph &g_;
    const SimOptions &options_;
    const HbmBinding *binding_ = nullptr;

    int n_ = 0;
    int numEdges_ = 0;
    int numDevices_ = 0;
    int numNodes_ = 0;
    int channels_ = 0; ///< HBM channels per device

    std::vector<double> readPerChannel_, writePerChannel_, computeDur_;
    std::vector<int> blocksOf_;
    std::vector<DeviceId> deviceOf_;
    /** CSR adjacency: in/out edge ids of vertex v live at
     *  [inOff_[v], inOff_[v+1]) of inEdge_ (resp. outOff_/outEdge_). */
    std::vector<int> inOff_, outOff_;
    std::vector<EdgeId> inEdge_, outEdge_;
    std::vector<EdgeConst> edges_;

    /** Dense D*channels HBM channels, device-major. */
    std::vector<Server> hbm_;
    /** Vertex-indexed task datapaths. */
    std::vector<Server> datapath_;
    /** Dense D*D device-pair ports. */
    std::vector<Server> netPort_;
    /** Dense N*N node-pair pipes. */
    std::vector<Server> nodeLink_;

    std::vector<int> fired_;
    std::vector<Seconds> taskFinish_;
    std::vector<int> tokens_, rawArrivals_;
    /** Tokens emitted per edge so far: the next token's heap
     *  sequence number, and every emitted token is delivered. */
    std::vector<std::uint64_t> emitSeq_;
    std::vector<FiringRecord> timeline_;

    std::priority_queue<EventKey, std::vector<EventKey>,
                        std::greater<EventKey>>
        heap_;
    Seconds makespan_ = 0.0;
    std::uint64_t events_ = 0;
    Status status_;
};

Status
Simulation::build(const Cluster &cluster,
                  const DevicePartition &partition,
                  const HbmBinding &binding, const PipelinePlan &plan,
                  const std::vector<Hertz> &deviceFmax)
{
    const TaskGraph &g = g_;
    Status st = g.validateStatus();
    if (!st.ok())
        return st;

    const int n = g.numVertices();
    const int numEdges = g.numEdges();
    const int numDevices = cluster.numDevices();
    if (static_cast<int>(partition.deviceOf.size()) != n) {
        return Status::invalidInput(
            "partition assigns %d tasks but the graph has %d",
            static_cast<int>(partition.deviceOf.size()), n);
    }
    if (static_cast<int>(deviceFmax.size()) != numDevices) {
        return Status::invalidInput(
            "deviceFmax has %d entries for %d devices",
            static_cast<int>(deviceFmax.size()), numDevices);
    }
    for (Hertz f : deviceFmax) {
        if (!(f > 0.0))
            return Status::invalidInput(
                "deviceFmax entries must be positive, got %g", f);
    }
    if (static_cast<int>(binding.channelsOf.size()) != n) {
        return Status::invalidInput(
            "HBM binding covers %d tasks but the graph has %d",
            static_cast<int>(binding.channelsOf.size()), n);
    }
    if (static_cast<int>(plan.edges.size()) != numEdges) {
        return Status::invalidInput(
            "pipeline plan covers %d edges but the graph has %d",
            static_cast<int>(plan.edges.size()), numEdges);
    }
    for (VertexId v = 0; v < n; ++v) {
        const DeviceId d = partition.deviceOf[v];
        if (d < 0 || d >= numDevices)
            return Status::invalidInput(
                "task '%s' is assigned to device %d of %d",
                g.vertex(v).name.c_str(), d, numDevices);
    }
    for (const auto &e : g.edges()) {
        const int sb = g.vertex(e.src).work.numBlocks;
        const int db = g.vertex(e.dst).work.numBlocks;
        if (sb % db != 0 && db % sb != 0) {
            return Status::invalidInput(
                "edge %s->%s has non-integral rate ratio "
                "(%d vs %d blocks)", g.vertex(e.src).name.c_str(),
                g.vertex(e.dst).name.c_str(), sb, db);
        }
    }
    const MemorySystem &mem = cluster.device().memory();
    for (VertexId v = 0; v < n; ++v) {
        const WorkProfile &w = g.vertex(v).work;
        if ((w.memReadBytes > 0.0 || w.memWriteBytes > 0.0) &&
            w.memChannels == 0) {
            return Status::invalidInput(
                "task '%s' accesses external memory but binds no "
                "channels", g.vertex(v).name.c_str());
        }
        for (int c : binding.channelsOf[v]) {
            if (c < 0 || c >= mem.channels)
                return Status::invalidInput(
                    "task '%s' binds HBM channel %d of %d",
                    g.vertex(v).name.c_str(), c, mem.channels);
        }
    }

    binding_ = &binding;
    n_ = n;
    numEdges_ = numEdges;
    numDevices_ = numDevices;
    numNodes_ = cluster.numNodes();
    channels_ = mem.channels;

    // Per-task per-block durations.
    readPerChannel_.assign(n, 0.0);
    writePerChannel_.assign(n, 0.0);
    computeDur_.assign(n, 0.0);
    blocksOf_.assign(n, 1);
    deviceOf_ = partition.deviceOf;
    for (VertexId v = 0; v < n; ++v) {
        const WorkProfile &w = g.vertex(v).work;
        const double blocks = w.numBlocks;
        const Hertz fmax = deviceFmax[partition.deviceOf[v]];
        blocksOf_[v] = w.numBlocks;
        computeDur_[v] = w.computeOps / blocks / (w.opsPerCycle * fmax);
        if (w.memChannels > 0) {
            // A kernel port moves at most width x clock bytes/s; only
            // ports at the saturating width running at speed reach the
            // full per-channel bandwidth (the paper's 256-bit ports
            // saturate ~51 % of an HBM bank).
            const double port_rate = w.memPortWidthBits / 8.0 * fmax;
            const double bw =
                std::min(mem.perChannelBandwidth(), port_rate);
            readPerChannel_[v] =
                w.memReadBytes / blocks / w.memChannels / bw;
            writePerChannel_[v] =
                w.memWriteBytes / blocks / w.memChannels / bw;
        }
    }

    // CSR adjacency (no per-firing inEdges()/outEdges() walks over
    // std::vector<std::vector<EdgeId>>).
    inOff_.assign(n + 1, 0);
    outOff_.assign(n + 1, 0);
    for (VertexId v = 0; v < n; ++v) {
        inOff_[v + 1] =
            inOff_[v] + static_cast<int>(g.inEdges(v).size());
        outOff_[v + 1] =
            outOff_[v] + static_cast<int>(g.outEdges(v).size());
    }
    inEdge_.reserve(inOff_[n]);
    outEdge_.reserve(outOff_[n]);
    for (VertexId v = 0; v < n; ++v) {
        for (EdgeId e : g.inEdges(v))
            inEdge_.push_back(e);
        for (EdgeId e : g.outEdges(v))
            outEdge_.push_back(e);
    }

    // Per-edge constants; tokens_ starts at the initial tokens in
    // consumer-firing units.
    edges_.assign(numEdges, EdgeConst{});
    tokens_.assign(numEdges, 0);
    for (EdgeId e = 0; e < numEdges; ++e) {
        const Edge &edge = g.edge(e);
        EdgeConst &ec = edges_[e];
        ec.dst = edge.dst;
        const DeviceId sdev = partition.deviceOf[edge.src];
        const DeviceId ddev = partition.deviceOf[edge.dst];
        const int sb = g.vertex(edge.src).work.numBlocks;
        const int db = g.vertex(edge.dst).work.numBlocks;
        // SDF-style rates in consumer-firing units: an arriving
        // producer block is worth db/sb firings when db > sb; when
        // sb > db a firing needs sb/db producer blocks, expressed as
        // a negative "need" count (applyArrival divides).
        ec.credit = db >= sb ? db / sb : -(sb / db);
        tokens_[e] = edge.initialTokens * (ec.credit > 0 ? ec.credit : 1);
        ec.bytesPerToken = edge.totalBytes / sb;
        if (sdev == ddev) {
            ec.kind = EdgeConst::Local;
            const int cycles =
                plan.edges[e].stages + plan.edges[e].balanceDepth;
            ec.localLatency = cycles / deviceFmax[sdev];
        } else if (cluster.sameNode(sdev, ddev)) {
            ec.kind = EdgeConst::IntraNode;
            const LinkModel &link = cluster.intraLink();
            const int hops = cluster.nodeTopology().dist(
                cluster.localIndex(sdev), cluster.localIndex(ddev));
            ec.occ = std::max(0.0, link.transferTime(ec.bytesPerToken) -
                                       link.baseLatency());
            ec.flight =
                hops * link.baseLatency() + (hops - 1) * ec.occ;
            ec.port = sdev * numDevices + ddev;
        } else {
            // dev -> host (PCIe), host -> host (MPI), host -> dev.
            // The hand-off is staged through host memory buffers, so
            // the three legs occupy the node-pair path serially and
            // consecutive blocks do not overlap on it — this is why
            // section 5.7's cross-node designs lose most of their
            // scaling.
            ec.kind = EdgeConst::CrossNode;
            const LinkModel &host = cluster.hostLink();
            const LinkModel &inode = cluster.interNodeLink();
            ec.occ = host.transferTime(ec.bytesPerToken) +
                     inode.transferTime(ec.bytesPerToken) +
                     host.transferTime(ec.bytesPerToken);
            ec.port = cluster.nodeOf(sdev) * numNodes_ +
                      cluster.nodeOf(ddev);
        }
    }

    hbm_.assign(numDevices * channels_, Server{});
    datapath_.assign(n, Server{});
    netPort_.assign(numDevices * numDevices, Server{});
    nodeLink_.assign(numNodes_ * numNodes_, Server{});
    fired_.assign(n, 0);
    taskFinish_.assign(n, 0.0);
    rawArrivals_.assign(numEdges, 0);
    emitSeq_.assign(numEdges, 0);
    return Status();
}

/** Book one delivered token on edge @p e into the dst's counters. */
inline void
Simulation::applyArrival(EdgeId e)
{
    const EdgeConst &ec = edges_[e];
    if (ec.credit > 0) {
        tokens_[e] += ec.credit;
    } else if (++rawArrivals_[e] % (-ec.credit) == 0) {
        // need-|credit| edge: every |credit|-th raw arrival enables
        // one consumer firing.
        ++tokens_[e];
    }
}

/**
 * Fire vertex @p v as many times as its input tokens allow, starting
 * at @p now — the one definition of the simulator's per-firing
 * semantics (read -> compute -> write -> emit). Every emitted token
 * becomes a heap event; cross-device tokens first serialize on
 * their port or node-pair pipe.
 */
void
Simulation::fire(VertexId v, Seconds now)
{
    const DeviceId dev = deviceOf_[v];
    const int numBlocks = blocksOf_[v];
    const std::vector<int> &channels = binding_->channelsOf[v];
    Server *hbm = &hbm_[dev * channels_];
    while (fired_[v] < numBlocks) {
        // All inputs must hold a token.
        bool ready = true;
        for (int i = inOff_[v]; i < inOff_[v + 1]; ++i) {
            if (tokens_[inEdge_[i]] == 0) {
                ready = false;
                break;
            }
        }
        if (!ready)
            break;
        for (int i = inOff_[v]; i < inOff_[v + 1]; ++i)
            --tokens_[inEdge_[i]];
        ++fired_[v];

        // Read from external memory across bound channels.
        Seconds read_done = now;
        if (readPerChannel_[v] > 0.0) {
            for (int c : channels) {
                read_done = std::max(
                    read_done, hbm[c].acquire(now, readPerChannel_[v]));
            }
        }
        // Compute on the task datapath.
        const Seconds compute_done =
            datapath_[v].acquire(read_done, computeDur_[v]);
        // Write back.
        Seconds write_done = compute_done;
        if (writePerChannel_[v] > 0.0) {
            for (int c : channels) {
                write_done = std::max(
                    write_done,
                    hbm[c].acquire(compute_done, writePerChannel_[v]));
            }
        }
        taskFinish_[v] = std::max(taskFinish_[v], write_done);
        makespan_ = std::max(makespan_, write_done);
        if (options_.recordTimeline) {
            timeline_.push_back({v, fired_[v] - 1, now, read_done,
                                 compute_done - computeDur_[v],
                                 compute_done, write_done});
        }

        // Emit one token per out edge.
        for (int oi = outOff_[v]; oi < outOff_[v + 1]; ++oi) {
            const EdgeId e = outEdge_[oi];
            const EdgeConst &ec = edges_[e];
            Seconds arrival;
            if (ec.kind == EdgeConst::Local) {
                arrival = write_done + ec.localLatency;
            } else {
                Server &path = ec.kind == EdgeConst::IntraNode
                                   ? netPort_[ec.port]
                                   : nodeLink_[ec.port];
                arrival = path.acquire(write_done, ec.occ) + ec.flight;
            }
            makespan_ = std::max(makespan_, arrival);
            heap_.push({arrival, e, emitSeq_[e]++});
        }
    }
}

void
Simulation::run()
{
    // Kick off the sources (and anything with zero inputs or initial
    // tokens) in vertex order before any arrival: as if each held a
    // time-0 event keyed (edge -1, seq v).
    for (VertexId v = 0; v < n_; ++v)
        fire(v, 0.0);

    const Context &ctx = options_.ctx;
    while (!heap_.empty()) {
        if ((events_ & 0xFFF) == 0 && ctx.expired()) {
            status_ = ctx.status();
            break;
        }
        if (events_ >= options_.maxEvents) {
            status_ = Status::resourceExhausted(
                "event cap exceeded (%llu) — check block counts",
                static_cast<unsigned long long>(options_.maxEvents));
            break;
        }
        const EventKey ev = heap_.top();
        heap_.pop();
        ++events_;
        applyArrival(ev.edge);
        fire(edges_[ev.edge].dst, ev.time);
    }
}

void
Simulation::finalize(SimResult *out)
{
    out->status = status_;
    out->makespan = makespan_;
    out->taskFinish = std::move(taskFinish_);
    out->firedBlocks = fired_;

    // All floating-point sums below run in a fixed index order, never
    // in event order.
    out->deviceTaskCount.assign(numDevices_, 0);
    out->deviceComputeBusy.assign(numDevices_, 0.0);
    for (VertexId v = 0; v < n_; ++v) {
        const DeviceId d = deviceOf_[v];
        ++out->deviceTaskCount[d];
        out->deviceComputeBusy[d] += computeDur_[v] * fired_[v];
    }

    double bytes = 0.0;
    for (EdgeId e = 0; e < numEdges_; ++e) {
        if (edges_[e].kind != EdgeConst::Local)
            bytes += edges_[e].bytesPerToken * emitSeq_[e];
    }
    out->interDeviceBytes = bytes;

    // Every task must have completed all its blocks. An aborted run
    // reports its partial result; a full run that falls short means
    // the graph is not rate-consistent.
    out->completed = out->status.ok();
    for (VertexId v = 0; v < n_; ++v) {
        if (fired_[v] == blocksOf_[v])
            continue;
        out->completed = false;
        if (out->status.ok()) {
            out->status = Status::invalidInput(
                "task '%s' fired %d of %d blocks — insufficient "
                "upstream tokens (graph is not rate-consistent)",
                g_.vertex(v).name.c_str(), fired_[v], blocksOf_[v]);
        }
    }

    if (options_.recordTimeline) {
        out->timeline = std::move(timeline_);
        std::sort(out->timeline.begin(), out->timeline.end(),
                  [](const FiringRecord &a, const FiringRecord &b) {
                      if (a.start != b.start)
                          return a.start < b.start;
                      if (a.task != b.task)
                          return a.task < b.task;
                      return a.block < b.block;
                  });
    }

    out->stats.set("events", static_cast<double>(events_));
    double hbm_busy = 0.0;
    for (const Server &s : hbm_) // device-major, channel-minor
        hbm_busy += s.busyTime();
    out->stats.set("hbm.busy_seconds", hbm_busy);

    std::uint64_t intra = 0, inter = 0;
    for (EdgeId e = 0; e < numEdges_; ++e) {
        if (edges_[e].kind == EdgeConst::IntraNode)
            intra += emitSeq_[e];
        else if (edges_[e].kind == EdgeConst::CrossNode)
            inter += emitSeq_[e];
    }
    if (intra > 0)
        out->stats.set("net.intra.transfers",
                       static_cast<double>(intra));
    if (inter > 0)
        out->stats.set("net.inter.transfers",
                       static_cast<double>(inter));
}

} // namespace

StatusOr<SimResult>
trySimulate(const TaskGraph &g, const Cluster &cluster,
            const DevicePartition &partition, const HbmBinding &binding,
            const PipelinePlan &plan,
            const std::vector<Hertz> &deviceFmax,
            const SimOptions &options)
{
    obs::TraceSpan sim_span("sim", "sim.run");

    Simulation sim(g, options);
    Status st = sim.build(cluster, partition, binding, plan, deviceFmax);
    if (!st.ok())
        return st;

    sim.run();
    SimResult out;
    sim.finalize(&out);

    sim_span
        .arg("events",
             static_cast<std::int64_t>(out.stats.get("events")))
        .arg("makespan_seconds", out.makespan)
        .arg("hbm_busy_seconds", out.stats.get("hbm.busy_seconds"));
    return out;
}

SimResult
simulate(const TaskGraph &g, const Cluster &cluster,
         const DevicePartition &partition, const HbmBinding &binding,
         const PipelinePlan &plan, const std::vector<Hertz> &deviceFmax,
         const SimOptions &options)
{
    StatusOr<SimResult> result = trySimulate(g, cluster, partition,
                                             binding, plan, deviceFmax,
                                             options);
    if (!result.ok())
        fatal("simulate: %s", result.status().message().c_str());
    if (!result.value().status.ok())
        fatal("simulate: %s",
              result.value().status.message().c_str());
    return result.moveValue();
}

std::string
timelineCsv(const TaskGraph &g, const SimResult &result)
{
    std::string out = "task,block,start,read_done,compute_start,"
                      "compute_done,write_done\n";
    for (const FiringRecord &r : result.timeline) {
        out += strprintf("%s,%d,%.9g,%.9g,%.9g,%.9g,%.9g\n",
                         g.vertex(r.task).name.c_str(), r.block, r.start,
                         r.readDone, r.computeStart, r.computeDone,
                         r.writeDone);
    }
    return out;
}

} // namespace tapacs::sim
