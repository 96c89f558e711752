/**
 * @file
 * perfbench — the repository's end-to-end and per-layer benchmark.
 *
 * One process runs one workload for a fixed measuring time and prints,
 * as its last stdout line, one JSON object:
 *
 *   {"correct": B, "attempted": N, "failed": N, "metrics": {...}}
 *
 * With --trace 0 the metrics are the end-to-end set (kEndToEnd); with
 * --trace 1 they are the per-layer set (kPerLayer), recorded from the
 * benchmark's own spans around its calls into each layer plus the
 * counters public results and the metrics registry already expose.
 * The system is driven only through public entry points: the apps
 * builders, compileProgram/recompileProgram, partition::solveL1,
 * sim::trySimulate, explore::runExplore, serve::Supervisor and
 * serve::RequestJournal. See README.md next to this file for the
 * workloads and the layer -> end-to-end map; run.py builds and runs it.
 *
 * Usage:
 *   perfbench --workload paper-f4|edit-sweep|serve-burst|cluster-l1
 *             --seed N --seconds S --trace 0|1 --tmp DIR
 *             [--serve-exe PATH] [--trace-out FILE]
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include "apps/cnn.hh"
#include "apps/knn.hh"
#include "apps/pagerank.hh"
#include "apps/stencil.hh"
#include "apps/synth.hh"
#include "cache/compile_cache.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "compiler/compiler.hh"
#include "explore/explore.hh"
#include "graph/serialize.hh"
#include "hls/synthesis.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "partition/multilevel.hh"
#include "serve/execute.hh"
#include "serve/journal.hh"
#include "serve/manifest.hh"
#include "serve/supervisor.hh"
#include "sim/dataflow_sim.hh"

using namespace tapacs;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr double kMiB = 1024.0 * 1024.0;

// ---------------------------------------------------------------------
// Metric catalogue. Must match BENCHMARK.json (run.py checks it).

struct MetricDef
{
    const char *name;
    const char *unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"compile_s", "s"},
    {"loop_s", "s"},
    {"request_p50_s", "s"},
    {"request_p80_s", "s"},
    {"throughput_rps", "1/s"},
    {"cut_geo_mib", "MiB"},
    {"peak_rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"hls.synth_s", "s"},
    {"floorplan.l1_s", "s"},
    {"floorplan.l2_s", "s"},
    {"compiler.other_s", "s"},
    {"compiler.recompile_s", "s"},
    {"ilp.l1_nodes", "count"},
    {"ilp.l1_pivots", "count"},
    {"ilp.l1_proven", "frac"},
    {"ilp.l2_nodes", "count"},
    {"ilp.l2_pivots", "count"},
    {"ilp.l2_proven", "frac"},
    {"ilp.pivot_us", "us"},
    {"sim.s", "s"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.makespan_geo_ms", "sim_ms"},
    {"timing.fmax_geo_mhz", "MHz"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.hit_rate", "frac"},
    {"explore.sweep_s", "s"},
    {"explore.point_p50_s", "s"},
    {"partition.l1_s", "s"},
    {"partition.fm_moves", "count"},
    {"partition.levels", "count"},
    {"partition.replicas", "count"},
    {"partition.cut_width_bits", "bits"},
    {"serve.exec_p50_s", "s"},
    {"serve.overhead_p50_s", "s"},
    {"serve.first_outcome_s", "s"},
    {"serve.journal_append_s", "s"},
    {"fleet.dispatches", "count"},
    {"fleet.redispatches", "count"},
    {"fleet.worker_spawns", "count"},
    {"fleet.worker_deaths", "count"},
    {"trace.loop_s", "s"},
    {"trace.spans", "count"},
    {"trace.probe_s", "s"},
};

// ---------------------------------------------------------------------
// Statistics.

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** Geometric mean of the positive entries (0 when there are none). */
double
geomean(const std::vector<double> &v)
{
    double logSum = 0.0;
    int n = 0;
    for (double x : v) {
        if (x > 0.0) {
            logSum += std::log(x);
            ++n;
        }
    }
    return n == 0 ? 0.0 : std::exp(logSum / n);
}

/** Reset this process's peak-RSS mark (a no-op where the kernel does
 *  not allow it: the mark then covers the whole process). */
void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** This process's peak RSS since the last reset, in MB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    }
    return 0.0;
}

/** Largest peak RSS of any reaped child process (the fleet's
 *  workers), in MB. */
double
childrenPeakRssMb()
{
    struct rusage kids{};
    getrusage(RUSAGE_CHILDREN, &kids);
    return static_cast<double>(kids.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------
// In-memory spans around the benchmark's own calls into each layer.

class SpanLog
{
  public:
    explicit SpanLog(bool on) : on_(on), epoch_(Clock::now()) {}

    /** Open a span; returns its id (-1 when tracing is off). */
    int
    open(const char *layer, std::string name, int parent)
    {
        if (!on_)
            return -1;
        spans_.push_back({layer, std::move(name), nowUs(), 0.0, parent});
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    close(int id)
    {
        if (id >= 0)
            spans_[id].durUs = nowUs() - spans_[id].startUs;
    }

    std::size_t size() const { return spans_.size(); }

    /** Chrome trace_event JSON, one complete event per span. */
    bool
    write(const std::string &path) const
    {
        std::ofstream out(path, std::ios::binary);
        if (!out)
            return false;
        out << "{\"traceEvents\":[\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << strprintf("{\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                             "\"cat\":\"%s\",\"name\":\"%s\","
                             "\"ts\":%.3f,\"dur\":%.3f,"
                             "\"args\":{\"id\":%zu,\"parent\":%d}}",
                             s.layer, obs::jsonEscape(s.name).c_str(),
                             s.startUs, s.durUs, i, s.parent)
                << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        out << "]}\n";
        return static_cast<bool>(out);
    }

  private:
    struct Span
    {
        const char *layer;
        std::string name;
        double startUs;
        double durUs;
        int parent;
    };

    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         epoch_)
            .count();
    }

    bool on_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// One benchmark run: arguments, failure tally, samples, result.

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string tmpDir;
    std::string serveExe;
    std::string traceOut;
};

class Run
{
  public:
    explicit Run(const Args &args) : args(args), spans(args.trace) {}

    const Args &args;
    SpanLog spans;

    /** Time @p fn under a span; returns its wall seconds. */
    template <class Fn>
    double
    timed(const char *layer, std::string name, int parent, Fn &&fn)
    {
        const int id = spans.open(layer, std::move(name), parent);
        const auto t0 = Clock::now();
        fn();
        const double s = secondsSince(t0);
        spans.close(id);
        return s;
    }

    /** Count one operation; a false @p ok is a failure, reported. */
    void
    check(bool ok, const std::string &what)
    {
        ++attempted_;
        if (!ok) {
            ++failed_;
            std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
        }
    }

    /** A deterministic effort count that did not repeat: the run is
     *  incorrect whatever else it measured. */
    void
    nondeterministic(const std::string &what)
    {
        deterministic_ = false;
        std::fprintf(stderr, "perfbench: NONDETERMINISTIC: %s\n",
                     what.c_str());
    }

    /** Per-iteration sample of a metric; finish() aggregates it unless
     *  set() gave the metric its value. */
    void
    sample(const std::string &name, double value)
    {
        samples_[name].push_back(value);
    }

    /** One iteration's request latencies: its p50 and p80 become the
     *  iteration's request_p50_s / request_p80_s samples. */
    void
    requests(const std::vector<double> &latencies)
    {
        sample("request_p50_s", quantile(latencies, 0.5));
        sample("request_p80_s", quantile(latencies, 0.8));
        requestCount_ += latencies.size();
    }

    void set(const std::string &name, double value) { values_[name] = value; }

    /** Print the result line. */
    void
    finish()
    {
        // The host's speed drifts by tens of percent over seconds, so
        // end-to-end wall times report the run's fast iterations: the
        // 10th percentile over iterations (the 90th for throughput).
        // Everything else is the median over iterations.
        static const std::set<std::string> kFastest = {
            "compile_s", "loop_s", "trace.loop_s", "request_p50_s",
            "request_p80_s"};
        for (const auto &[name, v] : samples_) {
            if (values_.count(name))
                continue;
            if (kFastest.count(name))
                values_[name] = quantile(v, 0.1);
            else if (name == "throughput_rps")
                values_[name] = quantile(v, 0.9);
            else
                values_[name] = median(v);
        }
        values_["trace.spans"] = static_cast<double>(spans.size());
        std::printf("requests: %zu latency samples\n", requestCount_);
        std::string metrics;
        const bool traced = args.trace;
        auto emit = [&](const MetricDef &m) {
            const auto it = values_.find(m.name);
            const double v = it == values_.end() ? 0.0 : it->second;
            if (!metrics.empty())
                metrics += ", ";
            metrics += strprintf("\"%s\": {\"value\": %.17g, "
                                 "\"unit\": \"%s\"}",
                                 m.name, v, m.unit);
        };
        if (traced) {
            for (const MetricDef &m : kPerLayer)
                emit(m);
        } else {
            for (const MetricDef &m : kEndToEnd)
                emit(m);
        }
        if (traced && !args.traceOut.empty() &&
            !spans.write(args.traceOut)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         args.traceOut.c_str());
        }
        const bool correct = failed_ == 0 && deterministic_;
        std::printf("failed_frac: %.6f (%ld of %ld operations)\n",
                    attempted_ ? double(failed_) / double(attempted_)
                               : 0.0,
                    failed_, attempted_);
        std::printf("{\"correct\": %s, \"attempted\": %ld, "
                    "\"failed\": %ld, \"metrics\": {%s}}\n",
                    correct ? "true" : "false", attempted_, failed_,
                    metrics.c_str());
        std::fflush(stdout);
    }

  private:
    long attempted_ = 0;
    long failed_ = 0;
    std::size_t requestCount_ = 0;
    bool deterministic_ = true;
    std::map<std::string, std::vector<double>> samples_;
    std::map<std::string, double> values_;
};

/**
 * Pins the calling thread to one usable core at a time; the destructor
 * restores the full mask. On a shared VM the cores' speeds differ by up
 * to 40% and change within seconds, and the scheduler keeps a busy
 * thread where it started, so an unpinned run measures whichever core
 * it landed on; pinning successive units of work to successive cores
 * makes every run sample every core. Threads and processes created
 * while pinned inherit the pin, so work that spawns them (the fleet)
 * is not pinned, and the pool is started before any pin.
 */
class CoreRotation
{
  public:
    CoreRotation()
    {
        CPU_ZERO(&usable_);
        if (sched_getaffinity(0, sizeof(usable_), &usable_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &usable_))
                cores_.push_back(c);
        }
    }

    ~CoreRotation()
    {
        if (!cores_.empty())
            sched_setaffinity(0, sizeof(usable_), &usable_);
    }

    CoreRotation(const CoreRotation &) = delete;
    CoreRotation &operator=(const CoreRotation &) = delete;

    /** Pin to the @p k-th usable core (mod their count). */
    void
    pin(std::size_t k)
    {
        if (cores_.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cores_[k % cores_.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

  private:
    cpu_set_t usable_;
    std::vector<int> cores_;
};

/**
 * Run @p setup at least @p minReps times and until two seconds have
 * passed (setup_s = the median), then iterations of @p iter until
 * --seconds of loop time have passed (at least @p minIters). Records
 * loop_s (or trace.loop_s) and the iteration's peak RSS per iteration
 * (setup's transient peak is not part of the loop). With @p rotateCores,
 * setup repetition and iteration i run pinned to the i-th core (see
 * CoreRotation).
 */
void
measure(Run &run, int minReps, const std::function<void()> &setup,
        int minIters, const std::function<void(int, int)> &iter,
        bool rotateCores)
{
    CoreRotation rotation;
    std::vector<double> setups;
    const int span = run.spans.open("bench", "setup", -1);
    const auto s0 = Clock::now();
    while (static_cast<int>(setups.size()) < minReps ||
           secondsSince(s0) < 2.0) {
        if (rotateCores)
            rotation.pin(setups.size());
        const auto r0 = Clock::now();
        setup();
        setups.push_back(secondsSince(r0));
    }
    run.spans.close(span);
    run.set("setup_s", median(setups));
    // Hand setup's freed heap back to the kernel, so the loop's peak RSS
    // is the loop's memory, not what setup's allocator happened to keep.
    malloc_trim(0);

    const auto t0 = Clock::now();
    int i = 0;
    do {
        if (rotateCores)
            rotation.pin(i);
        const int id = run.spans.open("bench", strprintf("iter.%d", i), -1);
        resetPeakRss();
        const auto it0 = Clock::now();
        iter(i, id);
        run.sample(run.args.trace ? "trace.loop_s" : "loop_s",
                   secondsSince(it0));
        run.sample("peak_rss_mb", peakRssMb());
        run.spans.close(id);
        ++i;
    } while (i < minIters || secondsSince(t0) < run.args.seconds);
    std::printf("iterations: %d in %.3f s\n", i, secondsSince(t0));
}

/** Value of a registry counter (0 when never registered). */
std::int64_t
counter(const char *name)
{
    return obs::MetricsRegistry::global().counter(name).value();
}

/** Cache traffic of the process's stores across one iteration. */
struct CacheProbe
{
    std::int64_t hits0 = counter("tapacs.cache.hits");
    std::int64_t misses0 = counter("tapacs.cache.misses");

    std::int64_t hits() const { return counter("tapacs.cache.hits") - hits0; }
    std::int64_t
    misses() const
    {
        return counter("tapacs.cache.misses") - misses0;
    }

    void
    record(Run &run) const
    {
        const double h = static_cast<double>(hits());
        const double m = static_cast<double>(misses());
        run.sample("cache.hits", h);
        run.sample("cache.misses", m);
        run.sample("cache.hit_rate", h + m > 0.0 ? h / (h + m) : 0.0);
    }
};

/** Seeded Fisher-Yates order of 0..n-1. */
std::vector<int>
seededOrder(int n, std::uint64_t seed)
{
    std::vector<int> order(n);
    for (int i = 0; i < n; ++i)
        order[i] = i;
    std::mt19937_64 rng(seed);
    std::shuffle(order.begin(), order.end(), rng);
    return order;
}

// ---------------------------------------------------------------------
// Output checks shared by the compile workloads.

/** Eq. 1 recomputed from the result: every device's placed area plus
 *  its reservation stays within T x capacity. */
bool
respectsCapacity(const TaskGraph &g, const Cluster &cluster,
                 const CompileResult &r, double threshold)
{
    const ResourceVector cap = cluster.device().totalResources();
    std::vector<ResourceVector> placed(cluster.numDevices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        placed.at(r.partition.deviceOf.at(v)) += g.vertex(v).area;
    for (const ResourceVector &area : placed) {
        const ResourceVector used = area + r.reservedPerDevice;
        for (int k = 0; k < kNumResourceKinds; ++k) {
            const auto kind = static_cast<ResourceKind>(k);
            if (used[kind] > threshold * cap[kind] * (1.0 + 1e-9))
                return false;
        }
    }
    return true;
}

/** Every task fired all of its blocks. */
bool
firedAllBlocks(const TaskGraph &g, const sim::SimResult &s)
{
    if (!s.status.ok() || !s.completed ||
        static_cast<int>(s.firedBlocks.size()) != g.numVertices())
        return false;
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (s.firedBlocks[v] != g.vertex(v).work.numBlocks)
            return false;
    }
    return true;
}

/** Bytes crossing device boundaries, recomputed edge by edge. */
double
recomputedCutBytes(const TaskGraph &g, const DevicePartition &p)
{
    double bytes = 0.0;
    for (const Edge &e : g.edges()) {
        if (p.deviceOf.at(e.src) != p.deviceOf.at(e.dst))
            bytes += e.totalBytes;
    }
    return bytes;
}

/** Simulate a compiled design (the replication-expanded graph when
 *  there is one) with the program's default options. */
StatusOr<sim::SimResult>
simulateResult(const TaskGraph &g, const Cluster &cluster,
               const CompileResult &r)
{
    const TaskGraph &dg = r.replicated() ? r.expandedGraph : g;
    return sim::trySimulate(dg, cluster, r.partition, r.binding, r.pipeline,
                            r.deviceFmax);
}

/** Per-layer compile numbers of one CompileResult, summed into the
 *  iteration's accumulators. */
struct CompileLayers
{
    double l1 = 0.0, l2 = 0.0;
    double l1Nodes = 0.0, l1Pivots = 0.0, l2Nodes = 0.0, l2Pivots = 0.0;
    double ilpSeconds = 0.0;
    int l1Solves = 0, l1Proven = 0, l2Solves = 0, l2Proven = 0;

    void
    add(const CompileResult &r)
    {
        // A reused artifact carries the time and effort of the solve
        // that produced it: count only the solves this compile ran.
        const bool l1Ran = !r.delta.l1Reused;
        const bool l2Ran = !r.delta.attempted ||
                           r.delta.devicesReused < r.delta.devicesTotal;
        l2 += r.l2Seconds;
        if (l1Ran) {
            l1 += r.l1Seconds;
            addSolve(r.l1SolverStats, &l1Nodes, &l1Pivots, &l1Solves,
                     &l1Proven);
        }
        if (l2Ran) {
            addSolve(r.l2SolverStats, &l2Nodes, &l2Pivots, &l2Solves,
                     &l2Proven);
        }
    }

    void
    addSolve(const ilp::SolverStats &st, double *nodes, double *pivots,
             int *solves, int *proven)
    {
        *nodes += static_cast<double>(st.nodesExplored);
        *pivots += static_cast<double>(st.lpIterations);
        ilpSeconds += st.wallSeconds;
        if (st.nodesExplored > 0) {
            ++*solves;
            *proven += st.provenOptimal ? 1 : 0;
        }
    }

    void
    record(Run &run) const
    {
        run.sample("floorplan.l1_s", l1);
        run.sample("floorplan.l2_s", l2);
        run.sample("ilp.l1_nodes", l1Nodes);
        run.sample("ilp.l1_pivots", l1Pivots);
        run.sample("ilp.l2_nodes", l2Nodes);
        run.sample("ilp.l2_pivots", l2Pivots);
        run.sample("ilp.l1_proven",
                   l1Solves ? double(l1Proven) / l1Solves : 0.0);
        run.sample("ilp.l2_proven",
                   l2Solves ? double(l2Proven) / l2Solves : 0.0);
        const double pivots = l1Pivots + l2Pivots;
        run.sample("ilp.pivot_us",
                   pivots > 0.0 ? ilpSeconds / pivots * 1e6 : 0.0);
    }
};

// ---------------------------------------------------------------------
// paper-f4: cold compile + simulate of the four paper designs at F4.

struct Design
{
    std::string name;
    apps::AppDesign app;
};

std::vector<Design>
paperDesigns(int fpgas)
{
    std::vector<Design> out;
    out.push_back({"stencil",
                   apps::buildStencil(apps::StencilConfig::scaled(64, fpgas))});
    out.push_back({"pagerank",
                   apps::buildPageRank(apps::PageRankConfig::scaled(
                       apps::pagerankDataset("cit-Patents"), fpgas))});
    out.push_back({"knn", apps::buildKnn(apps::KnnConfig::scaled(
                              4'000'000, 2, fpgas))});
    out.push_back({"cnn", apps::buildCnn(apps::CnnConfig::scaled(fpgas))});
    return out;
}

void
runPaperF4(Run &run)
{
    const int fpgas = 4;
    std::vector<Design> designs;
    Cluster cluster = makePaperTestbed(fpgas);
    measure(
        run, 3, [&] { designs = paperDesigns(fpgas); }, 1,
        [&](int iter, int span) {
            // One pass per run: rotate cores per design as well.
            CoreRotation rotation;
            std::size_t position = 0;
            CompileLayers layers;
            std::vector<double> compileWall, requests, makespans, fmax,
                cuts;
            double hlsS = 0.0, simS = 0.0, events = 0.0, probeS = 0.0;
            const CacheProbe cache;
            for (int d : seededOrder(static_cast<int>(designs.size()),
                                     run.args.seed * 1000003 + iter)) {
                rotation.pin(position++);
                Design work = designs[d];
                CompileOptions opt;
                opt.mode = CompileMode::TapaCs;
                opt.numFpgas = fpgas;
                opt.vitisPrePipelined = work.app.prePipelined;
                CompileResult r;
                const double c = run.timed("compiler", work.name, span, [&] {
                    r = compileProgram(work.app.graph, work.app.tasks,
                                       cluster, opt);
                });
                run.check(r.status.ok() && r.routable,
                          work.name + ": compile not routable: " +
                              r.failureReason);
                if (!r.routable)
                    continue;
                const TaskGraph &dg =
                    r.replicated() ? r.expandedGraph : work.app.graph;
                run.check(respectsCapacity(dg, cluster, r, opt.threshold),
                          work.name + ": device area over T x capacity");
                std::optional<StatusOr<sim::SimResult>> sim;
                const double sd = run.timed("sim", work.name, span, [&] {
                    sim.emplace(simulateResult(work.app.graph, cluster, r));
                });
                run.check(sim->ok() && firedAllBlocks(dg, sim->value()),
                          work.name + ": simulation incomplete");
                compileWall.push_back(c);
                requests.push_back(c + sd);
                layers.add(r);
                fmax.push_back(r.fmax / 1e6);
                cuts.push_back(r.cutTrafficBytes / kMiB);
                simS += sd;
                if (sim->ok()) {
                    makespans.push_back(sim->value().makespan * 1e3);
                    events += sim->value().stats.get("events");
                }
                if (run.args.trace) {
                    // Phase 2 of the cold compile, replayed outside the
                    // timed loop: compileProgram gives no per-phase
                    // time for it.
                    const double h = run.timed("hls", work.name, span, [&] {
                        hls::synthesizeAll(designs[d].app.tasks);
                    });
                    hlsS += h;
                    probeS += h;
                }
            }
            run.sample("compile_s", geomean(compileWall));
            run.requests(requests);
            double busy = 0.0;
            for (double q : requests)
                busy += q;
            run.sample("throughput_rps",
                       static_cast<double>(requests.size()) / busy);
            run.sample("cut_geo_mib", geomean(cuts));
            run.sample("sim.makespan_geo_ms", geomean(makespans));
            run.sample("timing.fmax_geo_mhz", geomean(fmax));
            run.sample("sim.s", simS);
            run.sample("sim.events", events);
            run.sample("sim.events_per_s", simS > 0 ? events / simS : 0.0);
            run.sample("hls.synth_s", hlsS);
            double compileTotal = 0.0;
            for (double c : compileWall)
                compileTotal += c;
            run.sample("compiler.other_s",
                       compileTotal - hlsS - layers.l1 - layers.l2);
            run.sample("trace.probe_s", probeS);
            layers.record(run);
            cache.record(run);
        },
        true);
}

// ---------------------------------------------------------------------
// edit-sweep: seeded timing-only edits, recompile + 24-point sweep over
// a warm cache.

/** A timing-only edit: scale one task's compute work. */
struct TimingEdit
{
    VertexId cnnTask = 0;
    double cnnFactor = 1.0;
    VertexId stencilTask = 0;
    double stencilFactor = 1.0;
};

VertexId
pickComputeTask(const TaskGraph &g, std::mt19937_64 &rng)
{
    std::vector<VertexId> candidates;
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (g.vertex(v).work.computeOps > 0.0)
            candidates.push_back(v);
    }
    if (candidates.empty())
        fatal("design '%s' has no compute task to edit", g.name().c_str());
    return candidates[rng() % candidates.size()];
}

explore::ExploreSpec
stencilSweepSpec()
{
    explore::ExploreSpec spec;
    spec.thresholds = {0.6, 0.7};
    spec.topologies = {TopologyKind::Ring, TopologyKind::Chain};
    spec.bindingSweeps = {false, true};
    spec.depths = {1, 2, 3};
    return spec;
}

/** What one edit produced; a repeat of the edit must match exactly. */
struct EditOutcome
{
    std::uint64_t cnnDigest = 0;
    double cnnMakespan = 0.0;
    std::string frontier;
    double simEvents = 0.0;
    std::int64_t cacheHits = 0;
    std::int64_t cacheMisses = 0;
};

void
runEditSweep(Run &run)
{
    const int fpgas = 4;
    const int kEdits = 4;
    const Cluster cluster = makePaperTestbed(fpgas);
    const explore::ExploreSpec spec = stencilSweepSpec();

    CompileOptions opt;
    opt.mode = CompileMode::TapaCs;
    opt.numFpgas = fpgas;

    apps::AppDesign cnn, stencil;
    CompileResult prior;
    cache::CacheStore store;
    cache::CompileCache sweepCache(store);
    explore::ExploreOptions eopt;
    eopt.base = opt;
    eopt.cache = &sweepCache;

    std::vector<TimingEdit> edits;
    std::map<int, EditOutcome> seen;
    const double factors[] = {0.5, 0.8, 1.25, 1.5, 2.0};

    measure(
        run, 1,
        [&] {
            cnn = apps::buildCnn(apps::CnnConfig::scaled(fpgas));
            stencil =
                apps::buildStencil(apps::StencilConfig::scaled(64, fpgas));
            apps::AppDesign base = cnn;
            prior = compileProgram(base.graph, base.tasks, cluster, opt);
            if (!prior.routable)
                fatal("edit-sweep: CNN prior unroutable: %s",
                      prior.failureReason.c_str());
            const explore::ExploreResult warm =
                explore::runExplore(stencil.graph, stencil.tasks, spec, eopt);
            if (!warm.status.ok())
                fatal("edit-sweep: warm-up sweep failed: %s",
                      warm.status.message().c_str());
            std::mt19937_64 rng(run.args.seed);
            edits.clear();
            for (int e = 0; e < kEdits; ++e) {
                TimingEdit edit;
                edit.cnnTask = pickComputeTask(cnn.graph, rng);
                edit.cnnFactor = factors[rng() % 5];
                edit.stencilTask = pickComputeTask(stencil.graph, rng);
                edit.stencilFactor = factors[rng() % 5];
                edits.push_back(edit);
            }
        },
        2 * kEdits,
        [&](int iter, int span) {
            const int e = iter % kEdits;
            const TimingEdit &edit = edits[e];
            const CacheProbe cache;
            EditOutcome out;
            CompileLayers layers;
            std::vector<double> requests, cuts, fmax, makespans;

            apps::AppDesign c = cnn;
            c.graph.vertex(edit.cnnTask).work.computeOps *= edit.cnnFactor;
            CompileResult r;
            const double rc = run.timed("compiler", "recompile.cnn", span, [&] {
                r = recompileProgram(prior, c.graph, c.tasks, cluster, opt);
            });
            run.check(r.status.ok() && r.routable,
                      "cnn recompile not routable: " + r.failureReason);
            std::optional<StatusOr<sim::SimResult>> sim;
            const double sd = run.timed("sim", "cnn", span, [&] {
                sim.emplace(simulateResult(c.graph, cluster, r));
            });
            run.check(sim->ok() && firedAllBlocks(c.graph, sim->value()),
                      "cnn simulation incomplete");
            layers.add(r);
            requests.push_back(rc + sd);
            cuts.push_back(r.cutTrafficBytes / kMiB);
            fmax.push_back(r.fmax / 1e6);
            out.cnnDigest = serve::resultDigest(r);
            if (sim->ok()) {
                out.cnnMakespan = sim->value().makespan;
                out.simEvents = sim->value().stats.get("events");
                makespans.push_back(out.cnnMakespan * 1e3);
            }

            apps::AppDesign st = stencil;
            st.graph.vertex(edit.stencilTask).work.computeOps *=
                edit.stencilFactor;
            explore::ExploreResult er;
            const double sw = run.timed("explore", "sweep.stencil", span, [&] {
                er = explore::runExplore(st.graph, st.tasks, spec, eopt);
            });
            run.check(er.status.ok() && er.trace.size() == spec.numPoints(),
                      "sweep failed: " + er.status.message());
            std::vector<double> points;
            for (const explore::PointOutcome &p : er.trace) {
                run.check(p.status.ok() && p.routable && p.simulated,
                          "sweep point " + p.point.label() +
                              " not routable and simulated");
                points.push_back(p.seconds);
                requests.push_back(p.seconds);
                cuts.push_back(p.result.cutTrafficBytes / kMiB);
                fmax.push_back(p.result.fmax / 1e6);
                if (p.simulated)
                    makespans.push_back(p.obj.latency * 1e3);
            }
            out.frontier = explore::frontierCsv(er);
            out.cacheHits = cache.hits();
            out.cacheMisses = cache.misses();

            // Same edit, same everything: outputs and effort counts.
            const auto prev = seen.find(e);
            if (prev == seen.end()) {
                seen[e] = out;
            } else {
                const EditOutcome &p = prev->second;
                run.check(p.cnnDigest == out.cnnDigest &&
                              p.cnnMakespan == out.cnnMakespan &&
                              p.frontier == out.frontier,
                          strprintf("edit %d: results differ from its "
                                    "first occurrence",
                                    e));
                if (p.simEvents != out.simEvents ||
                    p.cacheHits != out.cacheHits ||
                    p.cacheMisses != out.cacheMisses) {
                    run.nondeterministic(strprintf(
                        "edit %d: sim.events %.0f vs %.0f, cache hits "
                        "%lld vs %lld, misses %lld vs %lld",
                        e, p.simEvents, out.simEvents,
                        (long long)p.cacheHits, (long long)out.cacheHits,
                        (long long)p.cacheMisses,
                        (long long)out.cacheMisses));
                }
            }

            run.sample("compile_s", rc);
            run.sample("compiler.recompile_s", rc);
            run.requests(requests);
            run.sample("throughput_rps",
                       static_cast<double>(requests.size()) /
                           (rc + sd + sw));
            run.sample("cut_geo_mib", geomean(cuts));
            run.sample("sim.makespan_geo_ms", geomean(makespans));
            run.sample("timing.fmax_geo_mhz", geomean(fmax));
            run.sample("sim.s", sd);
            run.sample("sim.events", out.simEvents);
            run.sample("sim.events_per_s", sd > 0 ? out.simEvents / sd : 0.0);
            run.sample("explore.sweep_s", sw);
            run.sample("explore.point_p50_s", median(points));
            run.sample("compiler.other_s", rc - layers.l1 - layers.l2);
            layers.record(run);
            cache.record(run);
        },
        true);
}

// ---------------------------------------------------------------------
// serve-burst: bursts of a seeded 50-request manifest through a
// 2-worker Supervisor, each burst with a fresh journal.

struct Manifest
{
    std::string text;
    /** Per admitted copy (repeat= expanded): the manifest line it came
     *  from, and whether it is one of the burst-unique requests. */
    std::vector<std::string> lineOf;
    std::vector<bool> unique;
    std::vector<bool> expired;
    /** One of the 16 seed-independent paper-workload requests. */
    std::vector<bool> core;
};

/**
 * The seeded manifest. Fixed mix: 16 paper workloads at F1 (TAPA) to
 * F4 (one simulated per workload), 5 deadline_ms=0, 4 mode=vitis, 5
 * solver=multilevel, 5 repeat=2, and 10 small F1-T stencil/pagerank
 * requests with a burst-unique threshold= and scale= that no earlier
 * burst used. The seed picks the parameters within each class and the
 * order within it; the classes are interleaved evenly, so where slow
 * requests queue does not depend on the seed. @p burst selects the
 * unique values; @p once drops repeat= (the cold warm-up).
 */
Manifest
makeManifest(std::uint64_t seed, int burst, bool once = false)
{
    enum Class { Core, Expired, Vitis, Multilevel, Repeat, Unique, kClasses };
    static const char *const kWorkloads[] = {"stencil", "pagerank", "knn",
                                             "cnn"};
    struct Line
    {
        std::string text;
        int copies;
        Class cls;
    };
    std::mt19937_64 rng(seed);
    std::vector<Line> lines;
    auto add = [&](Class cls, const std::string &body, int copies) {
        if (once)
            copies = 1;
        lines.push_back({strprintf("request r%02zu %s%s", lines.size(),
                                   body.c_str(),
                                   copies > 1 ? " repeat=2" : ""),
                         copies, cls});
    };
    for (const char *w : kWorkloads) {
        const int simulated = 1 + int(rng() % 4);
        for (int f = 1; f <= 4; ++f) {
            add(Core,
                strprintf("workload=%s fpgas=%d mode=%s simulate=%d", w, f,
                          f == 1 ? "tapa" : "tapacs", f == simulated),
                1);
        }
    }
    // Each class of five covers every workload once plus a seeded
    // fifth, so the seed varies the mix without swinging its cost.
    auto classWorkload = [&](int i) {
        return kWorkloads[i < 4 ? i : int(rng() % 4)];
    };
    for (int i = 0; i < 5; ++i)
        add(Expired,
            strprintf("workload=%s fpgas=%d deadline_ms=0",
                      classWorkload(i), 2 + int(rng() % 3)),
            1);
    for (const char *w : kWorkloads)
        add(Vitis, strprintf("workload=%s fpgas=1 mode=vitis", w), 1);
    for (int i = 0; i < 5; ++i)
        add(Multilevel,
            strprintf("workload=%s fpgas=%d solver=multilevel replicate=%d",
                      classWorkload(i), 2 + int(rng() % 2),
                      int(rng() % 2)),
            1);
    for (int i = 0; i < 5; ++i)
        add(Repeat,
            strprintf("workload=%s fpgas=%d", classWorkload(i),
                      1 + int(rng() % 3)),
            2);
    // Burst-unique requests: a never-seen threshold forces fresh L2
    // solves (cache writes); scale= alone changes only the work
    // profile, which compile-cache keys exclude.
    std::mt19937_64 urng(seed ^ (0x9e3779b97f4a7c15ull * (burst + 1)));
    const double base = std::uniform_real_distribution<double>(0, 1)(urng);
    for (int i = 0; i < 10; ++i) {
        const double frac =
            std::fmod(base + (burst * 10 + i) * 0.6180339887498949, 1.0);
        add(Unique,
            strprintf("workload=%s fpgas=1 mode=tapa threshold=%.6f "
                      "scale=%d",
                      kWorkloads[i % 2], 0.6 + 0.15 * frac,
                      8 + int(urng() % 64)),
            1);
    }

    // Seeded order within each class; class members spread evenly.
    std::vector<std::pair<double, std::size_t>> keyed;
    for (int cls = 0; cls < kClasses; ++cls) {
        std::vector<std::size_t> members;
        for (std::size_t i = 0; i < lines.size(); ++i) {
            if (lines[i].cls == cls)
                members.push_back(i);
        }
        std::shuffle(members.begin(), members.end(), rng);
        for (std::size_t k = 0; k < members.size(); ++k) {
            keyed.push_back({(k + 0.5) / members.size() + cls * 1e-6,
                             members[k]});
        }
    }
    std::sort(keyed.begin(), keyed.end());

    Manifest m;
    for (const auto &[key, idx] : keyed) {
        const Line &line = lines[idx];
        m.text += line.text + "\n";
        for (int c = 0; c < line.copies; ++c) {
            m.lineOf.push_back(line.text);
            m.unique.push_back(line.cls == Unique);
            m.expired.push_back(line.cls == Expired);
            m.core.push_back(line.cls == Core);
        }
    }
    return m;
}

/** One burst's observations. */
struct Burst
{
    double wall = 0.0;
    std::vector<serve::FleetOutcome> outcomes;
    /** Seconds from burst start to each outcome, by outcome index. */
    std::vector<double> latency;
    std::vector<serve::RequestJournal::Record> journal;
    bool journalExactlyOnce = true;
};

Burst
runBurst(Run &run, const Manifest &m, const std::string &cacheDir,
         const std::string &journalPath, int parent)
{
    Burst b;
    const serve::ParsedManifest parsed = serve::parseManifest(m.text);
    if (!parsed.clean())
        fatal("serve-burst: generated manifest rejected at line %d: %s",
              parsed.diagnostics[0].line,
              parsed.diagnostics[0].message.c_str());

    serve::FleetOptions fo;
    fo.workers = 2;
    fo.workerExe = run.args.serveExe;
    fo.cacheDir = cacheDir;
    fo.journalPath = journalPath;

    const int span = run.spans.open("serve", "burst", parent);
    const auto t0 = Clock::now();
    serve::Supervisor sup(fo);
    const Status st = sup.start();
    if (!st.ok())
        fatal("serve-burst: supervisor start: %s", st.message().c_str());
    for (const serve::Request &req : parsed.requests) {
        const Status s = sup.submit(req);
        if (!s.ok())
            fatal("serve-burst: submit: %s", s.message().c_str());
    }
    // Completion times: the k-th outcome lands when completedCount()
    // reaches k. The journal's end records are appended just before
    // each completion, in the same order, which maps k back to an id.
    const std::size_t total = sup.admitted();
    std::vector<double> doneAt;
    while (doneAt.size() < total) {
        const std::size_t done = sup.completedCount();
        const double now = secondsSince(t0);
        while (doneAt.size() < done)
            doneAt.push_back(now);
        if (doneAt.size() < total)
            std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    b.journal = serve::RequestJournal::scan(journalPath).records;
    b.outcomes = sup.finish();
    b.wall = secondsSince(t0);
    run.spans.close(span);

    // id -> admission index: a fresh journal numbers admissions from 1.
    b.latency.assign(b.outcomes.size(), -1.0);
    std::map<std::uint64_t, int> begins, ends;
    std::size_t k = 0;
    for (const auto &rec : b.journal) {
        (rec.end ? ends : begins)[rec.id]++;
        if (rec.end && rec.id >= 1 && rec.id <= b.outcomes.size() &&
            k < doneAt.size())
            b.latency[rec.id - 1] = doneAt[k++];
    }
    for (std::size_t i = 0; i < b.outcomes.size(); ++i) {
        const std::uint64_t id = b.outcomes[i].id;
        if (begins[id] != 1 || ends[id] != 1)
            b.journalExactlyOnce = false;
        if (b.latency[i] < 0.0)
            b.latency[i] = b.wall;
    }
    return b;
}

void
runServeBurst(Run &run)
{
    const std::string cacheDir = run.args.tmpDir + "/serve-cache";
    std::map<std::string, std::uint64_t> setupDigest;
    const char *kFleet[] = {"tapacs.fleet.dispatches",
                            "tapacs.fleet.redispatches",
                            "tapacs.fleet.worker_spawns",
                            "tapacs.fleet.worker_deaths"};

    measure(
        run, 1,
        [&] {
            // Cold burst with every distinct line once (concurrent cold
            // copies of one request would race their time-capped
            // solves), then the full manifest: its digests are what
            // every later burst must reproduce from the warm cache.
            runBurst(run, makeManifest(run.args.seed, 0, true), cacheDir,
                     run.args.tmpDir + "/setup-cold.journal", -1);
            const Manifest m = makeManifest(run.args.seed, 0);
            const Burst b = runBurst(run, m, cacheDir,
                                     run.args.tmpDir + "/setup.journal", -1);
            for (std::size_t i = 0; i < b.outcomes.size(); ++i) {
                const serve::ServeOutcome &o = b.outcomes[i].outcome;
                if (!o.status.ok())
                    fatal("serve-burst: setup request %s failed: %s",
                          o.name.c_str(), o.status.toString().c_str());
                setupDigest[m.lineOf[i]] = o.resultDigest;
            }
        },
        3,
        [&](int iter, int span) {
            const Manifest m = makeManifest(run.args.seed, iter + 1);
            std::int64_t fleet0[4];
            for (int f = 0; f < 4; ++f)
                fleet0[f] = counter(kFleet[f]);
            const std::string journal = strprintf(
                "%s/burst-%d.journal", run.args.tmpDir.c_str(), iter);
            const Burst b = runBurst(run, m, cacheDir, journal, span);

            run.check(b.outcomes.size() == m.lineOf.size(),
                      strprintf("burst %d: %zu outcomes for %zu requests",
                                iter, b.outcomes.size(), m.lineOf.size()));
            run.check(b.journalExactlyOnce,
                      strprintf("burst %d: journal not exactly-once", iter));
            std::vector<double> exec, overhead, cuts, fmax, makespans;
            for (std::size_t i = 0;
                 i < std::min(b.outcomes.size(), m.lineOf.size()); ++i) {
                const serve::ServeOutcome &o = b.outcomes[i].outcome;
                const std::string &line = m.lineOf[i];
                bool ok = o.status.ok() && o.routable;
                if (m.expired[i])
                    ok = ok && o.degraded;
                if (!m.unique[i])
                    ok = ok && setupDigest.count(line) &&
                         setupDigest[line] == o.resultDigest;
                run.check(ok, strprintf("burst %d: %s -> %s%s", iter,
                                        line.c_str(),
                                        o.status.toString().c_str(),
                                        o.routable ? "" : " unroutable"));
                exec.push_back(o.seconds);
                overhead.push_back(b.latency[i] - o.seconds);
                if (m.core[i] && o.cutTrafficBytes > 0.0)
                    cuts.push_back(o.cutTrafficBytes / kMiB);
                if (o.fmax > 0.0)
                    fmax.push_back(o.fmax / 1e6);
                if (o.simulated)
                    makespans.push_back(o.simMakespan * 1e3);
            }
            run.requests(b.latency);
            run.sample("compile_s", median(exec));
            run.sample("throughput_rps",
                       static_cast<double>(b.outcomes.size()) / b.wall);
            run.sample("cut_geo_mib", geomean(cuts));
            run.sample("timing.fmax_geo_mhz", geomean(fmax));
            run.sample("sim.makespan_geo_ms", geomean(makespans));
            run.sample("serve.exec_p50_s", median(exec));
            run.sample("serve.overhead_p50_s", median(overhead));
            run.sample("serve.first_outcome_s",
                       *std::min_element(b.latency.begin(), b.latency.end()));
            for (int f = 0; f < 4; ++f) {
                run.sample(std::string(kFleet[f]).substr(7),
                           static_cast<double>(counter(kFleet[f]) -
                                               fleet0[f]));
            }
            if (run.args.trace) {
                // Journal appends as the supervisor makes them (fsync'd
                // records with this burst's payloads), outside the
                // timed burst.
                const std::string probe = journal + ".probe";
                std::vector<double> appends;
                run.sample("trace.probe_s",
                           run.timed("serve", "journal.probe", span, [&] {
                    serve::RequestJournal j(probe);
                    if (!j.open().ok())
                        fatal("serve-burst: cannot open %s", probe.c_str());
                    for (const auto &rec : b.journal) {
                        const auto a0 = Clock::now();
                        const Status s =
                            rec.end ? j.appendEnd(rec.id, rec.payload)
                                    : j.appendBegin(rec.id, rec.payload);
                        appends.push_back(secondsSince(a0));
                        if (!s.ok())
                            fatal("serve-burst: journal append: %s",
                                  s.message().c_str());
                    }
                }));
                run.sample("serve.journal_append_s", median(appends));
            }
            std::remove(journal.c_str());
            std::remove((journal + ".probe").c_str());
        },
        false);
    // The workers do the compiling: report the larger of this process
    // (last burst) and any worker process of the run.
    run.set("peak_rss_mb", std::max(peakRssMb(), childrenPeakRssMb()));
}

// ---------------------------------------------------------------------
// cluster-l1: multilevel level-1 partitioning of synthetic graphs.

void
runClusterL1(Run &run)
{
    const int fpgas = 8;
    const Cluster cluster(makeU55C(), Topology(TopologyKind::Mesh2D, fpgas));
    const int kModules[] = {5000, 20000};
    std::vector<std::string> texts;
    std::map<int, std::pair<std::int64_t, double>> seen; // fm moves, cut

    measure(
        run, 3,
        [&] {
            texts.clear();
            for (int n : kModules) {
                texts.push_back(serializeTaskGraph(
                    apps::buildSynthetic(apps::SynthConfig::scaled(n, 3))
                        .graph));
            }
        },
        3,
        [&](int iter, int span) {
            std::vector<double> wall, cuts;
            double l1 = 0.0, fm = 0.0, levels = 0.0, replicas = 0.0,
                   widthBits = 0.0;
            for (int i : seededOrder(2, run.args.seed * 7919 + iter)) {
                TaskGraph g;
                InterFpgaResult r;
                const std::int64_t fm0 = counter("tapacs.partition.fm_moves");
                double solveS = 0.0;
                const double w = run.timed(
                    "partition", strprintf("synth-%d", kModules[i]), span,
                    [&] {
                        const Status st = tryParseTaskGraph(texts[i], &g);
                        if (!st.ok())
                            fatal("cluster-l1: parse: %s",
                                  st.message().c_str());
                        InterFpgaOptions io;
                        io.backend = L1Backend::Multilevel;
                        io.replicate = true;
                        io.channelsPerDevice =
                            cluster.device().memory().channels;
                        const auto s0 = Clock::now();
                        r = partition::solveL1(g, cluster, io);
                        solveS = secondsSince(s0);
                    });
                const std::int64_t moves =
                    counter("tapacs.partition.fm_moves") - fm0;
                const double cut = recomputedCutBytes(g, r.partition);
                run.check(r.feasible && r.status.ok(),
                          strprintf("synth-%d infeasible", kModules[i]));
                run.check(cut == r.cutTrafficBytes,
                          strprintf("synth-%d: recomputed cut %.17g != "
                                    "reported %.17g",
                                    kModules[i], cut, r.cutTrafficBytes));
                const auto prev = seen.find(i);
                if (prev == seen.end()) {
                    seen[i] = {moves, cut};
                } else if (prev->second.first != moves ||
                           prev->second.second != cut) {
                    run.nondeterministic(strprintf(
                        "synth-%d: fm_moves %lld vs %lld",
                        kModules[i], (long long)prev->second.first,
                        (long long)moves));
                }
                wall.push_back(w);
                cuts.push_back(r.cutTrafficBytes / kMiB);
                l1 += solveS;
                fm += static_cast<double>(moves);
                levels += r.levels;
                replicas += r.replication.totalReplicas();
                widthBits += interFpgaCutWidthBits(g, r.partition);
            }
            double total = 0.0;
            for (double w : wall)
                total += w;
            run.requests(wall);
            run.sample("compile_s", geomean(wall));
            run.sample("throughput_rps", wall.size() / total);
            run.sample("cut_geo_mib", geomean(cuts));
            run.sample("partition.l1_s", l1);
            run.sample("partition.fm_moves", fm);
            run.sample("partition.levels", levels);
            run.sample("partition.replicas", replicas);
            run.sample("partition.cut_width_bits", widthBits);
        },
        true);
}

// ---------------------------------------------------------------------

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload paper-f4|edit-sweep|"
                 "serve-burst|cluster-l1 --seed N --seconds S "
                 "--trace 0|1 --tmp DIR [--serve-exe PATH] "
                 "[--trace-out FILE]\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage();
        const std::string v = argv[++i];
        if (arg == "--workload")
            a.workload = v;
        else if (arg == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            a.seconds = std::atof(v.c_str());
        else if (arg == "--trace")
            a.trace = v == "1";
        else if (arg == "--tmp")
            a.tmpDir = v;
        else if (arg == "--serve-exe")
            a.serveExe = v;
        else if (arg == "--trace-out")
            a.traceOut = v;
        else
            usage();
    }
    if (a.workload.empty() || a.tmpDir.empty() || a.seconds <= 0.0)
        usage();
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    // The benchmark measures the program's defaults: no inherited
    // engine, tracing or cache overrides.
    for (const char *var : {"TAPACS_SIM_ENGINE", "TAPACS_TRACE",
                            "TAPACS_CACHE_DIR", "TAPACS_CACHE_BYTES",
                            "TAPACS_WORKER_EXE"})
        unsetenv(var);

    // Start the pool's workers before any iteration pins this thread
    // (they would inherit the pin).
    ThreadPool::defaultPool();

    Run run(args);
    if (args.workload == "paper-f4")
        runPaperF4(run);
    else if (args.workload == "edit-sweep")
        runEditSweep(run);
    else if (args.workload == "serve-burst") {
        if (args.serveExe.empty())
            usage();
        runServeBurst(run);
    } else if (args.workload == "cluster-l1")
        runClusterL1(run);
    else
        usage();

    run.finish();
    return 0;
}
