/**
 * @file
 * tapacs-serve — the serving front end: a manifest of compile requests
 * through the supervisor (serve/supervisor), one typed outcome each.
 *
 * By default every request runs in an out-of-process worker: a worker
 * crash, hang, or deadline overrun is detected, the worker is
 * restarted (bounded backoff, quarantine past the restart limit) and
 * the request re-dispatched — deterministic compiles plus the
 * content-addressed disk cache make the retry bit-identical, so
 * at-least-once execution still yields exactly-once typed outcomes.
 * With --in-process the supervisor's slot threads run the requests
 * themselves, against one shared compile cache (the --cache-dir disk
 * tier, else the process-wide one), and hold the session's completed
 * results as base= candidates for incremental= requests.
 *
 * Both executors share the queue-level contract: a bounded queue that
 * sheds or blocks, bounded retries of DEADLINE_EXCEEDED/INTERNAL
 * outcomes, a circuit breaker, per-request deadlines (a positive one
 * aborts a late request with DEADLINE_EXCEEDED, 0 picks the greedy
 * tier), and the journal. With --journal, every
 * admission is durable before it can execute: a killed supervisor
 * restarted on the same journal replays completed requests from their
 * stored outcomes and re-runs incomplete ones. Run with a journal and
 * no manifest to drain a previous run's leftovers.
 *
 * SIGTERM/SIGINT drain gracefully: in-flight requests finish, queued
 * and not-yet-admitted ones resolve with a typed RESOURCE_EXHAUSTED
 * "deferred" outcome but keep their journal begin records for the
 * next run.
 *
 * Usage:
 *   tapacs-serve [MANIFEST] [--in-process] [--workers N]
 *                [--cache-dir DIR] [--journal PATH] [--worker-exe PATH]
 *                [--repeat N] [--deadline-ms N] [--max-queue N]
 *                [--block-on-full] [--retries N]
 *                [--breaker-threshold N] [--replay] [--retain N]
 *                [--heartbeat-timeout-ms N] [--restart-limit N]
 *                [--dispatch-attempts N] [--chaos-seed N] [--strict]
 *
 *   --in-process            run requests on the supervisor's own
 *                           threads instead of worker processes
 *   --workers N             slots: worker processes, or threads with
 *                           --in-process (default 2)
 *   --cache-dir D           shared disk cache (retries reuse every
 *                           artifact a dead worker published)
 *   --journal P             durable request journal (crash recovery)
 *   --worker-exe P          worker binary (default: this binary via
 *                           TAPACS_WORKER_EXE / /proc/self/exe)
 *   --repeat N              global multiplier on every request
 *   --deadline-ms N         default deadline for requests without
 *                           their own deadline_ms=; 0 = the greedy
 *                           tier (no ILP, reported degraded),
 *                           negative = none (the default)
 *   --max-queue N           waiting-queue bound; submissions beyond it
 *                           are shed with RESOURCE_EXHAUSTED (0 =
 *                           unbounded, the default)
 *   --block-on-full         block submission instead of shedding
 *                           (backpressure)
 *   --retries N             extra executions after DEADLINE_EXCEEDED /
 *                           INTERNAL, with bounded exponential backoff
 *   --breaker-threshold N   consecutive failures that open the circuit
 *                           breaker (0 = disabled)
 *   --replay                edit-trace replay: wait for every outcome
 *                           before the next submission, so each
 *                           incremental=1 base=NAME request finds its
 *                           base already retained (--in-process)
 *   --retain N              keep up to N completed routable results as
 *                           base= candidates (default 64; 0 = none,
 *                           every incremental request compiles cold)
 *   --heartbeat-timeout-ms  silence budget before a worker is
 *                           declared dead (default 1000)
 *   --restart-limit N       worker restarts per slot before
 *                           quarantine (default 4)
 *   --dispatch-attempts N   dispatches per request before a typed
 *                           failure (default 3)
 *   --chaos-seed N          seeded fault-injection plan over the
 *                           worker processes (tests/CI only)
 *   --strict                exit 1 if any manifest line was malformed
 *                           or any request's typed outcome is a
 *                           failure (default: exit 0 whenever every
 *                           request resolved exactly once)
 *
 * A numeric flag whose value does not parse completely or falls
 * outside its range exits 2.
 *
 * Worker mode (internal; spawned by the supervisor):
 *   tapacs-serve --worker [--heartbeat-ms=N] [--cache-dir=D]
 *                [--fault=SPEC]
 * speaks the serve/wire frame protocol on fds 0 (in) and 3 (out).
 */

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "cli_flags.hh"
#include "common/frame.hh"
#include "common/logging.hh"
#include "common/units.hh"
#include "obs/metrics.hh"
#include "serve/chaos.hh"
#include "serve/manifest.hh"
#include "serve/supervisor.hh"
#include "serve/worker.hh"

using namespace tapacs;

namespace
{

constexpr char kTool[] = "tapacs-serve";

volatile std::sig_atomic_t gDrainRequested = 0;

void
onSignal(int)
{
    gDrainRequested = 1;
}

/** The flags: most land straight in the supervisor's options, so
 *  their defaults are FleetOptions' own. */
struct CliOptions
{
    std::string manifest;
    int repeat = 1;
    bool replay = false;
    std::optional<std::uint64_t> chaosSeed;
    bool strict = false;
    serve::FleetOptions fleet;
};

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: tapacs-serve [MANIFEST] [--in-process] [--workers N] "
        "[--cache-dir DIR] [--journal PATH] [--worker-exe PATH] "
        "[--repeat N] [--deadline-ms N] [--max-queue N] "
        "[--block-on-full] [--retries N] "
        "[--breaker-threshold N] [--replay] [--retain N] "
        "[--heartbeat-timeout-ms N] [--restart-limit N] "
        "[--dispatch-attempts N] [--chaos-seed N] [--strict]\n"
        "       tapacs-serve --worker [--heartbeat-ms=N] "
        "[--cache-dir=D] [--fault=SPEC]\n");
    std::exit(2);
}

/** Internal --worker mode: flags are `--key=value` (the supervisor
 *  builds the argv; no human types these). */
int
workerMain(int argc, char **argv)
{
    serve::WorkerConfig config;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--worker")
            continue;
        const std::size_t eq = arg.find('=');
        if (eq == std::string::npos) {
            std::fprintf(stderr, "worker: bad flag '%s'\n",
                         arg.c_str());
            return 2;
        }
        const std::string key = arg.substr(0, eq);
        const std::string value = arg.substr(eq + 1);
        if (key == "--heartbeat-ms") {
            config.heartbeatPeriodSeconds =
                cli::realFlag(kTool, key, value, 1.0e-3, 3.6e6) /
                1000.0;
        } else if (key == "--cache-dir") {
            config.cacheDir = value;
        } else if (key == "--fault") {
            if (!serve::decodeWorkerFault(value, &config.fault)) {
                std::fprintf(stderr, "worker: bad fault '%s'\n",
                             value.c_str());
                return 2;
            }
        } else {
            std::fprintf(stderr, "worker: unknown flag '%s'\n",
                         key.c_str());
            return 2;
        }
    }
    return serve::runWorker(config);
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opt;
    serve::FleetOptions &fleet = opt.fleet;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                usage();
            return argv[i];
        };
        auto count = [&](std::int64_t lo, std::int64_t hi) {
            return static_cast<int>(
                cli::intFlag(kTool, arg, next(), lo, hi));
        };
        if (arg == "--in-process")
            fleet.inProcess = true;
        else if (arg == "--workers")
            fleet.workers = count(1, 64);
        else if (arg == "--cache-dir")
            fleet.cacheDir = next();
        else if (arg == "--journal")
            fleet.journalPath = next();
        else if (arg == "--worker-exe")
            fleet.workerExe = next();
        else if (arg == "--repeat")
            // Mirrors the manifest's per-request repeat cap, so the
            // combined repeat (64-bit below) can never overflow.
            opt.repeat = count(1, 10'000);
        else if (arg == "--deadline-ms") {
            const double ms =
                cli::realFlag(kTool, arg, next(), -1.0e9, 1.0e9);
            fleet.defaultDeadlineSeconds = ms < 0.0 ? -1.0 : ms / 1000.0;
        } else if (arg == "--max-queue")
            fleet.maxQueue = count(0, 1'000'000);
        else if (arg == "--block-on-full")
            fleet.blockOnFull = true;
        else if (arg == "--retries")
            fleet.maxRetries = count(0, 100);
        else if (arg == "--breaker-threshold")
            fleet.breakerThreshold = count(0, 1'000'000);
        else if (arg == "--replay")
            opt.replay = true;
        else if (arg == "--retain")
            fleet.retainResults = count(0, 1'000'000);
        else if (arg == "--heartbeat-timeout-ms")
            fleet.heartbeatTimeoutSeconds =
                cli::realFlag(kTool, arg, next(), 1.0, 3.6e6) / 1000.0;
        else if (arg == "--restart-limit")
            fleet.restartLimit = count(0, 1000);
        else if (arg == "--dispatch-attempts")
            fleet.maxDispatchAttempts = count(1, 1000);
        else if (arg == "--chaos-seed")
            opt.chaosSeed =
                cli::intFlag(kTool, arg, next(), 0, INT64_MAX);
        else if (arg == "--strict")
            opt.strict = true;
        else if (arg == "--help" || arg == "-h")
            usage();
        else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage();
        } else if (opt.manifest.empty())
            opt.manifest = arg;
        else
            usage();
    }
    if (opt.manifest.empty() && fleet.journalPath.empty()) {
        std::fprintf(stderr, "need a MANIFEST, a --journal with "
                             "leftovers to replay, or both\n");
        usage();
    }
    if (fleet.inProcess && opt.chaosSeed) {
        std::fprintf(stderr, "--chaos-seed faults worker processes; "
                             "--in-process has none\n");
        std::exit(2);
    }
    return opt;
}

/** One table row plus its reason/delta/explore/note lines; id 0 is a
 *  shed submission, never admitted and so never journaled. */
void
printRow(const serve::FleetOutcome &f)
{
    const serve::ServeOutcome &o = f.outcome;
    const char *label = !o.status.ok() ? toString(o.status.code())
                        : o.degraded   ? "degraded"
                                       : "ok";
    std::printf(
        "%-6s %-20s %-18s %4d %2s %6d %9.3f %12s %14s %12s %016llx\n",
        f.id == 0 ? "-" : std::to_string(f.id).c_str(),
        o.name.empty() ? "-" : o.name.c_str(), label,
        f.dispatchAttempts, f.replayed ? "R" : "-", o.tasks,
        o.seconds, o.routable ? formatFrequency(o.fmax).c_str() : "-",
        o.routable ? formatBytes(o.cutTrafficBytes).c_str() : "-",
        o.simulated ? formatSeconds(o.simMakespan).c_str() : "-",
        (unsigned long long)o.resultDigest);
    if (!o.failureReason.empty())
        std::printf("  reason: %s\n", o.failureReason.c_str());
    if (!o.deltaSummary.empty())
        std::printf("  delta: %s\n", o.deltaSummary.c_str());
    if (o.explored)
        std::printf("  explore: %d point(s), %d on the frontier, "
                    "cache hit rate %.1f%%\n",
                    o.explorePoints, o.exploreFrontier,
                    100.0 * o.exploreHitRate);
    if (o.degradedReason.find("incremental:") != std::string::npos)
        std::printf("  note:  %s\n", o.degradedReason.c_str());
}

void
printMetrics(const obs::MetricsSnapshot &snap, const char *prefix)
{
    const obs::MetricsSnapshot part = snap.filterPrefix(prefix);
    if (!part.counters.empty() || !part.gauges.empty())
        std::printf("\n%s", part.renderTable().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--worker") == 0)
            return workerMain(argc, argv);

    CliOptions opt = parseArgs(argc, argv);
    serve::FleetOptions &fleet = opt.fleet;

    serve::ParsedManifest manifest;
    if (!opt.manifest.empty()) {
        std::string text;
        if (!readFile(opt.manifest, &text).ok()) {
            std::fprintf(stderr, "cannot open manifest '%s'\n",
                         opt.manifest.c_str());
            return 2;
        }
        manifest = serve::parseManifest(text);
        for (const serve::ManifestDiagnostic &d : manifest.diagnostics)
            std::fprintf(stderr, "%s:%d: %s\n", opt.manifest.c_str(),
                         d.line, d.message.c_str());
        if (manifest.requests.empty() && fleet.journalPath.empty()) {
            std::fprintf(stderr,
                         "manifest '%s' contains no usable requests\n",
                         opt.manifest.c_str());
            return opt.strict || manifest.diagnostics.empty() ? 2 : 0;
        }
    }

    std::int64_t executions = 0;
    for (const serve::Request &req : manifest.requests)
        executions += static_cast<std::int64_t>(req.repeat) * opt.repeat;
    if (opt.chaosSeed) {
        fleet.chaos = serve::randomPlan(
            *opt.chaosSeed, fleet.workers,
            static_cast<int>(std::max<std::int64_t>(executions, 1)));
        inform("tapacs-serve: chaos seed %llu armed",
               (unsigned long long)*opt.chaosSeed);
    }

    // Graceful drain on SIGTERM/SIGINT: the handler only sets a flag;
    // the submit and wait loops below turn it into requestDrain().
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_handler = onSignal;
    sigaction(SIGTERM, &action, nullptr);
    sigaction(SIGINT, &action, nullptr);

    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    serve::Supervisor supervisor(fleet);
    Status st = supervisor.start();
    if (!st.ok()) {
        std::fprintf(stderr, "tapacs-serve: %s\n",
                     st.message().c_str());
        return 2;
    }

    inform("tapacs-serve: %zu replayed/resubmitted from journal, "
           "%lld manifest execution(s), %d %s",
           supervisor.admitted(), (long long)executions, fleet.workers,
           fleet.inProcess ? "in-process slot(s)" : "worker(s)");

    bool drained = false;
    auto drainOnSignal = [&]() {
        if (gDrainRequested && !drained) {
            inform("tapacs-serve: draining (signal); queued requests "
                   "defer to the journal");
            supervisor.requestDrain();
            drained = true;
        }
    };
    // Copies are submitted one by one so a shed copy gets its own
    // typed row. After a drain request every submission resolves at
    // once as deferred, journaled for the next run.
    std::vector<serve::FleetOutcome> shed;
    for (const serve::Request &req : manifest.requests) {
        serve::Request one = req;
        one.repeat = 1;
        const std::int64_t copies =
            static_cast<std::int64_t>(req.repeat) * opt.repeat;
        for (std::int64_t c = 0; c < copies; ++c) {
            drainOnSignal();
            st = supervisor.submit(one);
            if (st.code() == StatusCode::ResourceExhausted) {
                shed.emplace_back();
                shed.back().outcome.name = one.name;
                shed.back().outcome.status = st;
                shed.back().outcome.failureReason = st.message();
                continue;
            }
            if (!st.ok()) {
                std::fprintf(stderr, "tapacs-serve: submit '%s': %s\n",
                             one.name.c_str(), st.message().c_str());
                return 2;
            }
            // Replay serializes the trace: every request finishes
            // before the next is submitted, so a later incremental=
            // request always finds its base= result already retained.
            // A signal lands once the request in flight is done.
            if (opt.replay)
                supervisor.drain();
        }
    }
    // Interruptible wait: returns the moment the last outcome lands,
    // and checks for a signal at least every 20 ms so it turns into a
    // drain request promptly.
    while (!supervisor.waitForCompletion(0.02))
        drainOnSignal();
    std::vector<serve::FleetOutcome> outcomes = supervisor.finish();
    outcomes.insert(outcomes.end(), shed.begin(), shed.end());
    const double wall =
        std::chrono::duration<double>(clock::now() - t0).count();

    std::printf(
        "%-6s %-20s %-18s %4s %2s %6s %9s %12s %14s %12s %16s\n", "id",
        "request", "status", "disp", "rp", "tasks", "seconds", "fmax",
        "cut", "sim", "digest");
    int failures = 0;
    for (const serve::FleetOutcome &f : outcomes) {
        if (!f.outcome.status.ok())
            ++failures;
        printRow(f);
    }
    std::printf("\n%zu outcome(s) in %.3fs wall; %d failure(s), %zu "
                "shed, %d worker(s) quarantined%s\n",
                outcomes.size(), wall, failures,
                shed.size(), supervisor.quarantinedWorkers(),
                drained ? "; drained early (journal holds deferred "
                          "requests)"
                        : "");

    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::global().snapshot();
    printMetrics(snap, "tapacs.serve.");
    printMetrics(snap, "tapacs.fleet.");
    printMetrics(snap, "tapacs.cache.");
    auto counter = [&](const char *name) -> std::int64_t {
        return snap.hasCounter(name) ? snap.counterValue(name) : 0;
    };
    const std::int64_t hits = counter("tapacs.cache.hits");
    const std::int64_t misses = counter("tapacs.cache.misses");
    if (hits + misses > 0)
        std::printf("cache hit rate: %.1f%% (%lld/%lld)\n",
                    100.0 * static_cast<double>(hits) /
                        static_cast<double>(hits + misses),
                    (long long)hits, (long long)(hits + misses));

    if (opt.strict && (failures > 0 || !manifest.clean()))
        return 1;
    return 0;
}
