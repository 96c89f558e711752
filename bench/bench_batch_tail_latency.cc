/**
 * @file
 * Tail latency of the serving supervisor under an adversarial mix:
 * the greedy tier (deadline 0), tight deadlines (50 ms), no
 * deadlines, and oversized graphs, all drained through one
 * serve::Supervisor whose slot threads execute the requests
 * in-process.
 *
 * Reports p50/p99 request latency per class and overall, plus the
 * degraded and deadline_exceeded counts. Both are typed outcomes; any
 * other failure is fatal. The acceptance bar is the serving contract
 * itself: *no* deadline-carrying request may run past its deadline
 * plus a fixed grace (the compile flow polls its deadline in every
 * solver loop, so an expired request must unwind quickly instead of
 * wedging a worker). Exit is nonzero when any request overstays.
 *
 * With --fleet the same supervisor dispatches to worker processes
 * instead: one worker process per slot, the same typed-outcome and
 * deadline contract enforced across a process boundary. The worker
 * binary comes from $TAPACS_WORKER_EXE (ctest/CI point it at the
 * built tapacs-serve); without it the bench falls back to the
 * in-process executor with a note, so the acceptance gate never
 * depends on environment wiring.
 *
 * Usage: bench_batch_tail_latency [--threads N] [--fleet]
 *                                 [--json PATH]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "common/table.hh"
#include "serve/manifest.hh"
#include "serve/supervisor.hh"

using namespace tapacs;
using namespace tapacs::bench;

namespace
{

/** Grace allowed past an expired deadline: the distance between two
 *  deadline poll points, with slack for sanitizer and loaded-CI
 *  builds. */
constexpr double kGraceSeconds = 2.0;

serve::Request
request(const std::string &name, const std::string &workload, int fpgas,
        double deadlineMs, std::int64_t scale = 0)
{
    serve::Request req;
    req.name = name;
    req.workload = workload;
    req.fpgas = fpgas;
    req.mode = CompileMode::TapaCs;
    req.deadlineMs = deadlineMs;
    req.scale = scale;
    return req;
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const double rank = p * (sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - lo;
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

} // namespace

int
main(int argc, char **argv)
{
    JsonReport report(argc, argv);
    int threads = 4;
    bool fleet = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
            threads = std::atoi(argv[i + 1]);
        if (std::strcmp(argv[i], "--fleet") == 0)
            fleet = true;
    }
    if (fleet) {
        const char *exe = std::getenv("TAPACS_WORKER_EXE");
        if (exe == nullptr || *exe == '\0') {
            std::printf("note: --fleet requested but "
                        "TAPACS_WORKER_EXE is unset; running the "
                        "in-process executor instead\n");
            fleet = false;
        }
    }

    // The adversarial mix. "Oversized" graphs are the scale knob
    // cranked far past the paper configurations, with a tight
    // deadline, so the full tier cannot possibly finish and the abort
    // must come back promptly.
    std::vector<serve::Request> mix;
    for (int i = 0; i < 8; ++i) {
        mix.push_back(request("greedy" + std::to_string(i), "stencil",
                              4, 0.0));
        mix.push_back(request("tight" + std::to_string(i), "pagerank",
                              4, 50.0));
        mix.push_back(request("big" + std::to_string(i), "knn", 4,
                              50.0, 50'000'000));
        mix.push_back(request("open" + std::to_string(i), "stencil", 2,
                              -1.0));
    }

    serve::FleetOptions fopt;
    fopt.workers = threads;
    fopt.inProcess = !fleet;
    serve::Supervisor supervisor(fopt);
    const Status started = supervisor.start();
    if (!started.ok())
        fatal("supervisor start failed: %s", started.message().c_str());
    for (const serve::Request &req : mix)
        if (!supervisor.submit(req).ok())
            fatal("submission unexpectedly shed");
    supervisor.drain();
    std::vector<serve::ServeOutcome> outcomes;
    for (serve::FleetOutcome &f : supervisor.finish())
        outcomes.push_back(std::move(f.outcome));

    // Bucket latencies by request class (the name prefix).
    const char *classes[] = {"greedy", "tight", "big", "open"};
    std::vector<double> all;
    int degraded = 0;
    int deadlineExceeded = 0;
    int overstayed = 0;
    TextTable table({"class", "n", "p50 ms", "p99 ms", "max ms",
                 "degraded", "deadline_exceeded"});
    for (const char *cls : classes) {
        std::vector<double> lat;
        int classDegraded = 0;
        int classExceeded = 0;
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            if (mix[i].name.rfind(cls, 0) != 0)
                continue;
            const serve::ServeOutcome &o = outcomes[i];
            const bool exceeded =
                o.status.code() == StatusCode::DeadlineExceeded;
            if (!o.status.ok() && !exceeded)
                fatal("request '%s' lost its typed result: %s",
                      o.name.c_str(), o.failureReason.c_str());
            lat.push_back(o.seconds);
            all.push_back(o.seconds);
            classDegraded += o.degraded ? 1 : 0;
            classExceeded += exceeded ? 1 : 0;
            const double budget = mix[i].deadlineMs / 1000.0;
            if (mix[i].deadlineMs >= 0.0 &&
                o.seconds > budget + kGraceSeconds) {
                warn("request '%s' overstayed: %.3fs against a %.3fs "
                     "deadline (+%.1fs grace)",
                     o.name.c_str(), o.seconds, budget, kGraceSeconds);
                ++overstayed;
            }
        }
        degraded += classDegraded;
        deadlineExceeded += classExceeded;
        table.addRow({cls, strprintf("%zu", lat.size()),
                      strprintf("%.2f", percentile(lat, 0.50) * 1e3),
                      strprintf("%.2f", percentile(lat, 0.99) * 1e3),
                      strprintf("%.2f",
                                *std::max_element(lat.begin(),
                                                  lat.end()) *
                                    1e3),
                      strprintf("%d", classDegraded),
                      strprintf("%d", classExceeded)});
        report.add(std::string(cls) + ".p50_seconds",
                   percentile(lat, 0.50));
        report.add(std::string(cls) + ".p99_seconds",
                   percentile(lat, 0.99));
    }

    std::printf("batch tail latency: %zu requests, %d %s\n\n",
                outcomes.size(), threads,
                fleet ? "worker process(es)" : "in-process slot(s)");
    std::printf("%s\n", table.render().c_str());
    std::printf("overall p50 %.2f ms  p99 %.2f ms  degraded %d/%zu  "
                "deadline_exceeded %d/%zu  overstayed %d\n",
                percentile(all, 0.50) * 1e3, percentile(all, 0.99) * 1e3,
                degraded, outcomes.size(), deadlineExceeded,
                outcomes.size(), overstayed);
    report.add("overall.p50_seconds", percentile(all, 0.50));
    report.add("overall.p99_seconds", percentile(all, 0.99));
    report.add("overall.degraded", degraded);
    report.add("overall.deadline_exceeded", deadlineExceeded);
    report.add("overall.overstayed", overstayed);

    if (overstayed > 0) {
        std::printf("\nFAIL: %d request(s) ran past deadline + %.1fs "
                    "grace\n",
                    overstayed, kGraceSeconds);
        return 1;
    }
    std::printf("\nOK: no request overstayed its deadline (+%.1fs "
                "grace)\n",
                kGraceSeconds);
    return 0;
}
