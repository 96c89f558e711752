/**
 * @file
 * Compile-cache microbenchmark: the four paper workloads compiled
 * cold (empty shared cache) and then warm (every solver phase served
 * from the cache), reporting wall-clock per phase pair, the speedup,
 * and the cache hit rates. The acceptance bar for the cache layer is
 * a >= 5x aggregate warm speedup with byte-identical results (the
 * byte identity itself is pinned by `tapacs-golden --check-cached`
 * and tests/test_cache.cc; this bench covers the "is it actually
 * fast" half).
 *
 * A second table times opening a disk-backed CacheStore (what every
 * fleet worker spawn pays) over directories holding 0, 1k and 10k
 * entries; the open lists only the `.tmp/` staging directory, so the
 * three medians should match. Report only, no bar.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>

#include <unistd.h>

#include "apps/cnn.hh"
#include "apps/knn.hh"
#include "apps/pagerank.hh"
#include "apps/stencil.hh"
#include "bench/bench_util.hh"
#include "cache/compile_cache.hh"
#include "common/table.hh"
#include "obs/metrics.hh"

using namespace tapacs;
using namespace tapacs::bench;

namespace
{

struct Workload
{
    std::string name;
    apps::AppDesign design;
};

/** Same configurations the golden harness pins. */
std::vector<Workload>
paperWorkloads()
{
    std::vector<Workload> out;
    out.push_back({"stencil",
                   apps::buildStencil(apps::StencilConfig::scaled(64, 2))});
    out.push_back(
        {"pagerank",
         apps::buildPageRank(apps::PageRankConfig::scaled(
             apps::pagerankDatasets()[0], 2))});
    out.push_back(
        {"knn", apps::buildKnn(apps::KnnConfig::scaled(1'000'000, 2, 2))});
    apps::CnnConfig cnn;
    cnn.rows = 4;
    cnn.cols = 4;
    cnn.numFpgas = 2;
    cnn.batch = 4;
    cnn.numBlocks = 8;
    out.push_back({"cnn", apps::buildCnn(cnn)});
    return out;
}

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Median wall time of opening a store over a directory that grows
 *  to 0, 1k and 10k planted entries. */
void
benchStoreOpen(JsonReport &report)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() /
        strprintf("tapacs-bench-store-open-%ld", static_cast<long>(getpid()));
    fs::remove_all(dir);
    cache::CacheStore::Options opt;
    opt.directory = dir.string();
    constexpr int kOpens = 51;

    TextTable table({"Entries", "Open p50 (us)"});
    cache::CacheStore planter(opt);
    std::uint64_t planted = 0;
    for (const std::uint64_t entries : {0, 1000, 10000}) {
        for (; planted < entries; ++planted)
            planter.put(cache::CacheKey{planted, ~planted},
                        std::string(64, 'e'));
        std::vector<double> opens;
        for (int i = 0; i < kOpens; ++i) {
            const auto t0 = std::chrono::steady_clock::now();
            cache::CacheStore store(opt);
            opens.push_back(
                seconds(t0, std::chrono::steady_clock::now()));
        }
        std::nth_element(opens.begin(), opens.begin() + kOpens / 2,
                         opens.end());
        const double p50 = opens[kOpens / 2];
        table.addRow({strprintf("%llu", (unsigned long long)entries),
                      strprintf("%.1f", p50 * 1e6)});
        report.add(strprintf("store_open.%llu_entries_p50_seconds",
                             (unsigned long long)entries),
                   p50);
    }
    fs::remove_all(dir);
    table.setTitle("Disk-backed CacheStore open, median of 51");
    table.print();
}

} // namespace

int
main(int argc, char **argv)
{
    JsonReport report(argc, argv);
    std::printf("=== Compile-cache microbenchmark: cold vs warm "
                "recompiles ===\n\n");

    cache::CacheStore store;
    cache::CompileCache cc(store);
    obs::MetricsRegistry::global().resetPrefix("tapacs.cache.");

    TextTable table({"Workload", "Tasks", "Cold (s)", "Warm (s)",
                     "Speedup", "Hits", "Hit rate"});
    double cold_total = 0.0, warm_total = 0.0;
    std::vector<Workload> cold_runs = paperWorkloads();
    std::vector<Workload> warm_runs = paperWorkloads();
    for (std::size_t i = 0; i < cold_runs.size(); ++i) {
        Workload &w = cold_runs[i];
        Cluster cluster = makePaperTestbed(2);
        CompileOptions opt;
        opt.mode = CompileMode::TapaCs;
        opt.numFpgas = 2;
        opt.cache = &cc;

        // Cold: the cache is empty for this workload, so every phase
        // solves for real and populates the store.
        const auto c0 = std::chrono::steady_clock::now();
        const CompileResult cold =
            compileProgram(w.design.graph, w.design.tasks, cluster, opt);
        const auto c1 = std::chrono::steady_clock::now();
        if (!cold.routable)
            fatal("%s failed to compile: %s", w.name.c_str(),
                  cold.failureReason.c_str());

        const std::int64_t hits_before =
            obs::MetricsRegistry::global().snapshot().counterValue(
                "tapacs.cache.hits");
        const std::int64_t misses_before =
            obs::MetricsRegistry::global().snapshot().counterValue(
                "tapacs.cache.misses");

        // Warm: a freshly built design (no state carried over except
        // the cache) recompiled against the populated store.
        Workload &fresh = warm_runs[i];
        const auto w0 = std::chrono::steady_clock::now();
        const CompileResult warm = compileProgram(
            fresh.design.graph, fresh.design.tasks, cluster, opt);
        const auto w1 = std::chrono::steady_clock::now();
        if (!warm.routable || warm.fmax != cold.fmax ||
            !(warm.partition == cold.partition))
            fatal("%s warm recompile diverged from cold",
                  w.name.c_str());

        const obs::MetricsSnapshot snap =
            obs::MetricsRegistry::global().snapshot();
        const std::int64_t hits =
            snap.counterValue("tapacs.cache.hits") - hits_before;
        const std::int64_t misses =
            snap.counterValue("tapacs.cache.misses") - misses_before;
        const double hit_rate =
            hits + misses > 0
                ? static_cast<double>(hits) / (hits + misses)
                : 0.0;

        const double cold_s = seconds(c0, c1);
        const double warm_s = seconds(w0, w1);
        cold_total += cold_s;
        warm_total += warm_s;
        table.addRow({w.name,
                      strprintf("%d", w.design.graph.numVertices()),
                      strprintf("%.3f", cold_s),
                      strprintf("%.4f", warm_s),
                      strprintf("%.1fx", cold_s / warm_s),
                      strprintf("%lld", static_cast<long long>(hits)),
                      strprintf("%.1f%%", 100.0 * hit_rate)});
        report.add(w.name + ".cold_seconds", cold_s);
        report.add(w.name + ".warm_seconds", warm_s);
        report.add(w.name + ".speedup", cold_s / warm_s);
        report.add(w.name + ".hit_rate", hit_rate);
    }
    table.setTitle("Four paper workloads, 2 FPGAs, shared cache");
    table.print();

    const double speedup = cold_total / warm_total;
    std::printf("\naggregate: cold %.3f s, warm %.4f s, speedup "
                "%.1fx (bar: >= 5x)\n",
                cold_total, warm_total, speedup);
    report.add("aggregate.speedup", speedup);

    std::printf("\n");
    benchStoreOpen(report);

    if (speedup < 5.0) {
        std::fprintf(stderr,
                     "FAIL: warm recompile speedup %.1fx is below the "
                     "5x acceptance bar\n",
                     speedup);
        return 1;
    }
    return 0;
}
