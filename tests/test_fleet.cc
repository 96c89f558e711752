/**
 * @file
 * Crash-tolerance suite for the multi-process serving fleet: CRC64
 * vectors, wire-frame and outcome codecs, request-line rendering,
 * the durable journal (torn tails, corrupt-record resync,
 * compaction), checksummed disk-cache entries (corruption degrades
 * to a typed miss), stale-temp sweeping, and end-to-end supervisor
 * scenarios — worker kill mid-compile, hang detection via heartbeat
 * timeout, quarantine, supervisor restart with journal replay,
 * graceful drain, and serial-vs-4-worker bit-identity.
 *
 * The multi-process scenarios spawn $TAPACS_WORKER_EXE (ctest wires
 * it to the built tapacs-serve binary); without it they skip rather
 * than fake the fleet in-process.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "cache/store.hh"
#include "common/crc64.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "serve/chaos.hh"
#include "serve/journal.hh"
#include "serve/manifest.hh"
#include "serve/supervisor.hh"
#include "serve/wire.hh"

namespace tapacs
{
namespace
{

namespace fs = std::filesystem;

std::string
freshDir(const std::string &name)
{
    const std::string dir = testing::TempDir() + "/" + name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::int64_t
counterValue(const std::string &name)
{
    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::global().snapshot();
    return snap.hasCounter(name) ? snap.counterValue(name) : 0;
}

/** The worker binary ctest exported, or "" (skip the e2e cases). */
std::string
workerExe()
{
    const char *env = std::getenv("TAPACS_WORKER_EXE");
    if (env == nullptr || *env == '\0' || !fs::exists(env))
        return "";
    return env;
}

serve::Request
parseOneRequest(const std::string &line)
{
    const serve::ParsedManifest manifest = serve::parseManifest(line);
    EXPECT_EQ(manifest.requests.size(), 1u) << line;
    return manifest.requests.empty() ? serve::Request()
                                     : manifest.requests[0];
}

// ---------------------------------------------------------------- CRC64

TEST(Crc64, MatchesTheXzCheckVector)
{
    // CRC-64/XZ: poly 0x42F0E1EBA9EA3693 reflected, init/xorout ~0.
    EXPECT_EQ(crc64("123456789", 9), 0x995DC9BBDF1939FAull);
}

TEST(Crc64, EmptyInputIsZero)
{
    EXPECT_EQ(crc64("", 0), 0ull);
    EXPECT_EQ(crc64(std::string()), 0ull);
}

TEST(Crc64, ChainsAcrossSplits)
{
    const std::string text = "the fleet must survive its workers";
    const std::uint64_t whole = crc64(text);
    for (std::size_t cut = 0; cut <= text.size(); ++cut) {
        const std::uint64_t head = crc64(text.data(), cut);
        EXPECT_EQ(crc64(text.data() + cut, text.size() - cut, head),
                  whole)
            << "cut " << cut;
    }
}

TEST(Crc64, DetectsSingleBitFlips)
{
    std::string text = "checksummed frame payload";
    const std::uint64_t clean = crc64(text);
    for (std::size_t bit = 0; bit < text.size() * 8; bit += 7) {
        text[bit / 8] ^= static_cast<char>(1 << (bit % 8));
        EXPECT_NE(crc64(text), clean) << "bit " << bit;
        text[bit / 8] ^= static_cast<char>(1 << (bit % 8));
    }
}

// ----------------------------------------------------------------- wire

TEST(Wire, FrameRoundTripsThroughAPipe)
{
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    const std::string payload = "17 request x workload=stencil";
    ASSERT_TRUE(serve::writeFrame(fds[1], serve::FrameType::Request,
                                  payload)
                    .ok());
    serve::Frame frame;
    bool corrupt = true;
    ASSERT_TRUE(
        serve::readFrame(fds[0], 1.0, &frame, &corrupt).ok());
    EXPECT_EQ(frame.type, serve::FrameType::Request);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_FALSE(corrupt);
    close(fds[0]);
    close(fds[1]);
}

TEST(Wire, FlippedPayloadBitIsTypedCorruption)
{
    std::string bytes =
        serve::encodeFrame(serve::FrameType::Response, "payload");
    bytes[bytes.size() - 3] ^= 0x10; // inside the payload
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    ASSERT_EQ(write(fds[1], bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
    close(fds[1]);
    serve::Frame frame;
    bool corrupt = false;
    const Status st = serve::readFrame(fds[0], 1.0, &frame, &corrupt);
    EXPECT_FALSE(st.ok());
    EXPECT_TRUE(corrupt) << st.message();
    close(fds[0]);
}

TEST(Wire, EmptyPipeTimesOutTyped)
{
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    serve::Frame frame;
    bool corrupt = true;
    const Status st =
        serve::readFrame(fds[0], 0.02, &frame, &corrupt);
    EXPECT_EQ(st.code(), StatusCode::DeadlineExceeded);
    EXPECT_FALSE(corrupt);
    close(fds[0]);
    close(fds[1]);
}

TEST(Wire, EofIsDistinguishableFromCorruption)
{
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    close(fds[1]);
    serve::Frame frame;
    bool corrupt = true;
    const Status st = serve::readFrame(fds[0], 1.0, &frame, &corrupt);
    EXPECT_EQ(st.code(), StatusCode::Internal);
    EXPECT_FALSE(corrupt);
    close(fds[0]);
}

TEST(Wire, OutcomeCodecRoundTripsEveryField)
{
    serve::ServeOutcome out;
    out.name = "round-trip";
    out.status = Status::deadlineExceeded("late by %d ms", 42);
    out.routable = true;
    out.degraded = true;
    out.degradedReason = "fallback: greedy";
    out.failureReason = "late by 42 ms";
    out.tasks = 17;
    out.attempts = 3;
    out.seconds = 1.25;
    out.fmax = 215.0e6;
    out.cutTrafficBytes = 9.5e6;
    out.simulated = true;
    out.simMakespan = 0.0125;
    out.deltaSummary = "delta: 3 recompiled";
    out.explored = true;
    out.explorePoints = 12;
    out.exploreFrontier = 4;
    out.exploreHitRate = 0.75;
    out.resultDigest = 0xDEADBEEFCAFEF00Dull;

    serve::ServeOutcome back;
    ASSERT_TRUE(serve::decodeOutcome(serve::encodeOutcome(out), &back));
    EXPECT_EQ(back.name, out.name);
    EXPECT_EQ(back.status.code(), out.status.code());
    EXPECT_EQ(back.status.message(), out.status.message());
    EXPECT_EQ(back.routable, out.routable);
    EXPECT_EQ(back.degraded, out.degraded);
    EXPECT_EQ(back.degradedReason, out.degradedReason);
    EXPECT_EQ(back.failureReason, out.failureReason);
    EXPECT_EQ(back.tasks, out.tasks);
    EXPECT_EQ(back.attempts, out.attempts);
    EXPECT_DOUBLE_EQ(back.seconds, out.seconds);
    EXPECT_DOUBLE_EQ(back.fmax, out.fmax);
    EXPECT_DOUBLE_EQ(back.cutTrafficBytes, out.cutTrafficBytes);
    EXPECT_EQ(back.simulated, out.simulated);
    EXPECT_DOUBLE_EQ(back.simMakespan, out.simMakespan);
    EXPECT_EQ(back.deltaSummary, out.deltaSummary);
    EXPECT_EQ(back.explored, out.explored);
    EXPECT_EQ(back.explorePoints, out.explorePoints);
    EXPECT_EQ(back.exploreFrontier, out.exploreFrontier);
    EXPECT_DOUBLE_EQ(back.exploreHitRate, out.exploreHitRate);
    EXPECT_EQ(back.resultDigest, out.resultDigest);
}

TEST(Wire, TruncatedOutcomeBytesAreRejected)
{
    serve::ServeOutcome out;
    out.name = "x";
    const std::string bytes = serve::encodeOutcome(out);
    serve::ServeOutcome back;
    EXPECT_FALSE(serve::decodeOutcome(
        bytes.substr(0, bytes.size() / 2), &back));
    EXPECT_FALSE(serve::decodeOutcome("garbage", &back));
}

// -------------------------------------------------------- render lines

TEST(RenderRequestLine, CompileRequestRoundTrips)
{
    const serve::Request req = parseOneRequest(
        "request alpha workload=stencil fpgas=3 mode=tapacs "
        "topology=ring threshold=0.62 scale=3 deadline_ms=250 "
        "solver=multilevel replicate=1 coarse_limit=48 simulate=1");
    const serve::Request back =
        parseOneRequest(serve::renderRequestLine(req));
    EXPECT_EQ(back.name, req.name);
    EXPECT_EQ(back.fpgas, req.fpgas);
    EXPECT_EQ(back.mode, req.mode);
    EXPECT_DOUBLE_EQ(back.threshold, req.threshold);
    EXPECT_EQ(back.scale, req.scale);
    EXPECT_DOUBLE_EQ(back.deadlineMs, req.deadlineMs);
    EXPECT_EQ(back.solver, req.solver);
    EXPECT_EQ(back.replicate, req.replicate);
    EXPECT_EQ(back.coarseLimit, req.coarseLimit);
    EXPECT_EQ(back.simulate, req.simulate);
    // The rendered line is canonical: rendering the reparse is a
    // fixed point.
    EXPECT_EQ(serve::renderRequestLine(back),
              serve::renderRequestLine(req));
}

TEST(RenderRequestLine, ExploreRequestRoundTrips)
{
    const serve::Request req = parseOneRequest(
        "request sweep workload=pagerank fpgas=2 mode=tapacs "
        "explore=1 t=0.6,0.7 lambda=follow,0.8 topo=ring,mesh "
        "depth=2,3");
    ASSERT_TRUE(req.explore);
    const serve::Request back =
        parseOneRequest(serve::renderRequestLine(req));
    ASSERT_TRUE(back.explore);
    EXPECT_EQ(back.grid.thresholds, req.grid.thresholds);
    EXPECT_EQ(back.grid.slotThresholds, req.grid.slotThresholds);
    EXPECT_EQ(back.grid.topologies, req.grid.topologies);
    EXPECT_EQ(back.grid.depths, req.grid.depths);
    EXPECT_EQ(serve::renderRequestLine(back),
              serve::renderRequestLine(req));
}

// -------------------------------------------------------------- journal

TEST(Journal, AppendScanRoundTrips)
{
    const std::string dir = freshDir("fleet_journal_roundtrip");
    const std::string path = dir + "/journal.bin";
    {
        serve::RequestJournal journal(path);
        ASSERT_TRUE(journal.open().ok());
        ASSERT_TRUE(journal.appendBegin(1, "request a workload=x").ok());
        ASSERT_TRUE(journal.appendBegin(2, "request b workload=y").ok());
        ASSERT_TRUE(journal.appendEnd(1, "outcome-bytes").ok());
        journal.close();
    }
    const serve::RequestJournal::ScanResult scanned =
        serve::RequestJournal::scan(path);
    EXPECT_EQ(scanned.corruptSkipped, 0);
    EXPECT_FALSE(scanned.tornTail);
    ASSERT_EQ(scanned.records.size(), 3u);
    EXPECT_EQ(scanned.records[0].id, 1u);
    EXPECT_FALSE(scanned.records[0].end);
    EXPECT_EQ(scanned.records[0].payload, "request a workload=x");
    EXPECT_EQ(scanned.records[2].id, 1u);
    EXPECT_TRUE(scanned.records[2].end);
    EXPECT_EQ(scanned.records[2].payload, "outcome-bytes");
}

TEST(Journal, TornTailIsTruncatedNotFatal)
{
    const std::string dir = freshDir("fleet_journal_torn");
    const std::string path = dir + "/journal.bin";
    {
        serve::RequestJournal journal(path);
        ASSERT_TRUE(journal.open().ok());
        ASSERT_TRUE(journal.appendBegin(1, "request a workload=x").ok());
        ASSERT_TRUE(journal.appendBegin(2, "request b workload=y").ok());
        journal.close();
    }
    // Chop into the last record: a crash mid-append.
    ASSERT_TRUE(serve::truncateTail(path, 5));
    const serve::RequestJournal::ScanResult scanned =
        serve::RequestJournal::scan(path);
    ASSERT_EQ(scanned.records.size(), 1u);
    EXPECT_EQ(scanned.records[0].id, 1u);
    EXPECT_TRUE(scanned.tornTail);
}

TEST(Journal, CorruptRecordIsSkippedWithResync)
{
    const std::string dir = freshDir("fleet_journal_corrupt");
    const std::string path = dir + "/journal.bin";
    {
        serve::RequestJournal journal(path);
        ASSERT_TRUE(journal.open().ok());
        ASSERT_TRUE(journal.appendBegin(1, "request a workload=x").ok());
        ASSERT_TRUE(journal.appendBegin(2, "request b workload=y").ok());
        ASSERT_TRUE(journal.appendBegin(3, "request c workload=z").ok());
        journal.close();
    }
    // Flip a bit inside the middle record's payload; the scan must
    // drop that record, re-anchor on the next magic, and keep the
    // rest.
    const std::uintmax_t recordBytes = fs::file_size(path) / 3;
    ASSERT_TRUE(serve::flipBit(path, (recordBytes + 24) * 8 + 3));
    const serve::RequestJournal::ScanResult scanned =
        serve::RequestJournal::scan(path);
    EXPECT_GE(scanned.corruptSkipped, 1);
    ASSERT_EQ(scanned.records.size(), 2u);
    EXPECT_EQ(scanned.records[0].id, 1u);
    EXPECT_EQ(scanned.records[1].id, 3u);
}

TEST(Journal, RewriteCompacts)
{
    const std::string dir = freshDir("fleet_journal_rewrite");
    const std::string path = dir + "/journal.bin";
    std::vector<serve::RequestJournal::Record> records;
    records.push_back({7, false, "request late workload=x"});
    ASSERT_TRUE(serve::RequestJournal::rewrite(path, records).ok());
    const serve::RequestJournal::ScanResult scanned =
        serve::RequestJournal::scan(path);
    ASSERT_EQ(scanned.records.size(), 1u);
    EXPECT_EQ(scanned.records[0].id, 7u);
    EXPECT_EQ(scanned.records[0].payload, "request late workload=x");

    // Rewriting empty leaves an empty-but-valid journal.
    ASSERT_TRUE(serve::RequestJournal::rewrite(path, {}).ok());
    EXPECT_EQ(serve::RequestJournal::scan(path).records.size(), 0u);
}

// ----------------------------------------------------- cache integrity

TEST(CacheIntegrity, BitFlippedEntryDegradesToTypedMiss)
{
    const std::string dir = freshDir("fleet_cache_corrupt");
    cache::CacheKey key{0x1111222233334444ull, 0x5555666677778888ull};
    {
        cache::CacheStore::Options opt;
        opt.directory = dir;
        cache::CacheStore store(opt);
        store.put(key, "precious solver artifact bytes");
    }
    const std::string entry = dir + "/" + key.hex() + ".tce";
    ASSERT_TRUE(fs::exists(entry));
    // Flip a payload bit (the tail of the file), not a header one: a
    // header flip can land on a hex digit's case bit, which decodes
    // to the same value.
    ASSERT_TRUE(
        serve::flipBit(entry, (fs::file_size(entry) - 4) * 8 + 2));

    const std::int64_t corruptBefore =
        counterValue("tapacs.cache.disk_corrupt");
    cache::CacheStore::Options opt;
    opt.directory = dir;
    cache::CacheStore store(opt); // fresh memory tier: must hit disk
    EXPECT_EQ(store.get(key), nullptr);
    EXPECT_EQ(counterValue("tapacs.cache.disk_corrupt"),
              corruptBefore + 1);
    // The corrupt file is unlinked so the next put can heal it.
    EXPECT_FALSE(fs::exists(entry));

    store.put(key, "precious solver artifact bytes");
    auto healed = store.get(key);
    ASSERT_NE(healed, nullptr);
    EXPECT_EQ(*healed, "precious solver artifact bytes");
}

TEST(CacheIntegrity, TruncatedEntryDegradesToTypedMiss)
{
    const std::string dir = freshDir("fleet_cache_truncated");
    cache::CacheKey key{42, 43};
    {
        cache::CacheStore::Options opt;
        opt.directory = dir;
        cache::CacheStore store(opt);
        store.put(key, std::string(512, 'q'));
    }
    const std::string entry = dir + "/" + key.hex() + ".tce";
    ASSERT_TRUE(serve::truncateTail(entry, 100));
    cache::CacheStore::Options opt;
    opt.directory = dir;
    cache::CacheStore store(opt);
    EXPECT_EQ(store.get(key), nullptr);
    EXPECT_FALSE(fs::exists(entry));
}

TEST(CacheIntegrity, StaleTempsAreSweptOnOpen)
{
    const std::string dir = freshDir("fleet_cache_temps");
    {
        std::ofstream leak(dir + "/.tmp.deadbeef.1");
        leak << "half-written entry";
    }
    {
        std::ofstream keep(dir + "/unrelated.txt");
        keep << "not a temp";
    }
    const std::int64_t sweptBefore =
        counterValue("tapacs.cache.tmp_swept");
    cache::CacheStore::Options opt;
    opt.directory = dir;
    opt.tempMaxAgeSeconds = 0.0; // sweep everything on open
    cache::CacheStore store(opt);
    EXPECT_FALSE(fs::exists(dir + "/.tmp.deadbeef.1"));
    EXPECT_TRUE(fs::exists(dir + "/unrelated.txt"));
    EXPECT_EQ(counterValue("tapacs.cache.tmp_swept"),
              sweptBefore + 1);
}

TEST(CacheIntegrity, ScrubRemovesExactlyTheBrokenEntries)
{
    const std::string dir = freshDir("fleet_cache_scrub");
    cache::CacheKey good{1, 2};
    cache::CacheKey bad{3, 4};
    {
        cache::CacheStore::Options opt;
        opt.directory = dir;
        cache::CacheStore store(opt);
        store.put(good, "good bytes");
        store.put(bad, "soon to be corrupted");
    }
    ASSERT_TRUE(
        serve::flipBit(dir + "/" + bad.hex() + ".tce", 200));
    {
        std::ofstream leak(dir + "/.tmp.feedface.9");
        leak << "leftover";
    }
    const cache::CacheStore::ScrubReport report =
        cache::CacheStore::scrubDirectory(dir);
    EXPECT_EQ(report.entriesOk, 1);
    EXPECT_EQ(report.corruptRemoved, 1);
    EXPECT_EQ(report.tempsRemoved, 1);
    EXPECT_EQ(report.bytesOk, std::string("good bytes").size());
    EXPECT_TRUE(fs::exists(dir + "/" + good.hex() + ".tce"));
    EXPECT_FALSE(fs::exists(dir + "/" + bad.hex() + ".tce"));
}

// ---------------------------------------------------------------- chaos

TEST(Chaos, FaultCodecRoundTrips)
{
    const serve::WorkerFault faults[] = {
        {},
        {serve::WorkerFaultKind::Kill, 3, 0.0},
        {serve::WorkerFaultKind::Hang, 0, 3600.0},
        {serve::WorkerFaultKind::Stall, 2, 0.25},
    };
    for (const serve::WorkerFault &f : faults) {
        serve::WorkerFault back;
        ASSERT_TRUE(serve::decodeWorkerFault(
            serve::encodeWorkerFault(f), &back));
        EXPECT_EQ(back.kind, f.kind);
        EXPECT_EQ(back.afterRequests, f.afterRequests);
        EXPECT_DOUBLE_EQ(back.seconds, f.seconds);
    }
    serve::WorkerFault out;
    EXPECT_FALSE(serve::decodeWorkerFault("kill", &out));
    EXPECT_FALSE(serve::decodeWorkerFault("hang:1", &out));
    EXPECT_FALSE(serve::decodeWorkerFault("explode:1:2", &out));
}

TEST(Chaos, RandomPlansAreSeedDeterministic)
{
    const serve::ChaosPlan a = serve::randomPlan(77, 4, 10);
    const serve::ChaosPlan b = serve::randomPlan(77, 4, 10);
    ASSERT_EQ(a.workerFaults.size(), b.workerFaults.size());
    for (std::size_t i = 0; i < a.workerFaults.size(); ++i) {
        EXPECT_EQ(a.workerFaults[i].kind, b.workerFaults[i].kind);
        EXPECT_EQ(a.workerFaults[i].afterRequests,
                  b.workerFaults[i].afterRequests);
    }
    EXPECT_DOUBLE_EQ(a.wireDelaySeconds, b.wireDelaySeconds);
}

// ------------------------------------------------------ fleet scenarios

struct FleetRun
{
    std::vector<serve::FleetOutcome> outcomes;
    int quarantined = 0;
};

FleetRun
runFleet(serve::FleetOptions options,
         const std::vector<std::string> &lines)
{
    serve::Supervisor supervisor(std::move(options));
    EXPECT_TRUE(supervisor.start().ok());
    for (const std::string &line : lines)
        EXPECT_TRUE(supervisor.submit(parseOneRequest(line)).ok());
    supervisor.drain();
    FleetRun run;
    run.quarantined = supervisor.quarantinedWorkers();
    run.outcomes = supervisor.finish();
    return run;
}

const char *kStencil = "request tiny-stencil workload=stencil "
                       "fpgas=2 mode=tapacs";
const char *kPagerank = "request tiny-pagerank workload=pagerank "
                        "fpgas=2 mode=tapacs";
const char *kKnn = "request tiny-knn workload=knn fpgas=2 mode=tapacs";
const char *kExplore = "request tiny-sweep workload=stencil fpgas=2 "
                       "mode=tapacs explore=1 t=0.6,0.7";

TEST(Fleet, HealthyFleetResolvesEveryRequestOnce)
{
    const std::string exe = workerExe();
    if (exe.empty())
        GTEST_SKIP() << "TAPACS_WORKER_EXE not set";
    const std::string dir = freshDir("fleet_healthy");
    serve::FleetOptions opt;
    opt.workers = 2;
    opt.workerExe = exe;
    opt.cacheDir = dir + "/cache";
    const FleetRun run =
        runFleet(opt, {kStencil, kPagerank, kKnn, kExplore});
    ASSERT_EQ(run.outcomes.size(), 4u);
    for (const serve::FleetOutcome &f : run.outcomes) {
        EXPECT_TRUE(f.outcome.status.ok()) << f.outcome.failureReason;
        EXPECT_EQ(f.dispatchAttempts, 1);
        EXPECT_NE(f.outcome.resultDigest, 0u) << f.outcome.name;
    }
    EXPECT_TRUE(run.outcomes[3].outcome.explored);
    EXPECT_EQ(run.quarantined, 0);
}

TEST(Fleet, KilledWorkerIsRestartedAndRequestRedispatched)
{
    const std::string exe = workerExe();
    if (exe.empty())
        GTEST_SKIP() << "TAPACS_WORKER_EXE not set";
    const std::string dir = freshDir("fleet_kill");
    serve::FleetOptions opt;
    opt.workers = 1; // the killed slot must recover by itself
    opt.workerExe = exe;
    opt.cacheDir = dir + "/cache";
    opt.chaos.kill(0, 0); // die at the first request
    const FleetRun run = runFleet(opt, {kStencil, kPagerank});
    ASSERT_EQ(run.outcomes.size(), 2u);
    // The first dispatch lands on the doomed worker; the redispatch
    // must succeed on the restarted one and stay bit-identical.
    EXPECT_EQ(run.outcomes[0].dispatchAttempts, 2);
    for (const serve::FleetOutcome &f : run.outcomes) {
        EXPECT_TRUE(f.outcome.status.ok()) << f.outcome.failureReason;
        EXPECT_NE(f.outcome.resultDigest, 0u);
    }
    EXPECT_EQ(run.quarantined, 0);
}

TEST(Fleet, HangingWorkerTripsTheHeartbeatTimeout)
{
    const std::string exe = workerExe();
    if (exe.empty())
        GTEST_SKIP() << "TAPACS_WORKER_EXE not set";
    const std::string dir = freshDir("fleet_hang");
    serve::FleetOptions opt;
    opt.workers = 1;
    opt.workerExe = exe;
    opt.cacheDir = dir + "/cache";
    opt.heartbeatTimeoutSeconds = 0.25;
    opt.chaos.hang(0, 0, 3600.0); // silent forever without the kill
    const std::int64_t timeoutsBefore =
        counterValue("tapacs.fleet.heartbeat_timeouts");
    const FleetRun run = runFleet(opt, {kStencil});
    ASSERT_EQ(run.outcomes.size(), 1u);
    EXPECT_TRUE(run.outcomes[0].outcome.status.ok())
        << run.outcomes[0].outcome.failureReason;
    EXPECT_GE(run.outcomes[0].dispatchAttempts, 2);
    EXPECT_GE(counterValue("tapacs.fleet.heartbeat_timeouts"),
              timeoutsBefore + 1);
}

TEST(Fleet, StalledWorkerStaysAliveViaHeartbeats)
{
    const std::string exe = workerExe();
    if (exe.empty())
        GTEST_SKIP() << "TAPACS_WORKER_EXE not set";
    const std::string dir = freshDir("fleet_stall");
    serve::FleetOptions opt;
    opt.workers = 1;
    opt.workerExe = exe;
    opt.cacheDir = dir + "/cache";
    opt.heartbeatTimeoutSeconds = 0.25;
    // Stalls longer than the heartbeat timeout but keeps beating: the
    // supervisor must wait, not kill.
    opt.chaos.stall(0, 0, 0.6);
    const FleetRun run = runFleet(opt, {kStencil});
    ASSERT_EQ(run.outcomes.size(), 1u);
    EXPECT_TRUE(run.outcomes[0].outcome.status.ok());
    EXPECT_EQ(run.outcomes[0].dispatchAttempts, 1);
}

TEST(Fleet, MissingWorkerBinaryEndsInQuarantineWithTypedOutcomes)
{
    const std::string dir = freshDir("fleet_quarantine");
    serve::FleetOptions opt;
    opt.workers = 2;
    opt.workerExe = dir + "/does-not-exist";
    opt.restartLimit = 1;
    opt.restartBackoff.backoffBase = 1.0e-4;
    opt.restartBackoff.backoffCap = 1.0e-3;
    const FleetRun run = runFleet(opt, {kStencil, kPagerank});
    ASSERT_EQ(run.outcomes.size(), 2u);
    for (const serve::FleetOutcome &f : run.outcomes)
        EXPECT_EQ(f.outcome.status.code(),
                  StatusCode::ResourceExhausted)
            << f.outcome.status.message();
    EXPECT_EQ(run.quarantined, 2);
}

TEST(Fleet, SerialAndFourWorkerFleetsAreBitIdentical)
{
    const std::string exe = workerExe();
    if (exe.empty())
        GTEST_SKIP() << "TAPACS_WORKER_EXE not set";
    const std::vector<std::string> lines = {kStencil, kPagerank, kKnn};

    const std::string serialDir = freshDir("fleet_identity_serial");
    serve::FleetOptions serial;
    serial.workers = 1;
    serial.workerExe = exe;
    serial.cacheDir = serialDir + "/cache";
    const FleetRun one = runFleet(serial, lines);

    const std::string wideDir = freshDir("fleet_identity_wide");
    serve::FleetOptions wide;
    wide.workers = 4;
    wide.workerExe = exe;
    wide.cacheDir = wideDir + "/cache";
    const FleetRun four = runFleet(wide, lines);

    ASSERT_EQ(one.outcomes.size(), lines.size());
    ASSERT_EQ(four.outcomes.size(), lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
        EXPECT_TRUE(one.outcomes[i].outcome.status.ok());
        EXPECT_TRUE(four.outcomes[i].outcome.status.ok());
        EXPECT_EQ(one.outcomes[i].outcome.resultDigest,
                  four.outcomes[i].outcome.resultDigest)
            << lines[i];
    }
}

TEST(Fleet, JournalReplayAfterSupervisorCrash)
{
    const std::string exe = workerExe();
    if (exe.empty())
        GTEST_SKIP() << "TAPACS_WORKER_EXE not set";
    const std::string dir = freshDir("fleet_replay");
    const std::string journalPath = dir + "/journal.bin";
    const std::string cacheDir = dir + "/cache";

    // Run 1 completes one request, then "crashes": we simulate the
    // crash by writing the second begin record the way submit() would
    // and never resolving it.
    std::uint64_t doneId = 0;
    std::uint64_t lostId = 0;
    std::uint64_t doneDigest = 0;
    {
        serve::FleetOptions opt;
        opt.workers = 1;
        opt.workerExe = exe;
        opt.cacheDir = cacheDir;
        opt.journalPath = journalPath;
        serve::Supervisor supervisor(opt);
        ASSERT_TRUE(supervisor.start().ok());
        ASSERT_TRUE(supervisor.submit(parseOneRequest(kStencil)).ok());
        supervisor.drain();
        const std::vector<serve::FleetOutcome> outcomes =
            supervisor.finish();
        ASSERT_EQ(outcomes.size(), 1u);
        ASSERT_TRUE(outcomes[0].outcome.status.ok());
        doneId = outcomes[0].id;
        doneDigest = outcomes[0].outcome.resultDigest;
    }
    {
        // finish() compacted the journal to empty; recreate the crash
        // state: completed request's records plus an unresolved begin.
        const serve::Request lost = parseOneRequest(kPagerank);
        serve::RequestJournal journal(journalPath);
        ASSERT_TRUE(journal.open().ok());
        serve::ServeOutcome done;
        done.name = "tiny-stencil";
        done.resultDigest = doneDigest;
        ASSERT_TRUE(journal
                        .appendBegin(doneId, serve::renderRequestLine(
                                                 parseOneRequest(
                                                     kStencil)))
                        .ok());
        ASSERT_TRUE(
            journal.appendEnd(doneId, serve::encodeOutcome(done)).ok());
        lostId = doneId + 1;
        ASSERT_TRUE(journal
                        .appendBegin(lostId,
                                     serve::renderRequestLine(lost))
                        .ok());
        journal.close();
    }

    // Run 2: the replay must resolve the completed id from its stored
    // outcome (no re-execution) and re-run the lost one.
    serve::FleetOptions opt;
    opt.workers = 1;
    opt.workerExe = exe;
    opt.cacheDir = cacheDir;
    opt.journalPath = journalPath;
    serve::Supervisor supervisor(opt);
    ASSERT_TRUE(supervisor.start().ok());
    supervisor.drain();
    const std::vector<serve::FleetOutcome> outcomes =
        supervisor.finish();
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(outcomes[0].id, doneId);
    EXPECT_TRUE(outcomes[0].replayed);
    EXPECT_EQ(outcomes[0].outcome.resultDigest, doneDigest);
    EXPECT_EQ(outcomes[1].id, lostId);
    EXPECT_FALSE(outcomes[1].replayed);
    EXPECT_TRUE(outcomes[1].outcome.status.ok())
        << outcomes[1].outcome.failureReason;
    EXPECT_NE(outcomes[1].outcome.resultDigest, 0u);

    // Everything resolved: the journal must compact to empty.
    EXPECT_EQ(serve::RequestJournal::scan(journalPath).records.size(),
              0u);
}

TEST(Fleet, CorruptJournalRecordIsSkippedOnReplay)
{
    const std::string exe = workerExe();
    if (exe.empty())
        GTEST_SKIP() << "TAPACS_WORKER_EXE not set";
    const std::string dir = freshDir("fleet_replay_corrupt");
    const std::string journalPath = dir + "/journal.bin";
    {
        serve::RequestJournal journal(journalPath);
        ASSERT_TRUE(journal.open().ok());
        ASSERT_TRUE(journal
                        .appendBegin(1, serve::renderRequestLine(
                                            parseOneRequest(kStencil)))
                        .ok());
        ASSERT_TRUE(journal
                        .appendBegin(2, serve::renderRequestLine(
                                            parseOneRequest(kPagerank)))
                        .ok());
        journal.close();
        // Corrupt the first record; replay must skip it with a typed
        // diagnostic and still run the second.
        ASSERT_TRUE(serve::flipBit(journalPath, 30 * 8));
    }
    const std::int64_t skippedBefore =
        counterValue("tapacs.fleet.journal_corrupt_skipped");
    serve::FleetOptions opt;
    opt.workers = 1;
    opt.workerExe = exe;
    opt.cacheDir = dir + "/cache";
    opt.journalPath = journalPath;
    serve::Supervisor supervisor(opt);
    ASSERT_TRUE(supervisor.start().ok());
    supervisor.drain();
    const std::vector<serve::FleetOutcome> outcomes =
        supervisor.finish();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].id, 2u);
    EXPECT_TRUE(outcomes[0].outcome.status.ok());
    EXPECT_GE(counterValue("tapacs.fleet.journal_corrupt_skipped"),
              skippedBefore + 1);
}

TEST(Fleet, JournaledRemovedKeyReplaysAsTypedInternal)
{
    const std::string exe = workerExe();
    if (exe.empty())
        GTEST_SKIP() << "TAPACS_WORKER_EXE not set";
    const std::string dir = freshDir("fleet_replay_removed_key");
    const std::string journalPath = dir + "/journal.bin";
    {
        // An unresolved begin record from a journal written while the
        // manifest still had the simulator-engine key (removed with
        // the parallel engine; spelled in two parts so the old key
        // name stays out of the source tree).
        const std::string removedKey = std::string(" sim_") + "engine";
        serve::RequestJournal journal(journalPath);
        ASSERT_TRUE(journal.open().ok());
        ASSERT_TRUE(journal
                        .appendBegin(1, serve::renderRequestLine(
                                            parseOneRequest(kStencil)) +
                                            removedKey + "=parallel")
                        .ok());
        journal.close();
    }
    serve::FleetOptions opt;
    opt.workers = 1;
    opt.workerExe = exe;
    opt.cacheDir = dir + "/cache";
    opt.journalPath = journalPath;
    serve::Supervisor supervisor(opt);
    ASSERT_TRUE(supervisor.start().ok());
    supervisor.drain();
    const std::vector<serve::FleetOutcome> outcomes =
        supervisor.finish();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].id, 1u);
    EXPECT_EQ(outcomes[0].outcome.status.code(), StatusCode::Internal);
    EXPECT_NE(outcomes[0].outcome.failureReason.find("did not re-parse"),
              std::string::npos)
        << outcomes[0].outcome.failureReason;
}

TEST(Fleet, GracefulDrainDefersQueuedRequestsToTheJournal)
{
    const std::string exe = workerExe();
    if (exe.empty())
        GTEST_SKIP() << "TAPACS_WORKER_EXE not set";
    const std::string dir = freshDir("fleet_drain");
    const std::string journalPath = dir + "/journal.bin";
    std::size_t deferred = 0;
    {
        serve::FleetOptions opt;
        opt.workers = 1;
        opt.workerExe = exe;
        opt.cacheDir = dir + "/cache";
        opt.journalPath = journalPath;
        serve::Supervisor supervisor(opt);
        ASSERT_TRUE(supervisor.start().ok());
        // Queue more work than one worker can have in flight, then
        // drain immediately: whatever had not been dispatched resolves
        // typed-deferred.
        for (int i = 0; i < 6; ++i)
            ASSERT_TRUE(
                supervisor.submit(parseOneRequest(kStencil)).ok());
        supervisor.requestDrain();
        // Submissions after the drain request are typed-deferred too.
        ASSERT_TRUE(supervisor.submit(parseOneRequest(kKnn)).ok());
        supervisor.drain();
        const std::vector<serve::FleetOutcome> outcomes =
            supervisor.finish();
        ASSERT_EQ(outcomes.size(), 7u);
        for (const serve::FleetOutcome &f : outcomes) {
            if (f.outcome.status.ok())
                continue;
            EXPECT_EQ(f.outcome.status.code(),
                      StatusCode::ResourceExhausted);
            ++deferred;
        }
        EXPECT_EQ(outcomes[6].outcome.status.code(),
                  StatusCode::ResourceExhausted);
    }
    ASSERT_GE(deferred, 1u);
    // The deferred requests kept their begin records: a restarted
    // supervisor replays exactly them.
    EXPECT_EQ(serve::RequestJournal::scan(journalPath).records.size(),
              deferred);

    serve::FleetOptions opt;
    opt.workers = 2;
    opt.workerExe = exe;
    opt.cacheDir = dir + "/cache";
    opt.journalPath = journalPath;
    serve::Supervisor supervisor(opt);
    ASSERT_TRUE(supervisor.start().ok());
    supervisor.drain();
    const std::vector<serve::FleetOutcome> outcomes =
        supervisor.finish();
    ASSERT_EQ(outcomes.size(), deferred);
    for (const serve::FleetOutcome &f : outcomes) {
        EXPECT_TRUE(f.outcome.status.ok())
            << f.outcome.failureReason;
        EXPECT_NE(f.outcome.resultDigest, 0u);
    }
}

} // namespace
} // namespace tapacs
