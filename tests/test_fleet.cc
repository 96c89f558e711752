/**
 * @file
 * Crash-tolerance suite for the multi-process serving fleet: CRC64
 * vectors, the shared frame codec (round trip, torn prefixes, bit
 * flips, length caps), whole-file reads and writes, wire-frame and
 * outcome codecs, request-line rendering, the durable journal (torn
 * tails, corrupt-record resync, compaction, group commit),
 * checksummed disk-cache entries (corruption degrades to a typed
 * miss), stale-temp sweeping, two writer processes of one key, and
 * end-to-end supervisor scenarios — worker kill mid-compile, hang
 * detection via heartbeat timeout, every worker reaped without a
 * kill at finish(), quarantine,
 * supervisor restart with journal replay, graceful drain, outcomes
 * visible only behind their end records, the circuit breaker across
 * the process boundary, serial-vs-4-worker bit-identity, and
 * in-process-vs-worker bit-identity plus journal replay on the
 * in-process executor.
 *
 * The multi-process scenarios spawn $TAPACS_WORKER_EXE (ctest wires
 * it to the built tapacs-serve binary); without it they skip rather
 * than fake the fleet in-process.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <pthread.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "cache/store.hh"
#include "common/crc64.hh"
#include "common/frame.hh"
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

// ---------------------------------------------------------------- frame

constexpr std::string_view kTestMagic = "TST1";

TEST(Frame, RoundTripsIncludingAnEmptyPayload)
{
    for (const std::string &payload :
         {std::string(), std::string("x"),
          std::string("B 7 request a workload=x")}) {
        const std::string bytes = encodeFrame(kTestMagic, payload);
        ASSERT_EQ(bytes.size(), kFrameHeaderBytes + payload.size());
        const DecodedFrame frame = decodeFrame(bytes, kTestMagic, 1024);
        ASSERT_EQ(frame.check, FrameCheck::Ok);
        EXPECT_EQ(frame.consumed, bytes.size());
        EXPECT_EQ(frame.payload, payload);
        // Decoding stops at the frame's end.
        EXPECT_EQ(decodeFrame(bytes + "next", kTestMagic, 1024).consumed,
                  bytes.size());
    }
}

TEST(Frame, EveryStrictPrefixIsTorn)
{
    const std::string bytes =
        encodeFrame(kTestMagic, "cut short by a crash mid-write");
    for (std::size_t n = 0; n < bytes.size(); ++n)
        EXPECT_EQ(decodeFrame(std::string_view(bytes).substr(0, n),
                              kTestMagic, 1024)
                      .check,
                  FrameCheck::Torn)
            << "prefix " << n;
}

TEST(Frame, NoSingleBitFlipDecodesOk)
{
    const std::string clean =
        encodeFrame(kTestMagic, "every bit, header included");
    for (std::size_t bit = 0; bit < clean.size() * 8; ++bit) {
        std::string bytes = clean;
        bytes[bit / 8] ^= static_cast<char>(1 << (bit % 8));
        EXPECT_NE(decodeFrame(bytes, kTestMagic, 1024).check,
                  FrameCheck::Ok)
            << "bit " << bit;
    }
}

TEST(Frame, LengthAboveTheCallersCapIsCorrupt)
{
    const std::string bytes =
        encodeFrame(kTestMagic, std::string(100, 'x'));
    EXPECT_EQ(decodeFrame(bytes, kTestMagic, 100).check, FrameCheck::Ok);
    EXPECT_EQ(decodeFrame(bytes, kTestMagic, 99).check,
              FrameCheck::Corrupt);
    // The header alone decides: a claimed 4 GiB payload with nothing
    // behind it is Corrupt, not Torn, and nothing is read for it.
    std::string header = bytes.substr(0, kFrameHeaderBytes);
    for (int i = 4; i < 8; ++i)
        header[i] = '\xff';
    EXPECT_EQ(decodeFrame(header, kTestMagic, 16u << 20).check,
              FrameCheck::Corrupt);
    EXPECT_EQ(decodeFrame(header.substr(0, 8), kTestMagic, 16u << 20)
                  .check,
              FrameCheck::Corrupt);
}

TEST(File, ReadFileRespectsTheCapAndKeepsOutOnFailure)
{
    const std::string dir = freshDir("fleet_read_file");
    const std::string path = dir + "/bytes.bin";
    {
        std::ofstream out(path, std::ios::binary);
        out << std::string(1000, 'b');
    }
    std::string text = "untouched";
    ASSERT_TRUE(readFile(path, &text).ok());
    EXPECT_EQ(text, std::string(1000, 'b'));

    text = "untouched";
    const Status big = readFile(path, &text, 999);
    EXPECT_EQ(big.code(), StatusCode::ResourceExhausted);
    EXPECT_EQ(big.message(),
              "file '" + path + "' is 1000 bytes (limit 999)");
    const Status missing = readFile(dir + "/missing", &text);
    EXPECT_EQ(missing.code(), StatusCode::InvalidInput);
    EXPECT_EQ(missing.message(), "cannot open '" + dir + "/missing'");
    EXPECT_EQ(text, "untouched");
}

TEST(File, WriteAllReportsAFullDevice)
{
    const int fd = open("/dev/full", O_WRONLY | O_CLOEXEC);
    if (fd < 0)
        GTEST_SKIP() << "no /dev/full";
    const Status st = writeAll(fd, "bytes that cannot land");
    close(fd);
    EXPECT_EQ(st.code(), StatusCode::Internal);
}

TEST(File, FailedPublishRemovesTheTempAndKeepsTheTarget)
{
    const std::string dir = freshDir("fleet_replace_file");
    // A non-empty directory as the target makes the final rename fail
    // after the temp was fully written.
    const std::string target = dir + "/occupied";
    fs::create_directories(target + "/child");
    const std::string tmp = dir + "/entry.tmp";
    const Status st = replaceFile(target, tmp, "entry bytes", false);
    EXPECT_EQ(st.code(), StatusCode::Internal);
    EXPECT_FALSE(fs::exists(tmp));
    EXPECT_TRUE(fs::is_directory(target + "/child"));

    ASSERT_TRUE(replaceFile(dir + "/entry", tmp, "entry bytes", true).ok());
    std::string back;
    ASSERT_TRUE(readFile(dir + "/entry", &back).ok());
    EXPECT_EQ(back, "entry bytes");
    EXPECT_FALSE(fs::exists(tmp));
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

TEST(Wire, OversizedLengthIsCorruptBeforeAnyPayload)
{
    // A length field past the 64 MiB cap is rejected from the header:
    // the reader neither allocates nor waits for the payload.
    std::string bytes =
        serve::encodeFrame(serve::FrameType::Response, "payload");
    for (int i = 4; i < 8; ++i)
        bytes[i] = '\xff';
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    ASSERT_EQ(write(fds[1], bytes.data(), kFrameHeaderBytes),
              static_cast<ssize_t>(kFrameHeaderBytes));
    serve::Frame frame;
    bool corrupt = false;
    const Status st = serve::readFrame(fds[0], 5.0, &frame, &corrupt);
    EXPECT_EQ(st.code(), StatusCode::Internal);
    EXPECT_TRUE(corrupt) << st.message();
    close(fds[0]);
    close(fds[1]);
}

TEST(Wire, UnknownTypeByteIsCorruptEvenUnderAValidCrc)
{
    // The type is the first payload byte, range-checked after the CRC.
    const std::string bytes = encodeFrame("TWF2", "\x09payload");
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    ASSERT_EQ(write(fds[1], bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
    serve::Frame frame;
    bool corrupt = false;
    const Status st = serve::readFrame(fds[0], 1.0, &frame, &corrupt);
    EXPECT_EQ(st.code(), StatusCode::Internal);
    EXPECT_TRUE(corrupt) << st.message();
    close(fds[0]);
    close(fds[1]);
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

TEST(Journal, PreviousFormatRecordIsACountedCorruptSkip)
{
    const std::string dir = freshDir("fleet_journal_legacy");
    const std::string path = dir + "/journal.bin";
    {
        // One begin record in the layout journals had before the
        // shared frame codec: an 8-byte tag, u32 length, CRC64.
        const std::string body = "B 1 request a workload=x";
        std::string legacy = "TAPACSJ1";
        for (int i = 0; i < 4; ++i)
            legacy.push_back(static_cast<char>(body.size() >> (8 * i)));
        const std::uint64_t crc = crc64(body);
        for (int i = 0; i < 8; ++i)
            legacy.push_back(static_cast<char>(crc >> (8 * i)));
        std::ofstream out(path, std::ios::binary);
        out << legacy << body;
    }
    {
        serve::RequestJournal journal(path);
        ASSERT_TRUE(journal.open().ok());
        ASSERT_TRUE(journal.appendBegin(2, "request b workload=y").ok());
    }
    const serve::RequestJournal::ScanResult scanned =
        serve::RequestJournal::scan(path);
    EXPECT_EQ(scanned.corruptSkipped, 1);
    EXPECT_FALSE(scanned.tornTail);
    ASSERT_EQ(scanned.records.size(), 1u);
    EXPECT_EQ(scanned.records[0].id, 2u);
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

std::int64_t
journalFsyncs()
{
    return counterValue("tapacs.fleet.journal_fsyncs");
}

TEST(Journal, OneSyncCoversEveryEarlierWrite)
{
    const std::string dir = freshDir("fleet_journal_group");
    const std::string path = dir + "/journal.bin";
    serve::RequestJournal journal(path);
    // Creating the file fsyncs its directory; nothing else does yet.
    const std::int64_t beforeOpen = journalFsyncs();
    ASSERT_TRUE(journal.open().ok());
    EXPECT_EQ(journalFsyncs(), beforeOpen + 1);

    std::uint64_t seq[3] = {};
    ASSERT_TRUE(journal.write('B', 1, "request a workload=x", &seq[0]).ok());
    ASSERT_TRUE(journal.write('B', 2, "request b workload=y", &seq[1]).ok());
    ASSERT_TRUE(journal.write('E', 1, "outcome-bytes", &seq[2]).ok());
    EXPECT_EQ(seq[0], 1u);
    EXPECT_EQ(seq[1], 2u);
    EXPECT_EQ(seq[2], 3u);
    EXPECT_EQ(journalFsyncs(), beforeOpen + 1); // writes never fsync

    const std::int64_t before = journalFsyncs();
    ASSERT_TRUE(journal.sync(3).ok());
    EXPECT_EQ(journalFsyncs(), before + 1);
    ASSERT_TRUE(journal.sync(2).ok()); // already covered
    EXPECT_EQ(journalFsyncs(), before + 1);
    journal.close();

    // Reopening an existing journal creates nothing to make durable.
    ASSERT_TRUE(journal.open().ok());
    EXPECT_EQ(journalFsyncs(), before + 1);
    journal.close();

    const serve::RequestJournal::ScanResult scanned =
        serve::RequestJournal::scan(path);
    EXPECT_EQ(scanned.corruptSkipped, 0);
    EXPECT_FALSE(scanned.tornTail);
    ASSERT_EQ(scanned.records.size(), 3u);
    EXPECT_EQ(scanned.records[0].id, 1u);
    EXPECT_FALSE(scanned.records[0].end);
    EXPECT_EQ(scanned.records[1].id, 2u);
    EXPECT_FALSE(scanned.records[1].end);
    EXPECT_EQ(scanned.records[2].id, 1u);
    EXPECT_TRUE(scanned.records[2].end);
    EXPECT_EQ(scanned.records[2].payload, "outcome-bytes");
}

TEST(Journal, ConcurrentSyncsShareFsyncs)
{
    const std::string dir = freshDir("fleet_journal_concurrent");
    const std::string path = dir + "/journal.bin";
    constexpr int kThreads = 8;
    constexpr int kPerThread = 50;
    serve::RequestJournal journal(path);
    ASSERT_TRUE(journal.open().ok());
    const std::int64_t before = journalFsyncs();
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t]() {
            for (int i = 0; i < kPerThread; ++i) {
                const std::uint64_t id = t * kPerThread + i + 1;
                const std::string line =
                    strprintf("request r%llu", (unsigned long long)id);
                std::uint64_t seq = 0;
                if (!journal.write('B', id, line, &seq).ok() ||
                    !journal.sync(seq).ok())
                    ++failures;
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    journal.close();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_LE(journalFsyncs() - before, kThreads * kPerThread);

    const serve::RequestJournal::ScanResult scanned =
        serve::RequestJournal::scan(path);
    EXPECT_EQ(scanned.corruptSkipped, 0);
    EXPECT_FALSE(scanned.tornTail);
    ASSERT_EQ(scanned.records.size(),
              static_cast<std::size_t>(kThreads * kPerThread));
    // Every record once, intact, and each thread's in its write order.
    std::vector<std::uint64_t> lastOfThread(kThreads, 0);
    std::vector<int> seen(kThreads * kPerThread + 1, 0);
    for (const serve::RequestJournal::Record &record : scanned.records) {
        ASSERT_GE(record.id, 1u);
        ASSERT_LE(record.id,
                  static_cast<std::uint64_t>(kThreads * kPerThread));
        EXPECT_EQ(record.payload,
                  strprintf("request r%llu", (unsigned long long)record.id));
        ++seen[record.id];
        const std::size_t t = (record.id - 1) / kPerThread;
        EXPECT_GT(record.id, lastOfThread[t]);
        lastOfThread[t] = record.id;
    }
    for (std::size_t id = 1; id < seen.size(); ++id)
        EXPECT_EQ(seen[id], 1) << id;
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
    // Flip a payload bit (the tail of the file); Frame.* covers
    // header flips.
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

TEST(CacheIntegrity, PreviousFormatEntryDegradesToTypedMiss)
{
    const std::string dir = freshDir("fleet_cache_legacy");
    cache::CacheKey key{44, 45};
    const std::string entry = dir + "/" + key.hex() + ".tce";
    {
        // An entry in the text-header layout the disk tier used
        // before the shared frame codec.
        const std::string payload = "legacy artifact";
        std::ofstream out(entry, std::ios::binary);
        out << strprintf("TCE2 %016llx %zu\n",
                         (unsigned long long)crc64(payload),
                         payload.size())
            << payload;
    }
    const std::int64_t corruptBefore =
        counterValue("tapacs.cache.disk_corrupt");
    cache::CacheStore::Options opt;
    opt.directory = dir;
    cache::CacheStore store(opt);
    EXPECT_EQ(store.get(key), nullptr);
    EXPECT_EQ(counterValue("tapacs.cache.disk_corrupt"),
              corruptBefore + 1);
    EXPECT_FALSE(fs::exists(entry));
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

/** Write @p path and backdate its mtime by @p ageSeconds. */
void
plantFile(const std::string &path, double ageSeconds = 0.0)
{
    {
        std::ofstream out(path);
        out << "half-written entry";
    }
    fs::last_write_time(
        path, fs::file_time_type::clock::now() -
                  std::chrono::duration_cast<fs::file_time_type::duration>(
                      std::chrono::duration<double>(ageSeconds)));
}

TEST(CacheIntegrity, StaleTempsAreSweptOnOpen)
{
    const std::string dir = freshDir("fleet_cache_temps");
    fs::create_directories(dir + "/.tmp");
    plantFile(dir + "/.tmp/deadbeef.1");
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
    EXPECT_FALSE(fs::exists(dir + "/.tmp/deadbeef.1"));
    EXPECT_TRUE(fs::exists(dir + "/unrelated.txt"));
    EXPECT_EQ(counterValue("tapacs.cache.tmp_swept"),
              sweptBefore + 1);
}

TEST(CacheIntegrity, OnlyTempsPastTheAgeLimitAreSwept)
{
    // A young temp may belong to a live writer that has not renamed
    // it yet; only one older than tempMaxAgeSeconds is a crash leak.
    const std::string dir = freshDir("fleet_cache_young_temp");
    fs::create_directories(dir + "/.tmp");
    plantFile(dir + "/.tmp/young.1");
    plantFile(dir + "/.tmp/stale.2", 7200.0);
    const std::int64_t sweptBefore =
        counterValue("tapacs.cache.tmp_swept");
    cache::CacheStore::Options opt;
    opt.directory = dir; // default limit: one hour
    cache::CacheStore store(opt);
    EXPECT_TRUE(fs::exists(dir + "/.tmp/young.1"));
    EXPECT_FALSE(fs::exists(dir + "/.tmp/stale.2"));
    EXPECT_EQ(counterValue("tapacs.cache.tmp_swept"),
              sweptBefore + 1);
}

TEST(CacheIntegrity, OpenLeavesTopLevelFilesAlone)
{
    // The open-time sweep lists `.tmp/` only: nothing next to the
    // entries is touched, not even an old build's `.tmp.*` temp
    // (that one is the scrubber's).
    const std::string dir = freshDir("fleet_cache_top_level");
    plantFile(dir + "/.tmp.deadbeef.2", 7200.0);
    plantFile(dir + "/notes.txt", 7200.0);
    const std::int64_t sweptBefore =
        counterValue("tapacs.cache.tmp_swept");
    cache::CacheStore::Options opt;
    opt.directory = dir;
    opt.tempMaxAgeSeconds = 0.0;
    cache::CacheStore store(opt);
    EXPECT_TRUE(fs::is_directory(dir + "/.tmp"));
    EXPECT_TRUE(fs::exists(dir + "/.tmp.deadbeef.2"));
    EXPECT_TRUE(fs::exists(dir + "/notes.txt"));
    EXPECT_EQ(counterValue("tapacs.cache.tmp_swept"), sweptBefore);
}

TEST(CacheIntegrity, TwoProcessesPuttingOneKeyNeverTearIt)
{
    // Each process counts its temps from the same start, so two
    // writers of one key would share a temp path without the pid in
    // its name: the second O_TRUNC open lets the first publish an
    // entry the second is still writing. The writers meet at a
    // process-shared barrier before each put, the second starting
    // 0-225 us later so its open sweeps across the first one's write,
    // and each reads the key back through a fresh memory tier (so
    // from disk) after every put, which is when such a torn entry
    // shows. A writer runs every round whatever it reads (the other
    // waits for it at the barrier) and exits 1 if any read did not
    // decode to the bytes it put.
    const std::string dir = freshDir("fleet_cache_two_writers");
    const cache::CacheKey key{0x0123456789abcdefull, 0xfedcba9876543210ull};
    std::string value(256 << 10, '\0');
    for (std::size_t i = 0; i < value.size(); ++i)
        value[i] = static_cast<char>(i % 251);
    constexpr int kPuts = 100;

    void *shared = mmap(nullptr, sizeof(pthread_barrier_t),
                        PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS,
                        -1, 0);
    ASSERT_NE(shared, MAP_FAILED) << std::strerror(errno);
    auto *barrier = static_cast<pthread_barrier_t *>(shared);
    pthread_barrierattr_t attr;
    pthread_barrierattr_init(&attr);
    pthread_barrierattr_setpshared(&attr, PTHREAD_PROCESS_SHARED);
    ASSERT_EQ(pthread_barrier_init(barrier, &attr, 2), 0);
    pthread_barrierattr_destroy(&attr);

    cache::CacheStore::Options opt;
    opt.directory = dir;
    const std::int64_t corruptBefore =
        counterValue("tapacs.cache.disk_corrupt");
    std::vector<pid_t> writers;
    for (int w = 0; w < 2; ++w) {
        const pid_t pid = fork();
        ASSERT_GE(pid, 0) << std::strerror(errno);
        if (pid == 0) {
            cache::CacheStore store(opt);
            bool intact = true;
            for (int i = 0; i < kPuts; ++i) {
                pthread_barrier_wait(barrier);
                if (w == 1)
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(25 * (i % 10)));
                store.put(key, value);
                const auto got = cache::CacheStore(opt).get(key);
                intact = intact && (got == nullptr || *got == value);
            }
            intact = intact && counterValue("tapacs.cache.disk_corrupt") ==
                                   corruptBefore;
            _exit(intact ? 0 : 1);
        }
        writers.push_back(pid);
    }
    for (const pid_t pid : writers) {
        int status = 0;
        ASSERT_EQ(waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
            << "a writer read back a torn or corrupt entry";
    }
    pthread_barrier_destroy(barrier);
    munmap(shared, sizeof(pthread_barrier_t));
    const auto got = cache::CacheStore(opt).get(key);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, value);
    // Every temp was renamed into place: none is left behind.
    EXPECT_TRUE(fs::is_empty(dir + "/.tmp"));
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
    // Any age, in both layouts: staged in `.tmp/`, and next to the
    // entries as older builds staged them.
    plantFile(dir + "/.tmp/feedface.9");
    plantFile(dir + "/.tmp.feedface.9");
    const cache::CacheStore::ScrubReport report =
        cache::CacheStore::scrubDirectory(dir);
    EXPECT_EQ(report.entriesOk, 1);
    EXPECT_EQ(report.corruptRemoved, 1);
    EXPECT_EQ(report.tempsRemoved, 2);
    EXPECT_FALSE(fs::exists(dir + "/.tmp/feedface.9"));
    EXPECT_FALSE(fs::exists(dir + "/.tmp.feedface.9"));
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

TEST(Fleet, FinishReapsEveryWorkerGracefully)
{
    const std::string exe = workerExe();
    if (exe.empty())
        GTEST_SKIP() << "TAPACS_WORKER_EXE not set";
    const std::string dir = freshDir("fleet_reap");
    serve::FleetOptions opt;
    opt.workers = 2;
    opt.workerExe = exe;
    opt.cacheDir = dir + "/cache";
    // Second pass: each slot's first worker dies at its first request,
    // so whichever slot runs a request restarts its worker, and
    // finish() must reap the restarted one too.
    for (const bool chaos : {false, true}) {
        SCOPED_TRACE(chaos ? "after a Kill fault" : "healthy");
        if (chaos)
            opt.chaos.kill(0, 0).kill(1, 0);
        const std::int64_t killsBefore =
            counterValue("tapacs.fleet.shutdown_kills");
        const std::int64_t restartsBefore =
            counterValue("tapacs.fleet.worker_restarts");
        const FleetRun run =
            runFleet(opt, {kStencil, kPagerank, kKnn, kExplore});
        ASSERT_EQ(run.outcomes.size(), 4u);
        for (const serve::FleetOutcome &f : run.outcomes)
            EXPECT_TRUE(f.outcome.status.ok()) << f.outcome.failureReason;
        if (chaos) {
            EXPECT_GE(counterValue("tapacs.fleet.worker_restarts"),
                      restartsBefore + 1);
        }
        // Every worker exited on its own within the grace window, and
        // none is left unreaped.
        EXPECT_EQ(counterValue("tapacs.fleet.shutdown_kills"),
                  killsBefore);
        errno = 0;
        EXPECT_EQ(waitpid(-1, nullptr, WNOHANG), -1);
        EXPECT_EQ(errno, ECHILD);
    }
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
    opt.backoff.base = 1.0e-4;
    opt.backoff.cap = 1.0e-3;
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

TEST(Fleet, InProcessAndWorkerDigestsMatch)
{
    // execute.hh's contract: both executors run the same code, so the
    // same request yields the same design wherever it ran.
    const std::string exe = workerExe();
    if (exe.empty())
        GTEST_SKIP() << "TAPACS_WORKER_EXE not set";
    const std::vector<std::string> lines = {kStencil, kPagerank, kKnn,
                                            kExplore};

    const std::string inDir = freshDir("fleet_digest_in_process");
    serve::FleetOptions local;
    local.workers = 2;
    local.inProcess = true;
    local.cacheDir = inDir + "/cache";
    const FleetRun threads = runFleet(local, lines);

    const std::string outDir = freshDir("fleet_digest_workers");
    serve::FleetOptions remote;
    remote.workers = 2;
    remote.workerExe = exe;
    remote.cacheDir = outDir + "/cache";
    const FleetRun processes = runFleet(remote, lines);

    ASSERT_EQ(threads.outcomes.size(), lines.size());
    ASSERT_EQ(processes.outcomes.size(), lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const serve::ServeOutcome &a = threads.outcomes[i].outcome;
        const serve::ServeOutcome &b = processes.outcomes[i].outcome;
        EXPECT_TRUE(a.status.ok()) << a.failureReason;
        EXPECT_TRUE(b.status.ok()) << b.failureReason;
        EXPECT_NE(a.resultDigest, 0u) << lines[i];
        EXPECT_EQ(a.resultDigest, b.resultDigest) << lines[i];
    }
}

TEST(Fleet, InProcessJournalReplaysExactlyOnce)
{
    // The in-process executor inherits the journal unchanged: a
    // restart resolves completed ids from their end records without
    // running them, and re-runs ids that only ever began.
    const std::string dir = freshDir("fleet_in_process_replay");
    const std::string journalPath = dir + "/journal.bin";
    serve::FleetOptions opt;
    opt.workers = 1;
    opt.inProcess = true;
    opt.cacheDir = dir + "/cache";
    opt.journalPath = journalPath;

    const FleetRun first = runFleet(opt, {kStencil});
    ASSERT_EQ(first.outcomes.size(), 1u);
    ASSERT_TRUE(first.outcomes[0].outcome.status.ok());
    const std::uint64_t doneId = first.outcomes[0].id;
    const std::uint64_t doneDigest =
        first.outcomes[0].outcome.resultDigest;
    EXPECT_EQ(serve::RequestJournal::scan(journalPath).records.size(),
              0u);

    // Recreate the crash state: one resolved id, one begun only.
    {
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
        ASSERT_TRUE(journal
                        .appendBegin(doneId + 1,
                                     serve::renderRequestLine(
                                         parseOneRequest(kPagerank)))
                        .ok());
        journal.close();
    }

    serve::Supervisor supervisor(opt);
    ASSERT_TRUE(supervisor.start().ok());
    supervisor.drain();
    // Before finish() compacts it, the journal holds the re-run's end
    // record: a crash from here on would replay it, not run it again.
    std::size_t ends = 0;
    for (const auto &record :
         serve::RequestJournal::scan(journalPath).records)
        ends += record.end && record.id == doneId + 1 ? 1 : 0;
    EXPECT_EQ(ends, 1u);
    FleetRun second;
    second.outcomes = supervisor.finish();
    ASSERT_EQ(second.outcomes.size(), 2u);
    const serve::FleetOutcome &replayed = second.outcomes[0];
    EXPECT_EQ(replayed.id, doneId);
    EXPECT_TRUE(replayed.replayed);
    EXPECT_EQ(replayed.dispatchAttempts, 0); // never ran again
    EXPECT_EQ(replayed.outcome.resultDigest, doneDigest);
    const serve::FleetOutcome &rerun = second.outcomes[1];
    EXPECT_EQ(rerun.id, doneId + 1);
    EXPECT_FALSE(rerun.replayed);
    EXPECT_EQ(rerun.dispatchAttempts, 1);
    EXPECT_TRUE(rerun.outcome.status.ok()) << rerun.outcome.failureReason;
    EXPECT_EQ(rerun.outcome.name, "tiny-pagerank");
    EXPECT_NE(rerun.outcome.resultDigest, 0u);
    EXPECT_EQ(serve::RequestJournal::scan(journalPath).records.size(),
              0u);
}

/**
 * Submit six requests to @p opt's fleet and poll completedCount():
 * at every poll the journal already holds at least that many end
 * records, because an outcome becomes visible only once its end
 * record is durable.
 */
void
expectOutcomesTrailTheirEndRecords(serve::FleetOptions opt)
{
    const std::string journalPath = opt.journalPath;
    serve::Supervisor supervisor(std::move(opt));
    ASSERT_TRUE(supervisor.start().ok());
    for (int round = 0; round < 2; ++round) {
        for (const char *line : {kStencil, kPagerank, kKnn})
            ASSERT_TRUE(supervisor.submit(parseOneRequest(line)).ok());
    }
    const std::size_t admitted = supervisor.admitted();
    int polls = 0;
    for (std::size_t done = 0; done < admitted; ++polls) {
        done = supervisor.completedCount();
        std::size_t ends = 0;
        for (const serve::RequestJournal::Record &record :
             serve::RequestJournal::scan(journalPath).records)
            ends += record.end ? 1 : 0;
        ASSERT_GE(ends, done) << "poll " << polls;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    for (const serve::FleetOutcome &f : supervisor.finish())
        EXPECT_TRUE(f.outcome.status.ok()) << f.outcome.failureReason;
}

TEST(Fleet, OutcomeIsVisibleOnlyAfterItsEndRecord)
{
    const std::string dir = freshDir("fleet_visible_after_end");
    serve::FleetOptions opt;
    opt.workers = 2;
    opt.cacheDir = dir + "/cache";
    opt.inProcess = true;
    opt.journalPath = dir + "/in-process.journal";
    expectOutcomesTrailTheirEndRecords(opt);

    const std::string exe = workerExe();
    if (exe.empty())
        GTEST_SKIP() << "TAPACS_WORKER_EXE not set";
    opt.inProcess = false;
    opt.workerExe = exe;
    opt.journalPath = dir + "/workers.journal";
    expectOutcomesTrailTheirEndRecords(opt);
}

TEST(Fleet, CleanJournalIsAppendedToNotRewritten)
{
    // Only a damaged journal is compacted on start(); a clean one is
    // reopened in place — same inode, no fsync.
    const std::string dir = freshDir("fleet_clean_journal_start");
    const std::string journalPath = dir + "/journal.bin";
    serve::FleetOptions opt;
    opt.workers = 1;
    opt.inProcess = true;
    opt.cacheDir = dir + "/cache";
    opt.journalPath = journalPath;
    const FleetRun first = runFleet(opt, {kStencil});
    ASSERT_EQ(first.outcomes.size(), 1u);
    struct stat before = {};
    ASSERT_EQ(stat(journalPath.c_str(), &before), 0);

    serve::Supervisor supervisor(opt);
    const std::int64_t fsyncs = journalFsyncs();
    ASSERT_TRUE(supervisor.start().ok());
    EXPECT_EQ(journalFsyncs(), fsyncs);
    struct stat after = {};
    ASSERT_EQ(stat(journalPath.c_str(), &after), 0);
    EXPECT_EQ(after.st_ino, before.st_ino);
    EXPECT_TRUE(supervisor.finish().empty());
}

TEST(Fleet, BreakerShedsWorkerProcessRequests)
{
    // The circuit breaker lives in the core, so it sheds in front of
    // worker processes too: after two failed requests nothing else is
    // dispatched.
    const std::string exe = workerExe();
    if (exe.empty())
        GTEST_SKIP() << "TAPACS_WORKER_EXE not set";
    const std::string dir = freshDir("fleet_breaker");
    serve::FleetOptions opt;
    opt.workers = 1; // ordered breaker votes
    opt.workerExe = exe;
    opt.cacheDir = dir + "/cache";
    opt.breakerThreshold = 2;
    opt.breakerProbeEvery = 100; // no probe within this test
    std::vector<std::string> lines;
    for (int i = 0; i < 5; ++i)
        lines.push_back(strprintf("request bad%d graph=%s/missing.graph "
                                  "fpgas=2",
                                  i, dir.c_str()));
    const std::int64_t dispatchesBefore =
        counterValue("tapacs.fleet.dispatches");
    const FleetRun run = runFleet(opt, lines);
    ASSERT_EQ(run.outcomes.size(), lines.size());
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(run.outcomes[i].outcome.status.code(),
                  StatusCode::InvalidInput)
            << run.outcomes[i].outcome.failureReason;
        EXPECT_EQ(run.outcomes[i].outcome.attempts, 1);
    }
    for (std::size_t i = 2; i < lines.size(); ++i) {
        EXPECT_EQ(run.outcomes[i].outcome.status.code(),
                  StatusCode::ResourceExhausted)
            << run.outcomes[i].outcome.failureReason;
        EXPECT_EQ(run.outcomes[i].outcome.attempts, 0);
    }
    EXPECT_EQ(counterValue("tapacs.fleet.dispatches"),
              dispatchesBefore + 2);
}

} // namespace
} // namespace tapacs
