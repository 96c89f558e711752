#include "serve/worker.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#include <unistd.h>

#include "cache/compile_cache.hh"
#include "cache/store.hh"
#include "common/logging.hh"
#include "serve/execute.hh"
#include "serve/manifest.hh"
#include "serve/wire.hh"

namespace tapacs::serve
{

namespace
{

/** Parse a Request frame payload: "<id> <manifest-line>". */
bool
parseRequestPayload(const std::string &payload, std::uint64_t *id,
                    std::string *line)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long parsed =
        std::strtoull(payload.c_str(), &end, 10);
    if (errno == ERANGE || end == payload.c_str() || *end != ' ')
        return false;
    *id = parsed;
    line->assign(payload, (end + 1) - payload.c_str(),
                 std::string::npos);
    return true;
}

} // namespace

int
runWorker(const WorkerConfig &config)
{
    // A dead supervisor must surface as a typed write error, not a
    // process kill.
    std::signal(SIGPIPE, SIG_IGN);

    std::unique_ptr<cache::CacheStore> store;
    std::unique_ptr<cache::CompileCache> cache;
    if (!config.cacheDir.empty()) {
        cache::CacheStore::Options opt;
        opt.directory = config.cacheDir;
        store = std::make_unique<cache::CacheStore>(opt);
        cache = std::make_unique<cache::CompileCache>(*store);
    }

    // One writer mutex for the response fd: heartbeats come from a
    // second thread and must never interleave inside a frame.
    std::mutex writeMu;
    auto send = [&](FrameType type, const std::string &payload) {
        std::lock_guard<std::mutex> lock(writeMu);
        return writeFrame(config.outFd, type, payload);
    };

    if (!send(FrameType::Hello, strprintf("%d", (int)getpid())).ok())
        return 1;

    // Heartbeat thread: paused only by a chaos Hang (that is the
    // fault's entire point — the supervisor must see silence).
    std::mutex hbMu;
    std::condition_variable hbCv;
    bool hbStop = false;
    bool hbPaused = false;
    std::thread heartbeat([&]() {
        std::unique_lock<std::mutex> lock(hbMu);
        while (!hbStop) {
            hbCv.wait_for(lock,
                          std::chrono::duration<double>(
                              config.heartbeatPeriodSeconds),
                          [&]() { return hbStop; });
            if (hbStop)
                return;
            if (hbPaused)
                continue;
            lock.unlock();
            send(FrameType::Heartbeat, "");
            lock.lock();
        }
    });
    auto stopHeartbeat = [&]() {
        {
            std::lock_guard<std::mutex> lock(hbMu);
            hbStop = true;
        }
        hbCv.notify_all();
        heartbeat.join();
    };

    WorkerFault fault = config.fault;
    int served = 0;
    int exitCode = 0;
    while (true) {
        Frame frame;
        const Status st = readFrame(config.inFd, -1.0, &frame);
        if (!st.ok()) {
            // EOF is the supervisor's normal "we're done" signal.
            exitCode =
                st.message() == "wire: peer closed the stream" ? 0 : 1;
            break;
        }
        if (frame.type == FrameType::Shutdown)
            break;
        if (frame.type != FrameType::Request)
            continue; // tolerate unexpected-but-valid frames

        std::uint64_t id = 0;
        std::string line;
        const bool parsed =
            parseRequestPayload(frame.payload, &id, &line);

        // Chaos self-faults fire at request receipt, before any
        // compile work: deterministic, and observationally identical
        // to dying mid-compile (the request is begun, not resolved).
        if (parsed && fault.kind != WorkerFaultKind::None &&
            served >= fault.afterRequests) {
            if (fault.kind == WorkerFaultKind::Kill) {
                // _Exit: no destructors, no flushing — the abrupt
                // death the supervisor must survive.
                _Exit(137);
            }
            const double naptime = std::min(fault.seconds, 3600.0);
            if (fault.kind == WorkerFaultKind::Hang) {
                {
                    std::lock_guard<std::mutex> lock(hbMu);
                    hbPaused = true;
                }
                // Sleep silent; the supervisor SIGKILLs us when its
                // heartbeat timeout fires.
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(naptime));
                {
                    std::lock_guard<std::mutex> lock(hbMu);
                    hbPaused = false;
                }
            } else { // Stall: alive but late
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(naptime));
            }
            fault.kind = WorkerFaultKind::None; // one-shot
        }
        ++served;

        ServeOutcome out;
        if (!parsed) {
            out.status = Status::invalidInput(
                "worker: malformed request payload (%zu bytes)",
                frame.payload.size());
            out.failureReason = out.status.message();
        } else {
            const ParsedManifest manifest = parseManifest(line);
            if (manifest.requests.size() != 1) {
                out.status = Status::invalidInput(
                    "worker: request line did not parse: %s",
                    manifest.diagnostics.empty()
                        ? "(no request)"
                        : manifest.diagnostics[0].message.c_str());
                out.failureReason = out.status.message();
            } else {
                const Request &req = manifest.requests[0];
                ExecutePolicy policy;
                policy.cache = cache.get();
                out = executeRequest(req, policy);
                out.attempts = 1;
            }
        }
        const std::string payload =
            strprintf("%llu ", (unsigned long long)id) +
            encodeOutcome(out);
        if (!send(FrameType::Response, payload).ok()) {
            exitCode = 1;
            break;
        }
    }
    stopHeartbeat();
    return exitCode;
}

} // namespace tapacs::serve
