#include "serve/supervisor.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include "cache/compile_cache.hh"
#include "cache/store.hh"
#include "common/context.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/wire.hh"

extern char **environ;

namespace tapacs::serve
{

namespace
{

/** Why a drained request resolved without running. */
constexpr const char *kDrained =
    "draining; request deferred to the journal";

/** How long finish() waits for Shutdown'd workers to exit before
 *  SIGKILLing them. */
constexpr double kShutdownGraceSeconds = 2.0;

/** Slack past a request's deadline before the supervisor stops
 *  trusting the worker to enforce it and kills instead. */
constexpr double kDeadlineGraceSeconds = 2.0;

/** Budget for a fresh worker's Hello frame. */
constexpr double kHelloTimeoutSeconds = 30.0;

obs::MetricsRegistry &
reg()
{
    return obs::MetricsRegistry::global();
}

void
sleepSeconds(double seconds)
{
    if (seconds > 0.0)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(seconds));
}

/** A pidfd for @p pid (readable once the process exits), or -1. */
int
openPidfd(pid_t pid)
{
    return static_cast<int>(syscall(SYS_pidfd_open, pid, 0));
}

/** A reaped worker's wait status, for the shutdown span. */
std::string
describeExit(int status)
{
    if (WIFEXITED(status))
        return strprintf("exit %d", WEXITSTATUS(status));
    if (WIFSIGNALED(status))
        return strprintf("signal %d", WTERMSIG(status));
    return "exited";
}

/** Move @p fd off the child's protocol fds (0 and 3) so the spawn
 *  dup2s cannot clobber it. */
int
moveOffProtocolFds(int fd)
{
    if (fd != 0 && fd != 3)
        return fd;
    const int moved = fcntl(fd, F_DUPFD_CLOEXEC, 10);
    close(fd);
    return moved;
}

/** Parse a Response payload: "<id> <outcome-bytes>". */
bool
parseResponsePayload(const std::string &payload, std::uint64_t *id,
                     ServeOutcome *out)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long parsed =
        std::strtoull(payload.c_str(), &end, 10);
    if (errno == ERANGE || end == payload.c_str() || *end != ' ')
        return false;
    *id = parsed;
    return decodeOutcome(
        payload.substr((end + 1) - payload.c_str()), out);
}

} // namespace

double
boundedBackoff(const BackoffCurve &curve, int attempt)
{
    const double backoff = curve.base * std::pow(2.0, std::min(attempt, 30));
    return std::min(backoff, curve.cap);
}

Supervisor::Supervisor(FleetOptions options)
    : options_(std::move(options)), journal_(options_.journalPath)
{
    if (options_.workers < 1)
        options_.workers = 1;
    if (options_.maxDispatchAttempts < 1)
        options_.maxDispatchAttempts = 1;
}

Supervisor::~Supervisor()
{
    finish();
}

std::string
Supervisor::resolveWorkerExe(const std::string &configured)
{
    if (!configured.empty())
        return configured;
    if (const char *env = std::getenv("TAPACS_WORKER_EXE"))
        if (*env != '\0')
            return env;
    char buf[4096];
    const ssize_t n =
        readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return "";
}

Status
Supervisor::start()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (started_)
            return Status::internal("start() called twice");
    }
    if (options_.inProcess) {
        policy_.cache = &cache::CompileCache::global();
        if (!options_.cacheDir.empty()) {
            cache::CacheStore::Options sopt;
            sopt.directory = options_.cacheDir;
            store_ = std::make_unique<cache::CacheStore>(std::move(sopt));
            ownedCache_ = std::make_unique<cache::CompileCache>(*store_);
            policy_.cache = ownedCache_.get();
        }
        // Session-scoped base retention: newest last, the oldest
        // evicted past the cap; a re-run name refreshes in place,
        // keeping its age. Callers hold retainedMutex_.
        auto held = [this](const std::string &name) {
            return std::find_if(
                retained_.begin(), retained_.end(),
                [&](const auto &entry) { return entry.first == name; });
        };
        policy_.findRetained = [this, held](const std::string &name,
                                            CompileResult *out) {
            std::lock_guard<std::mutex> lock(retainedMutex_);
            const auto it = held(name);
            if (it != retained_.end())
                *out = it->second;
            return it != retained_.end();
        };
        policy_.retain = [this, held](const std::string &name,
                                      const CompileResult &result) {
            std::lock_guard<std::mutex> lock(retainedMutex_);
            if (const auto it = held(name); it != retained_.end())
                it->second = result;
            else if (options_.retainResults > 0)
                retained_.emplace_back(name, result);
            if (retained_.size() >
                static_cast<std::size_t>(options_.retainResults))
                retained_.pop_front();
        };
    } else {
        // A worker that dies mid-frame must surface as a typed write
        // error, not kill the supervisor.
        std::signal(SIGPIPE, SIG_IGN);

        workerExe_ = resolveWorkerExe(options_.workerExe);
        if (workerExe_.empty())
            return Status::invalidInput(
                "no worker executable: set FleetOptions::workerExe or "
                "TAPACS_WORKER_EXE");
    }

    if (!options_.journalPath.empty()) {
        const Status st = replayJournal();
        if (!st.ok())
            return st;
    }

    std::lock_guard<std::mutex> lock(mutex_);
    started_ = true;
    activeSlots_ = options_.workers;
    slots_.reserve(options_.workers);
    threads_.reserve(options_.workers);
    for (int i = 0; i < options_.workers; ++i) {
        slots_.push_back(std::make_unique<Slot>());
        slots_.back()->index = i;
    }
    for (int i = 0; i < options_.workers; ++i)
        threads_.emplace_back([this, i]() { slotLoop(i); });
    if (journal_.isOpen())
        committer_ = std::thread([this]() { commitLoop(); });
    return Status();
}

Status
Supervisor::replayJournal()
{
    const RequestJournal::ScanResult scanned =
        RequestJournal::scan(options_.journalPath);
    if (scanned.corruptSkipped > 0) {
        reg().counter("tapacs.fleet.journal_corrupt_skipped")
            .add(scanned.corruptSkipped);
        warn("fleet: journal '%s': skipped %d corrupt record(s)",
             options_.journalPath.c_str(), scanned.corruptSkipped);
    }
    if (scanned.tornTail)
        warn("fleet: journal '%s': torn tail truncated (crash "
             "mid-append)", options_.journalPath.c_str());

    // First-seen admission order; ends overwrite forward.
    std::vector<std::uint64_t> order;
    std::map<std::uint64_t, std::string> begins;
    std::map<std::uint64_t, std::string> ends;
    std::uint64_t maxId = 0;
    for (const RequestJournal::Record &record : scanned.records) {
        maxId = std::max(maxId, record.id);
        if (begins.count(record.id) == 0 && ends.count(record.id) == 0)
            order.push_back(record.id);
        if (record.end)
            ends[record.id] = record.payload;
        else
            begins.emplace(record.id, record.payload);
    }

    std::vector<RequestJournal::Record> compacted;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        nextId_ = maxId + 1;
        for (const std::uint64_t id : order) {
            Pending pending;
            pending.id = id;
            const auto beginIt = begins.find(id);
            if (beginIt != begins.end()) {
                pending.line = beginIt->second;
                compacted.push_back({id, false, pending.line});
            }
            const auto endIt = ends.find(id);
            const std::size_t idx = pending_.size();
            if (endIt != ends.end()) {
                // Completed before the crash: the stored outcome IS
                // the resolution — exactly-once means never
                // re-reporting a different one.
                FleetOutcome fleet;
                fleet.id = id;
                fleet.replayed = true;
                if (!decodeOutcome(endIt->second, &fleet.outcome)) {
                    fleet.outcome.status = Status::internal(
                        "journal: end record for id %llu did not "
                        "decode", (unsigned long long)id);
                    fleet.outcome.failureReason =
                        fleet.outcome.status.message();
                }
                pending.settled = true;
                compacted.push_back({id, true, endIt->second});
                pending_.push_back(std::move(pending));
                outcomes_.push_back(std::move(fleet));
                ++completed_;
                reg().counter("tapacs.fleet.journal_replayed").add();
                continue;
            }
            // Begun but never resolved: re-execute. Determinism +
            // cache idempotence make this safe.
            const ParsedManifest manifest =
                parseManifest(pending.line);
            FleetOutcome fleet;
            fleet.id = id;
            if (manifest.requests.size() != 1) {
                fleet.outcome.name =
                    strprintf("journal-%llu", (unsigned long long)id);
                fleet.outcome.status = Status::internal(
                    "journal: begin record for id %llu did not "
                    "re-parse", (unsigned long long)id);
                fleet.outcome.failureReason =
                    fleet.outcome.status.message();
                pending_.push_back(std::move(pending));
                outcomes_.push_back(std::move(fleet));
                ++completed_;
                continue;
            }
            pending.req = manifest.requests[0];
            pending_.push_back(std::move(pending));
            outcomes_.push_back(std::move(fleet));
            queue_.push_back(idx);
            reg().counter("tapacs.fleet.journal_resubmitted").add();
        }
    }
    // A damaged journal is compacted: the corrupt junk and the torn
    // tail go for good, and this run's appends cannot land behind a
    // torn record. A clean one (a missing file included) is appended
    // to as it is.
    if (scanned.corruptSkipped > 0 || scanned.tornTail) {
        const Status st =
            RequestJournal::rewrite(options_.journalPath, compacted);
        if (!st.ok())
            return st;
    }
    return journal_.open();
}

Status
Supervisor::submit(const Request &req)
{
    const int copies = std::max(req.repeat, 1);
    for (int copy = 0; copy < copies; ++copy) {
        Request one = req;
        one.repeat = 1;
        // Resolve the effective deadline here so the worker enforces
        // exactly what the supervisor will police.
        if (one.deadlineMs < 0.0 &&
            options_.defaultDeadlineSeconds >= 0.0)
            one.deadlineMs = options_.defaultDeadlineSeconds * 1000.0;

        Pending pending;
        pending.req = one;
        pending.line = renderRequestLine(one);

        std::unique_lock<std::mutex> lock(mutex_);
        if (!started_)
            return Status::internal("submit() before start()");
        if (closed_)
            return Status::internal("submit() after finish()");
        // Admissions still syncing their begin record hold a place.
        const auto waiting = [&]() { return queue_.size() + admitting_; };
        if (options_.maxQueue > 0 &&
            waiting() >= static_cast<std::size_t>(options_.maxQueue)) {
            if (!options_.blockOnFull) {
                reg().counter("tapacs.serve.rejected").add();
                return Status::resourceExhausted(
                    "queue full (%d waiting): request '%s' shed",
                    options_.maxQueue, one.name.c_str());
            }
            // Draining or a dead fleet empties the queue, so the wait
            // always ends.
            spaceCv_.wait(lock, [&]() {
                return closed_ ||
                       waiting() <
                           static_cast<std::size_t>(options_.maxQueue);
            });
            if (closed_)
                return Status::internal(
                    "supervisor closed while blocked on a full queue");
        }
        reg().counter("tapacs.serve.admitted").add();
        pending.id = nextId_++;
        const std::size_t idx = pending_.size();
        // The begin record is written under mutex_, so journal order
        // is id order.
        std::uint64_t seq = 0;
        if (journal_.isOpen()) {
            const Status st =
                journal_.write('B', pending.id, pending.line, &seq);
            if (!st.ok())
                return st;
        }
        FleetOutcome fleet;
        fleet.id = pending.id;
        pending_.push_back(std::move(pending));
        outcomes_.push_back(std::move(fleet));
        if (seq > 0) {
            // Durable before queued: a crash must not lose a request
            // that could already be running, which is the one thing
            // the journal exists to prevent. The fsync runs outside
            // mutex_, so slots keep taking and resolving requests
            // meanwhile (their end records share it).
            ++admitting_;
            lock.unlock();
            const Status st = journal_.sync(seq);
            lock.lock();
            if (--admitting_ == 0 && closed_)
                drainCv_.notify_all(); // finish() waits for this
            if (!st.ok()) {
                // Admitted but never queued: resolve it here, or
                // drain() would wait for it forever. Settled, so the
                // next run does not replay it either.
                FleetOutcome &failed = outcomes_[idx];
                failed.outcome.name = pending_[idx].req.name;
                failed.outcome.status = st;
                failed.outcome.failureReason = st.message();
                publishLocked(idx);
                spaceCv_.notify_one();
                return st;
            }
        }
        queue_.push_back(idx);
        if (draining_) {
            // Admission is closed: the begin record above defers the
            // request to the next run; resolve it for this one like
            // every drained queue entry.
            reg().counter("tapacs.fleet.drained").add();
            failQueuedLocked(kDrained);
        } else if (activeSlots_ == 0) {
            // Every slot is quarantined: nothing will ever drain the
            // queue, so resolve with a typed failure immediately.
            failQueuedLocked("all worker slots quarantined");
        } else {
            queueCv_.notify_one();
        }
    }
    return Status();
}

std::size_t
Supervisor::admitted() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return pending_.size();
}

std::size_t
Supervisor::completedCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return completed_;
}

void
Supervisor::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    drainCv_.wait(lock,
                  [&]() { return completed_ == pending_.size(); });
}

bool
Supervisor::waitForCompletion(double seconds)
{
    std::unique_lock<std::mutex> lock(mutex_);
    return drainCv_.wait_for(
        lock, std::chrono::duration<double>(seconds),
        [&]() { return completed_ == pending_.size(); });
}

void
Supervisor::requestDrain()
{
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
    reg().counter("tapacs.fleet.drained")
        .add(static_cast<std::int64_t>(queue_.size()));
    failQueuedLocked(kDrained);
}

int
Supervisor::quarantinedWorkers() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return quarantined_;
}

void
Supervisor::failQueuedLocked(const char *why)
{
    // Not settled: the begin survives, so a restarted supervisor
    // replays these requests — deferred, not dropped.
    while (!queue_.empty()) {
        const std::size_t idx = queue_.front();
        queue_.pop_front();
        FleetOutcome &fleet = outcomes_[idx];
        fleet.id = pending_[idx].id;
        fleet.outcome.name = pending_[idx].req.name;
        fleet.outcome.status =
            Status::resourceExhausted("fleet: %s", why);
        fleet.outcome.failureReason = fleet.outcome.status.message();
        ++completed_;
    }
    drainCv_.notify_all();
    spaceCv_.notify_all();
}

void
Supervisor::slotLoop(int slotIndex)
{
    Slot &slot = *slots_[slotIndex];
    while (true) {
        std::size_t idx = 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            queueCv_.wait(lock, [&]() {
                return closed_ || !queue_.empty();
            });
            if (queue_.empty())
                break; // closed and drained
            idx = queue_.front();
            queue_.pop_front();
        }
        spaceCv_.notify_one();
        processOne(slot, idx);
        if (slot.quarantined) {
            std::lock_guard<std::mutex> lock(mutex_);
            ++quarantined_;
            if (--activeSlots_ == 0)
                failQueuedLocked("all worker slots quarantined");
            break;
        }
    }
}

void
Supervisor::processOne(Slot &slot, std::size_t idx)
{
    Pending pending;
    bool shed = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        pending = pending_[idx];
        if (breakerOpen_) {
            ++shedSinceOpen_;
            const int probe = options_.breakerProbeEvery;
            shed = probe <= 0 || shedSinceOpen_ % probe != 0;
        }
    }
    obs::TraceSpan span("fleet", "dispatch." + pending.req.name);
    span.arg("slot", static_cast<std::int64_t>(slot.index))
        .arg("attempt",
             static_cast<std::int64_t>(pending.attempts + 1));

    ServeOutcome out;
    if (shed) {
        out.name = pending.req.name;
        out.status = Status::resourceExhausted(
            "circuit breaker open: request '%s' shed", out.name.c_str());
        out.failureReason = out.status.message();
        reg().counter("tapacs.serve.breaker_shed").add();
    } else {
        // Retries stay on this slot. A worker failure mid-retry hands
        // the request back to the queue, which starts it afresh.
        double seconds = 0.0;
        for (int attempt = 0;; ++attempt) {
            if (attempt > 0) {
                reg().counter("tapacs.serve.retries").add();
                sleepSeconds(
                    boundedBackoff(options_.backoff, attempt - 1));
            }
            if (options_.inProcess) {
                out = executeRequest(pending.req, policy_);
            } else if (!dispatchToWorker(slot, idx, pending, &out)) {
                span.arg("status", "DISPATCH_FAILED");
                return;
            }
            seconds += out.seconds;
            out.attempts = attempt + 1;
            const StatusCode code = out.status.code();
            if (out.status.ok() || attempt >= options_.maxRetries ||
                (code != StatusCode::DeadlineExceeded &&
                 code != StatusCode::Internal))
                break;
        }
        out.seconds = seconds;
    }
    span.arg("status", toString(out.status.code()));
    resolve(idx, std::move(out), pending.attempts + out.attempts);
}

bool
Supervisor::dispatchToWorker(Slot &slot, std::size_t idx,
                             const Pending &pending, ServeOutcome *out)
{
    const Status spawned = ensureWorker(slot);
    if (!spawned.ok()) {
        // This slot just went dark; give the request back so a
        // healthy slot (if any) picks it up. It has not consumed a
        // dispatch attempt — no worker ever saw it.
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_front(idx);
        queueCv_.notify_one();
        return false;
    }

    if (options_.chaos.wireDelaySeconds > 0.0)
        sleepSeconds(options_.chaos.wireDelaySeconds);

    reg().counter("tapacs.fleet.dispatches").add();
    Status failure;
    if (dispatchOnce(slot, pending, out, &failure))
        return true;

    bool exhausted = false;
    int attempts = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        attempts = ++pending_[idx].attempts;
        exhausted = attempts >= options_.maxDispatchAttempts;
        if (!exhausted) {
            queue_.push_back(idx);
            queueCv_.notify_one();
            reg().counter("tapacs.fleet.redispatches").add();
        }
    }
    if (exhausted) {
        ServeOutcome failed;
        failed.name = pending.req.name;
        failed.status = Status::internal(
            "fleet: %d dispatch attempt(s) failed; last: %s", attempts,
            failure.message().c_str());
        failed.failureReason = failed.status.message();
        resolve(idx, std::move(failed), attempts);
    }
    return false;
}

void
Supervisor::resolve(std::size_t idx, ServeOutcome out,
                    int dispatchAttempts)
{
    if (out.status.code() == StatusCode::DeadlineExceeded)
        reg().counter("tapacs.serve.deadline_exceeded").add();
    if (out.degraded)
        reg().counter("tapacs.serve.degraded").add();
    const std::string outcomeBytes =
        journal_.isOpen() ? encodeOutcome(out) : std::string();
    std::lock_guard<std::mutex> lock(mutex_);
    if (!out.status.ok()) {
        ++consecutiveFailures_;
        if (options_.breakerThreshold > 0 && !breakerOpen_ &&
            consecutiveFailures_ >= options_.breakerThreshold) {
            breakerOpen_ = true;
            shedSinceOpen_ = 0;
            reg().counter("tapacs.serve.breaker_open").add();
        }
    } else {
        consecutiveFailures_ = 0;
        breakerOpen_ = false; // success (or probe) closes it
    }
    FleetOutcome &fleet = outcomes_[idx];
    fleet.outcome = std::move(out);
    fleet.dispatchAttempts = dispatchAttempts;
    if (journal_.isOpen()) {
        // Durable before visible: the committer publishes the outcome
        // once its end record is on disk, so a crash either replays
        // this very outcome or re-runs a request nobody saw resolve —
        // exactly-once either way. The slot moves on meanwhile.
        std::uint64_t seq = 0;
        const Status st =
            journal_.write('E', pending_[idx].id, outcomeBytes, &seq);
        if (st.ok()) {
            unpublished_.emplace_back(seq, idx);
            commitCv_.notify_one();
            return;
        }
        warn("fleet: journal end for id %llu failed: %s",
             (unsigned long long)pending_[idx].id, st.message().c_str());
    }
    publishLocked(idx);
}

void
Supervisor::publishLocked(std::size_t idx)
{
    pending_[idx].settled = true;
    ++completed_;
    drainCv_.notify_all();
}

void
Supervisor::commitLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        commitCv_.wait(lock, [&]() {
            return commitStop_ || !unpublished_.empty();
        });
        if (unpublished_.empty())
            return; // finish(): every end record is published
        const std::uint64_t target = unpublished_.back().first;
        lock.unlock();
        const Status st = journal_.sync(target);
        lock.lock();
        if (!st.ok())
            warn("fleet: journal end records not durable: %s",
                 st.message().c_str());
        // Publish the synced prefix in seq order, so the k-th
        // completion is the k-th end record in the journal.
        while (!unpublished_.empty() &&
               unpublished_.front().first <= target) {
            publishLocked(unpublished_.front().second);
            unpublished_.pop_front();
        }
    }
}

Status
Supervisor::spawnWorker(Slot &slot)
{
    int request[2]; // supervisor writes -> worker fd 0
    int response[2]; // worker fd 3 -> supervisor reads
    if (pipe2(request, O_CLOEXEC) != 0)
        return Status::internal("fleet: pipe2 failed: %s",
                                std::strerror(errno));
    if (pipe2(response, O_CLOEXEC) != 0) {
        close(request[0]);
        close(request[1]);
        return Status::internal("fleet: pipe2 failed: %s",
                                std::strerror(errno));
    }
    int childIn = moveOffProtocolFds(request[0]);
    int childOut = moveOffProtocolFds(response[1]);
    if (childIn < 0 || childOut < 0) {
        close(request[1]);
        close(response[0]);
        if (childIn >= 0)
            close(childIn);
        if (childOut >= 0)
            close(childOut);
        return Status::internal("fleet: fcntl failed: %s",
                                std::strerror(errno));
    }

    // Faults apply only to the slot's first process (the caller has
    // already counted this spawn): the restarted worker is healthy,
    // so every chaos scenario converges.
    WorkerFault fault;
    if (slot.spawns <= 1)
        fault = options_.chaos.faultFor(slot.index);

    const std::string heartbeatArg = strprintf(
        "--heartbeat-ms=%.6g",
        options_.heartbeatPeriodSeconds * 1000.0);
    const std::string cacheArg = "--cache-dir=" + options_.cacheDir;
    const std::string faultArg =
        "--fault=" + encodeWorkerFault(fault);
    std::vector<char *> argv;
    argv.push_back(const_cast<char *>(workerExe_.c_str()));
    argv.push_back(const_cast<char *>("--worker"));
    argv.push_back(const_cast<char *>(heartbeatArg.c_str()));
    argv.push_back(const_cast<char *>(cacheArg.c_str()));
    argv.push_back(const_cast<char *>(faultArg.c_str()));
    argv.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    // dup2 clears O_CLOEXEC on the new fds; everything else in this
    // process is CLOEXEC, so the child sees only its two pipe ends.
    posix_spawn_file_actions_adddup2(&actions, childIn, 0);
    posix_spawn_file_actions_adddup2(&actions, childOut, 3);

    pid_t pid = 0;
    const int rc = posix_spawn(&pid, workerExe_.c_str(), &actions,
                               nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(childIn);
    close(childOut);
    if (rc != 0) {
        close(request[1]);
        close(response[0]);
        return Status::internal("fleet: cannot spawn '%s': %s",
                                workerExe_.c_str(), std::strerror(rc));
    }
    slot.pid = pid;
    slot.toChild = request[1];
    slot.fromChild = response[0];
    reg().counter("tapacs.fleet.worker_spawns").add();

    // The worker leads with Hello; a binary that is not a tapacs
    // worker (or dies on startup) fails here and counts toward
    // quarantine.
    Frame hello;
    const Status st =
        readFrame(slot.fromChild, kHelloTimeoutSeconds, &hello);
    if (!st.ok() || hello.type != FrameType::Hello) {
        killWorker(slot);
        return Status::internal(
            "fleet: worker on slot %d sent no Hello: %s", slot.index,
            st.ok() ? "unexpected frame" : st.message().c_str());
    }
    return Status();
}

Status
Supervisor::ensureWorker(Slot &slot)
{
    if (slot.quarantined)
        return Status::resourceExhausted("fleet: slot %d quarantined",
                                         slot.index);
    while (slot.pid == 0) {
        if (slot.spawns > options_.restartLimit) {
            slot.quarantined = true;
            reg().counter("tapacs.fleet.quarantined").add();
            warn("fleet: slot %d quarantined after %d spawn "
                 "attempt(s)", slot.index, slot.spawns);
            return Status::resourceExhausted(
                "fleet: slot %d quarantined", slot.index);
        }
        if (slot.spawns > 0) {
            reg().counter("tapacs.fleet.worker_restarts").add();
            sleepSeconds(boundedBackoff(options_.backoff,
                                        slot.spawns - 1));
        }
        ++slot.spawns;
        const Status st = spawnWorker(slot);
        if (!st.ok())
            warn("%s", st.message().c_str());
    }
    return Status();
}

void
Supervisor::killWorker(Slot &slot)
{
    if (slot.toChild >= 0) {
        close(slot.toChild);
        slot.toChild = -1;
    }
    if (slot.fromChild >= 0) {
        close(slot.fromChild);
        slot.fromChild = -1;
    }
    if (slot.pid > 0) {
        kill(slot.pid, SIGKILL);
        waitpid(slot.pid, nullptr, 0);
        slot.pid = 0;
    }
}

void
Supervisor::reapWorkers()
{
    obs::TraceSpan span("fleet", "fleet.shutdown");
    obs::Counter &kills = reg().counter("tapacs.fleet.shutdown_kills");
    // Tell every worker first, so they all exit in parallel.
    for (auto &slot : slots_) {
        if (slot->pid > 0 && slot->toChild >= 0) {
            writeFrame(slot->toChild, FrameType::Shutdown, "");
            close(slot->toChild); // EOF backstops the Shutdown frame
            slot->toChild = -1;
        }
    }

    const double start = monotonicSeconds();
    const double deadline = start + kShutdownGraceSeconds;
    std::vector<std::string> fates(slots_.size(), "no worker");
    auto settle = [&](Slot &slot, const std::string &fate) {
        fates[slot.index] = strprintf(
            "%s, %lld us", fate.c_str(),
            (long long)((monotonicSeconds() - start) * 1.0e6));
    };
    auto forceKill = [&](Slot &slot) {
        kills.add();
        killWorker(slot);
        settle(slot, "killed");
    };

    // One pidfd per live worker; each turns readable when it exits.
    std::vector<pollfd> exiting;
    std::vector<Slot *> owners;
    for (auto &slot : slots_) {
        if (slot->pid <= 0)
            continue;
        const int pidfd = openPidfd(slot->pid);
        if (pidfd < 0) {
            forceKill(*slot);
            continue;
        }
        exiting.push_back({pidfd, POLLIN, 0});
        owners.push_back(slot.get());
    }
    while (!exiting.empty()) {
        const double left = deadline - monotonicSeconds();
        if (left <= 0.0)
            break;
        const int ready =
            poll(exiting.data(), exiting.size(),
                 static_cast<int>(std::ceil(left * 1000.0)));
        if (ready < 0 && errno != EINTR)
            break;
        for (std::size_t i = exiting.size(); ready > 0 && i-- > 0;) {
            if (exiting[i].revents == 0)
                continue;
            Slot &slot = *owners[i];
            int status = 0;
            const bool reaped = waitpid(slot.pid, &status, 0) == slot.pid;
            slot.pid = 0;
            settle(slot, reaped ? describeExit(status) : "exited");
            close(exiting[i].fd);
            exiting.erase(exiting.begin() + i);
            owners.erase(owners.begin() + i);
        }
    }
    for (std::size_t i = 0; i < exiting.size(); ++i) {
        close(exiting[i].fd);
        forceKill(*owners[i]);
    }

    for (auto &slot : slots_) {
        killWorker(*slot); // no worker left; closes the response pipe
        span.arg(strprintf("slot%d", slot->index).c_str(),
                 fates[slot->index]);
    }
}

bool
Supervisor::dispatchOnce(Slot &slot, const Pending &pending,
                         ServeOutcome *out, Status *failure)
{
    const std::string payload =
        strprintf("%llu ", (unsigned long long)pending.id) +
        pending.line;
    Status st = writeFrame(slot.toChild, FrameType::Request, payload);
    if (!st.ok()) {
        reg().counter("tapacs.fleet.worker_deaths").add();
        killWorker(slot);
        *failure = Status::internal(
            "fleet: worker on slot %d rejected the request: %s",
            slot.index, st.message().c_str());
        return false;
    }

    // deadline_ms=0 is the greedy tier, which runs with no clock.
    const double deadlineSeconds =
        pending.req.deadlineMs > 0.0 ? pending.req.deadlineMs / 1000.0
                                     : -1.0;
    const double now = monotonicSeconds();
    const double attemptDeadline =
        deadlineSeconds >= 0.0
            ? now + deadlineSeconds + kDeadlineGraceSeconds
            : -1.0;
    double heartbeatDeadline =
        now + options_.heartbeatTimeoutSeconds;

    while (true) {
        const double tick = monotonicSeconds();
        double budget = heartbeatDeadline - tick;
        if (attemptDeadline >= 0.0)
            budget = std::min(budget, attemptDeadline - tick);
        budget = std::max(budget, 0.0);

        Frame frame;
        bool corrupt = false;
        st = readFrame(slot.fromChild, budget, &frame, &corrupt);
        if (st.ok()) {
            if (frame.type == FrameType::Heartbeat) {
                heartbeatDeadline = monotonicSeconds() +
                                    options_.heartbeatTimeoutSeconds;
                continue;
            }
            if (frame.type == FrameType::Response) {
                std::uint64_t id = 0;
                if (!parseResponsePayload(frame.payload, &id, out) ||
                    id != pending.id) {
                    reg().counter("tapacs.fleet.wire_crc_errors")
                        .add();
                    killWorker(slot);
                    *failure = Status::internal(
                        "fleet: slot %d returned a malformed or "
                        "mismatched response", slot.index);
                    return false;
                }
                return true;
            }
            continue; // stray Hello etc.: valid frame, keep reading
        }
        if (st.code() == StatusCode::DeadlineExceeded) {
            const double late = monotonicSeconds();
            if (attemptDeadline >= 0.0 && late >= attemptDeadline) {
                reg().counter("tapacs.fleet.deadline_kills").add();
                killWorker(slot);
                *failure = Status::deadlineExceeded(
                    "fleet: slot %d overran the request deadline "
                    "(+%.1fs grace)", slot.index,
                    kDeadlineGraceSeconds);
                return false;
            }
            if (late >= heartbeatDeadline) {
                reg().counter("tapacs.fleet.heartbeat_timeouts").add();
                killWorker(slot);
                *failure = Status::internal(
                    "fleet: slot %d went silent for %.2fs",
                    slot.index, options_.heartbeatTimeoutSeconds);
                return false;
            }
            continue; // spurious wake: budget math rounds
        }
        if (corrupt)
            reg().counter("tapacs.fleet.wire_crc_errors").add();
        else
            reg().counter("tapacs.fleet.worker_deaths").add();
        killWorker(slot);
        *failure = Status::internal(
            "fleet: slot %d connection failed: %s", slot.index,
            st.message().c_str());
        return false;
    }
}

std::vector<FleetOutcome>
Supervisor::finish()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (finished_ || !started_) {
            finished_ = true;
            return {};
        }
        finished_ = true;
        closed_ = true;
        // A submit() syncing a begin record outside the lock has yet
        // to queue its request.
        drainCv_.wait(lock, [&]() { return admitting_ == 0; });
    }
    queueCv_.notify_all();
    spaceCv_.notify_all(); // wake submitters blocked on a full queue
    for (std::thread &t : threads_)
        t.join();
    threads_.clear();
    {
        // Slot threads can all exit via quarantine with work still
        // queued; nothing will run it now.
        std::lock_guard<std::mutex> lock(mutex_);
        failQueuedLocked("service shut down before dispatch");
        commitStop_ = true;
    }
    if (committer_.joinable()) {
        commitCv_.notify_one();
        committer_.join();
    }
    if (!options_.inProcess)
        reapWorkers();

    if (journal_.isOpen()) {
        journal_.close();
        // Compact to exactly the unresolved begins (drained
        // requests): the next supervisor replays those and nothing
        // else. A fully-delivered batch leaves an empty journal.
        std::vector<RequestJournal::Record> keep;
        std::lock_guard<std::mutex> lock(mutex_);
        for (const Pending &pending : pending_) {
            if (!pending.settled && !pending.line.empty())
                keep.push_back({pending.id, false, pending.line});
        }
        const Status st =
            RequestJournal::rewrite(options_.journalPath, keep);
        if (!st.ok())
            warn("fleet: journal compaction failed: %s",
                 st.message().c_str());
    }

    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(outcomes_);
}

} // namespace tapacs::serve
