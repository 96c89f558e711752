/**
 * @file
 * The supervisor: the one serving core, with two executors.
 *
 * The supervisor owns the request queue, admission control, retries,
 * the circuit breaker, the durable journal and the drain; a fixed set
 * of slot threads takes requests off the queue. Where a slot runs the
 * request is the one executor choice (FleetOptions::inProcess):
 *
 *   in-process        the slot thread calls executeRequest() itself
 *                     (serve/execute), against one shared compile
 *                     cache and the session's retained base= results.
 *   worker process    the slot owns an out-of-process worker
 *                     (serve/worker, spawned from the tapacs-serve
 *                     binary) and ships the request over the
 *                     CRC-checked frame protocol (serve/wire).
 *
 * Both executors get the same queue-level contract (bounded queue,
 * circuit breaker, a fresh deadline per execution, bounded retries;
 * see FleetOptions), the same journal and the same drain.
 *
 * A worker process is additionally watched with two kill paths:
 *
 *   heartbeat timeout   the worker went silent (crash, hang, kill
 *                       -9): SIGKILL + restart, re-dispatch.
 *   deadline overrun    the worker is alive (heartbeating) but has
 *                       blown the request deadline plus a grace
 *                       window — the healthy path is that the worker
 *                       enforces the deadline itself and returns a
 *                       typed DEADLINE_EXCEEDED outcome; the kill is
 *                       the backstop for a wedged solve. A request
 *                       with deadline_ms=0 runs the greedy tier with
 *                       no deadline, so only the heartbeat guards
 *                       it.
 *
 * Worker restarts sleep the same backoff curve; a slot that keeps
 * dying past the restart limit is quarantined. A re-dispatched
 * request is safe because compiles are deterministic and idempotent
 * through the content-addressed disk cache: the retry produces a
 * bit-identical result (ServeOutcome::resultDigest), so at-least-once
 * execution still yields exactly-once typed outcomes.
 *
 * With a journal path configured, every admission writes a begin
 * record and every resolution an end record (serve/journal), under
 * two invariants:
 *
 *   durable before queued    submit() syncs the begin record before
 *                            the request can be dispatched.
 *   durable before visible   an outcome counts as completed (for
 *                            completedCount, drain, finish) only once
 *                            its end record is durable.
 *
 * Records are written under the supervisor lock and fsync'd outside
 * it (RequestJournal::sync, a group commit): a slot hands its end
 * record to one committer thread and takes its next request at once;
 * the committer syncs and publishes outcomes in journal order. start()
 * replays an existing journal: completed ids resolve immediately from
 * their stored outcome, incomplete ids re-enter the queue — a
 * supervisor crash therefore loses no request and double-reports
 * none. Corrupt journal records are skipped with a typed diagnostic
 * and counted.
 *
 * Counters: tapacs.serve.{admitted,rejected,retries,
 * deadline_exceeded,degraded,breaker_open,breaker_shed} for the
 * queue-level contract; tapacs.fleet.{dispatches,redispatches,
 * worker_spawns,worker_restarts,worker_deaths,heartbeat_timeouts,
 * deadline_kills,wire_crc_errors,quarantined,drained,
 * journal_replayed,journal_resubmitted,journal_corrupt_skipped,
 * journal_fsyncs,shutdown_kills} for the fleet. Each request a slot
 * takes runs under a "fleet" trace span; finish() reaps the workers
 * under a "fleet.shutdown" span.
 */

#ifndef TAPACS_SERVE_SUPERVISOR_HH
#define TAPACS_SERVE_SUPERVISOR_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/types.h>

#include "common/status.hh"
#include "serve/chaos.hh"
#include "serve/execute.hh"
#include "serve/journal.hh"
#include "serve/manifest.hh"

namespace tapacs::cache
{
class CacheStore;
} // namespace tapacs::cache

namespace tapacs::serve
{

/** Bounded exponential backoff, in seconds. */
struct BackoffCurve
{
    /** Interval after the first failure; doubles per failure. */
    double base = 5.0e-3;
    /** Ceiling on any single interval. */
    double cap = 0.25;
};

/**
 * Interval to sit out after failure @p attempt (0-based):
 * min(base * 2^min(attempt, 30), cap). No jitter: recovery must be
 * deterministic.
 */
double boundedBackoff(const BackoffCurve &curve, int attempt);

/** Serving policy, for both executors unless noted. */
struct FleetOptions
{
    /** Slots: concurrent requests in flight (worker processes, or
     *  threads when inProcess). */
    int workers = 2;
    /** Run requests on the slot threads themselves (executeRequest)
     *  instead of in worker processes. */
    bool inProcess = false;
    /** Worker executable; empty = TAPACS_WORKER_EXE, then
     *  /proc/self/exe (see resolveWorkerExe). Unused in-process. */
    std::string workerExe;
    /** Shared disk cache directory; empty = uncached workers (a
     *  re-dispatch then recomputes from scratch — still
     *  bit-identical, just slower), or the process-wide
     *  CompileCache::global() in-process. */
    std::string cacheDir;
    /** Durable request journal path; empty = no journal. */
    std::string journalPath;
    /** Deadline for requests that carry none (seconds; < 0 = none,
     *  0 = the greedy tier; see applyDeadline). */
    double defaultDeadlineSeconds = -1.0;
    /** Waiting-queue bound; 0 = unbounded. */
    int maxQueue = 0;
    /** With a full queue: true = submit() blocks until space
     *  (backpressure), false = shed with ResourceExhausted. */
    bool blockOnFull = false;
    /** Extra executions after a retryable outcome (DeadlineExceeded /
     *  Internal). Each starts a fresh deadline. */
    int maxRetries = 0;
    /** Consecutive failed requests that open the circuit breaker;
     *  0 disables the breaker. */
    int breakerThreshold = 0;
    /** While open, every Nth shed candidate runs anyway as a probe;
     *  a successful probe closes the breaker. */
    int breakerProbeEvery = 8;
    /**
     * In-process only: keep up to this many completed routable
     * results, by request name, as `base=` candidates for
     * incremental= requests (insertion-order eviction past the cap;
     * 0 disables retention). A pure serving knob — it never reaches a
     * compile-cache key, so incremental and cold compiles address
     * the same entries.
     */
    int retainResults = 64;
    /** Worker heartbeat emission period. */
    double heartbeatPeriodSeconds = 0.05;
    /** Silence longer than this kills the worker. */
    double heartbeatTimeoutSeconds = 1.0;
    /** Dispatch attempts per request before a typed failure. */
    int maxDispatchAttempts = 3;
    /** Worker restarts per slot before quarantine. */
    int restartLimit = 4;
    /** Backoff slept before each retry and each worker restart. */
    BackoffCurve backoff;
    /** Fault injection (empty plan in production). */
    ChaosPlan chaos;
};

/** One request's fleet-level resolution. */
struct FleetOutcome
{
    /** Journal id (stable across supervisor restarts). */
    std::uint64_t id = 0;
    ServeOutcome outcome;
    /** Executions and dispatches spent (1 = no worker failed under
     *  it and no retry); 0 for outcomes resolved without running
     *  (journal replay, drain, shed). */
    int dispatchAttempts = 0;
    /** Resolved from a journal end record, not executed here. */
    bool replayed = false;
};

/**
 * The serving core. Construct, start() (spawns nothing yet — workers
 * spawn lazily on first dispatch; replays the journal), submit() requests,
 * then finish() to collect every outcome in admission order —
 * replayed ids first, then this run's admissions. finish() is
 * terminal; the destructor calls it if the caller did not.
 */
class Supervisor
{
  public:
    explicit Supervisor(FleetOptions options);
    ~Supervisor();

    Supervisor(const Supervisor &) = delete;
    Supervisor &operator=(const Supervisor &) = delete;

    /** Open + replay the journal, start slot threads. */
    Status start();

    /**
     * Admit a request (expanding Request::repeat into independent
     * copies). With a journal, each copy is queued — can be
     * dispatched — only once its begin record is durable, and Ok
     * means exactly that, so an admitted request survives a
     * supervisor crash. If that sync fails, the copy resolves with
     * the typed Internal error, which is also returned. A copy that
     * meets a full queue blocks (blockOnFull) or is shed: no outcome,
     * no further copies, ResourceExhausted.
     */
    Status submit(const Request &req);

    /** Requests admitted (journal replays included). */
    std::size_t admitted() const;

    /**
     * Requests resolved so far. With a journal, an executed request
     * counts only once its end record is durable, and these
     * completions come in journal order: the k-th is the k-th end
     * record.
     */
    std::size_t completedCount() const;

    /** Block until every admitted request has an outcome. */
    void drain();

    /** drain(), bounded: true once every admitted request has an
     *  outcome, false if @p seconds pass first. */
    bool waitForCompletion(double seconds);

    /**
     * Graceful drain: stop dispatching. Queued requests resolve with
     * a typed ResourceExhausted outcome for this run but keep their
     * journal begin records, so a restarted supervisor replays them
     * — drained is deferred, never dropped.
     */
    void requestDrain();

    /** Slots quarantined so far. */
    int quarantinedWorkers() const;

    /** Stop dispatching, reap workers (reapWorkers), compact the
     *  journal, return all outcomes in admission order. */
    std::vector<FleetOutcome> finish();

    /**
     * Worker-executable resolution: @p configured if non-empty, else
     * $TAPACS_WORKER_EXE, else /proc/self/exe, else "". No existence
     * check — a missing binary surfaces as spawn failures and ends
     * in quarantine, which is itself a tested path.
     */
    static std::string resolveWorkerExe(const std::string &configured);

  private:
    struct Pending
    {
        std::uint64_t id = 0;
        Request req;
        /** renderRequestLine(req), deadline resolved — the exact
         *  bytes journaled and sent on the wire. */
        std::string line;
        int attempts = 0;
        /** Resolved for good (end record journaled or replayed, or
         *  admission failed): finish() compacts its begin away. */
        bool settled = false;
    };

    struct Slot
    {
        int index = 0;
        pid_t pid = 0;
        int toChild = -1;
        int fromChild = -1;
        /** Spawn attempts so far (first spawn included). */
        int spawns = 0;
        bool quarantined = false;
    };

    void slotLoop(int slotIndex);
    /** Run pending_[idx] on @p slot (retries included); records the
     *  outcome or requeues. */
    void processOne(Slot &slot, std::size_t idx);
    /** One dispatch of pending_[idx] to the slot's worker process.
     *  False => the request was requeued or failed for good. */
    bool dispatchToWorker(Slot &slot, std::size_t idx,
                          const Pending &pending, ServeOutcome *out);
    /** Make sure the slot has a live, Hello'd worker. Not Ok =>
     *  the slot just became quarantined. */
    Status ensureWorker(Slot &slot);
    Status spawnWorker(Slot &slot);
    /** SIGKILL + reap + close fds. */
    void killWorker(Slot &slot);
    /** Shutdown frame and EOF to every live worker, then wait on
     *  their pidfds against one shared grace deadline; SIGKILL what
     *  is still alive after it. */
    void reapWorkers();
    /** One wire round-trip. False => @p failure explains; the worker
     *  has been killed. */
    bool dispatchOnce(Slot &slot, const Pending &pending,
                      ServeOutcome *out, Status *failure);
    /** The completion point for a request a slot took: count the
     *  outcome, vote the circuit breaker, store the outcome, write
     *  the end record and hand it to the committer (or publish at
     *  once without a journal). Caller must NOT hold mutex_. */
    void resolve(std::size_t idx, ServeOutcome out,
                 int dispatchAttempts);
    /** Make outcomes_[idx] visible: settle it, bump completed_.
     *  Caller holds mutex_. */
    void publishLocked(std::size_t idx);
    /** The committer thread: sync the newest unpublished end record,
     *  then publish every one up to it in journal order. */
    void commitLoop();
    /** Resolve everything still queued with a typed ResourceExhausted
     *  outcome, deferred to the journal (drain, all slots quarantined,
     *  late finish). Caller holds mutex_. */
    void failQueuedLocked(const char *why);
    Status replayJournal();

    FleetOptions options_;
    std::string workerExe_;
    RequestJournal journal_;
    /** In-process executor: the cache it compiles against (an owned
     *  disk tier, or the global one) and the hooks it runs with. */
    std::unique_ptr<cache::CacheStore> store_;
    std::unique_ptr<cache::CompileCache> ownedCache_;
    ExecutePolicy policy_;

    mutable std::mutex mutex_;
    std::condition_variable queueCv_;
    std::condition_variable spaceCv_; ///< submitters: queue has space
    std::condition_variable drainCv_;
    std::condition_variable commitCv_; ///< committer: end records
    std::deque<std::size_t> queue_; ///< indices into pending_
    /** Written, not yet durable end records: (journal seq, index
     *  into pending_), in seq order. */
    std::deque<std::pair<std::uint64_t, std::size_t>> unpublished_;
    /** submit() calls syncing a begin record outside mutex_. */
    std::size_t admitting_ = 0;
    std::deque<Pending> pending_;   ///< admission order
    std::vector<FleetOutcome> outcomes_;
    std::size_t completed_ = 0;
    std::uint64_t nextId_ = 1;
    bool started_ = false;
    bool closed_ = false;
    bool draining_ = false;
    bool finished_ = false;
    bool commitStop_ = false;
    int activeSlots_ = 0;
    int quarantined_ = 0;

    // Circuit breaker (guarded by mutex_).
    int consecutiveFailures_ = 0;
    bool breakerOpen_ = false;
    std::size_t shedSinceOpen_ = 0;

    // In-process base= retention, oldest first (own mutex: retained
    // results are read and written mid-execution, while mutex_
    // guards the queue).
    std::mutex retainedMutex_;
    std::deque<std::pair<std::string, CompileResult>> retained_;

    std::vector<std::unique_ptr<Slot>> slots_;
    std::vector<std::thread> threads_;
    std::thread committer_;
};

} // namespace tapacs::serve

#endif // TAPACS_SERVE_SUPERVISOR_HH
