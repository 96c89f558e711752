/**
 * @file
 * Seeded, bit-replayable chaos plans for the serving fleet: worker
 * processes that die, hang or stall, and a delayed wire.
 *
 * A ChaosPlan is built explicitly (kill/hang/stall/delayWire) or
 * drawn from a seed (randomPlan); either way it is plain data, so
 * the same plan applied to the same request set produces the same
 * fault sequence on every run. Worker faults are *self-injected*:
 * the supervisor passes the slot's fault to the worker process on
 * its command line, and the worker trips it deterministically when
 * it has served the configured number of requests — no signal races,
 * no timing dependence. A fault applies only to the slot's first
 * process; the restarted worker is healthy, which is exactly the
 * crash-then-recover shape the tests need to converge.
 *
 *   Kill   _Exit at request receipt: worker death mid-compile. The
 *          supervisor sees EOF on the response pipe.
 *   Hang   heartbeats stop, the worker sleeps: a wedged process. The
 *          supervisor's heartbeat timeout fires.
 *   Stall  heartbeats continue, the response is late: a live but
 *          overrunning compile. The per-attempt deadline fires.
 *
 * The wire delay is supervisor-side (a sleep before each dispatch),
 * modeling a slow link without touching the worker.
 *
 * The file-corruption helpers (truncateTail, flipBit) mutate
 * cache/journal files between runs; the CRC64 layers below must turn
 * every such mutation into a typed miss or a skipped record — that is
 * what the chaos suite asserts.
 */

#ifndef TAPACS_SERVE_CHAOS_HH
#define TAPACS_SERVE_CHAOS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace tapacs::serve
{

enum class WorkerFaultKind
{
    None = 0,
    Kill,
    Hang,
    Stall,
};

struct WorkerFault
{
    WorkerFaultKind kind = WorkerFaultKind::None;
    /** Trip after serving this many requests (0 = on the first). */
    int afterRequests = 0;
    /** Hang/Stall duration; a Hang only needs to outlive the
     *  supervisor's heartbeat timeout (it gets SIGKILLed). */
    double seconds = 0.0;
};

/** One scenario's worth of faults; plain data, freely copyable. */
struct ChaosPlan
{
    /** faultFor(slot) — indexed by worker slot, missing = healthy. */
    std::vector<WorkerFault> workerFaults;
    /** Supervisor-side sleep before each dispatch. */
    double wireDelaySeconds = 0.0;

    ChaosPlan &kill(int slot, int afterRequests);
    ChaosPlan &hang(int slot, int afterRequests, double seconds);
    ChaosPlan &stall(int slot, int afterRequests, double seconds);
    ChaosPlan &delayWire(double seconds);

    /** The fault for @p slot (None when the plan has none). */
    WorkerFault faultFor(int slot) const;
};

/**
 * Draw a scenario from @p seed for a fleet of @p workers serving
 * @p requests: each slot independently gets a kill, hang, stall or
 * nothing, tripping somewhere inside the request range, plus an
 * occasional small wire delay. Same seed = same plan, always.
 */
ChaosPlan randomPlan(std::uint64_t seed, int workers, int requests);

/** "none" | "kill:N" | "hang:N:SECS" | "stall:N:SECS" — the argv
 *  form the supervisor hands a worker. */
std::string encodeWorkerFault(const WorkerFault &fault);
bool decodeWorkerFault(const std::string &text, WorkerFault *out);

/** Truncate the last @p bytes of @p path; false if it cannot (file
 *  missing or smaller than @p bytes + 1). */
bool truncateTail(const std::string &path, std::size_t bytes);

/** Flip one bit of @p path (bitIndex wraps modulo the file size). */
bool flipBit(const std::string &path, std::uint64_t bitIndex);

} // namespace tapacs::serve

#endif // TAPACS_SERVE_CHAOS_HH
