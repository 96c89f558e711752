/**
 * @file
 * The fleet worker: one out-of-process request executor.
 *
 * runWorker() is the whole child process after `tapacs-serve
 * --worker` parses its flags: announce Hello, then loop — read a
 * Request frame, execute it with the same executeRequest() core the
 * supervisor's in-process executor calls, write the Response frame. A background
 * thread emits Heartbeat frames on a timer so the supervisor can
 * tell "long compile" from "wedged process" without guessing.
 *
 * Frames arrive on inFd (fd 0) and leave on outFd (fd 3): keeping
 * stdout/stderr out of the protocol means worker logging can never
 * corrupt the stream. All writes to outFd go through one mutex —
 * a heartbeat must never land inside a response frame.
 *
 * The worker owns a private CacheStore/CompileCache over the
 * supervisor's --cache-dir; the *disk* tier is the shared medium, so
 * a request re-dispatched to a different worker after a crash reuses
 * every artifact the dead worker managed to publish (temp + rename
 * makes partially-written entries invisible, CRC64 makes torn ones
 * typed misses). That, plus deterministic compiles, is why a retried
 * request is bit-identical to an uninterrupted one.
 *
 * Chaos faults (serve/chaos) are self-injected deterministically
 * when configured — see chaos.hh for the kill/hang/stall semantics.
 */

#ifndef TAPACS_SERVE_WORKER_HH
#define TAPACS_SERVE_WORKER_HH

#include <string>

#include "serve/chaos.hh"

namespace tapacs::serve
{

struct WorkerConfig
{
    /** Request frames in (the spawn wires the supervisor's pipe
     *  here). */
    int inFd = 0;
    /** Response/heartbeat frames out. */
    int outFd = 3;
    /** Disk cache directory shared with the fleet; empty =
     *  uncached. */
    std::string cacheDir;
    /** Heartbeat emission period. */
    double heartbeatPeriodSeconds = 0.05;
    /** Self-injected chaos fault (None in production). */
    WorkerFault fault;
};

/**
 * Serve requests until EOF or a Shutdown frame; returns the process
 * exit code (0 = clean shutdown, 1 = wire failure).
 */
int runWorker(const WorkerConfig &config);

} // namespace tapacs::serve

#endif // TAPACS_SERVE_WORKER_HH
