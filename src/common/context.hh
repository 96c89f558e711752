/**
 * @file
 * Request context: the deadline of one request, threaded through
 * every phase of the compile flow.
 *
 * A Context is a cheap value type (one double). Expiry is
 * *cooperative*: long-running loops (the branch-and-bound node loop,
 * the simplex pivot loop, the FM refinement passes, the simulator's
 * event loop) poll expired() and unwind with their best incumbent —
 * nothing is killed, so every request still produces a typed
 * response.
 *
 * The default-constructed Context has no deadline; polling it costs
 * one compare and no clock read, so library code can poll
 * unconditionally.
 */

#ifndef TAPACS_COMMON_CONTEXT_HH
#define TAPACS_COMMON_CONTEXT_HH

#include <limits>

#include "common/status.hh"

namespace tapacs
{

/** Monotonic wall clock in seconds (steady_clock). */
double monotonicSeconds();

/** The deadline of one request. */
class Context
{
  public:
    /** No deadline. */
    Context() = default;

    /** A context expiring @p seconds from now (seconds <= 0 means
     *  already expired — useful for forcing the deterministic
     *  degraded path). */
    static Context withTimeout(double seconds);

    /**
     * A child context whose deadline is the sooner of this one and
     * @p seconds from now. This is how the compiler slices the
     * request's remaining time into per-phase budgets: a phase may
     * spend at most its slice, and never more than the request has.
     */
    Context withBudget(double seconds) const;

    /** True when a deadline was set. A run under such a context
     *  depends on wall-clock timing, so it never writes the compile
     *  cache. */
    bool
    hasDeadline() const
    {
        return deadline_ < std::numeric_limits<double>::infinity();
    }

    /** Absolute deadline on the monotonicSeconds() clock (+inf when
     *  none). */
    double deadline() const { return deadline_; }

    /** Seconds until the deadline (+inf when none; <= 0 when past). */
    double
    remainingSeconds() const
    {
        if (!hasDeadline())
            return std::numeric_limits<double>::infinity();
        return deadline_ - monotonicSeconds();
    }

    /** Poll point: true once the deadline has passed. */
    bool
    expired() const
    {
        return hasDeadline() && monotonicSeconds() > deadline_;
    }

    /** Ok, or DeadlineExceeded once expired. */
    Status status() const;

  private:
    explicit Context(double deadline) : deadline_(deadline) {}

    double deadline_ = std::numeric_limits<double>::infinity();
};

} // namespace tapacs

#endif // TAPACS_COMMON_CONTEXT_HH
