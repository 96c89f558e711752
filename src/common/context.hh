/**
 * @file
 * Request context: the deadline of one request, threaded through
 * every phase of the compile flow.
 *
 * A Context is a cheap value type (one double). Expiry is
 * *cooperative*: long-running loops (the branch-and-bound node loop,
 * the simplex pivot loop, the FM refinement passes, the simulator's
 * event loop) poll expired() and unwind early — nothing is killed.
 * A deadline only stops work: whoever owns the run checks expired()
 * once the loops return and discards what they produced, so the
 * request comes back DeadlineExceeded with no result. Which design a
 * compile produces never depends on the clock (see applyDeadline in
 * compiler/compiler.hh for how a deadline's value picks the effort
 * tier).
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
     *  already expired — a deterministic abort for tests). */
    static Context withTimeout(double seconds);

    /** True when a deadline was set. */
    bool
    hasDeadline() const
    {
        return deadline_ < std::numeric_limits<double>::infinity();
    }

    /** Absolute deadline on the monotonicSeconds() clock (+inf when
     *  none). */
    double deadline() const { return deadline_; }

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
