/**
 * @file
 * Request context: a deadline plus a cooperative cancellation token,
 * threaded through every phase of the compile flow.
 *
 * A Context is a cheap value type (one double + one shared_ptr); every
 * copy observes the same cancellation flag, so a caller holding one
 * copy can cancel a solve running deep inside the ILP tier holding
 * another. Cancellation is *cooperative*: long-running loops (the
 * branch-and-bound node loop, the simplex pivot loop, the FM
 * refinement passes) poll done() and unwind with their best incumbent
 * — nothing is killed, so every request still produces a typed
 * response.
 *
 * The default-constructed Context has no deadline and can never be
 * cancelled; polling it costs two loads and no clock read, so library
 * code can poll unconditionally.
 */

#ifndef TAPACS_COMMON_CONTEXT_HH
#define TAPACS_COMMON_CONTEXT_HH

#include <atomic>
#include <limits>
#include <memory>

#include "common/status.hh"

namespace tapacs
{

/** Monotonic wall clock in seconds (steady_clock). */
double monotonicSeconds();

/** Deadline + cancellation token for one request. */
class Context
{
  public:
    /** No deadline, not cancellable. */
    Context() = default;

    /** A cancellable context expiring @p seconds from now
     *  (seconds <= 0 means already expired — useful for forcing the
     *  deterministic degraded path). */
    static Context withTimeout(double seconds);

    /** A cancellable context with no deadline. */
    static Context cancellable();

    /**
     * A child context sharing this cancellation token whose deadline
     * is the sooner of this one and @p seconds from now. This is how
     * the compiler slices the request's remaining time into per-phase
     * budgets: a phase may spend at most its slice, and cancelling
     * the parent still cancels every child.
     */
    Context withBudget(double seconds) const;

    /** True when a deadline was set. */
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

    /** True when this context can be cancelled at all (i.e. it came
     *  from withTimeout()/cancellable(), not the default). */
    bool cancellable_token() const { return cancel_ != nullptr; }

    /** Request cooperative cancellation; every copy observes it. */
    void
    cancel() const
    {
        if (cancel_)
            cancel_->store(true, std::memory_order_release);
    }

    bool
    cancelled() const
    {
        return cancel_ && cancel_->load(std::memory_order_acquire);
    }

    bool
    expired() const
    {
        return hasDeadline() && monotonicSeconds() > deadline_;
    }

    /** Poll point: cancelled or past deadline. */
    bool done() const { return cancelled() || expired(); }

    /** Ok, or the typed reason this context is done. Expiry wins over
     *  cancellation: a context that is both expired and cancelled
     *  reads as DeadlineExceeded; only a cancel ahead of the deadline
     *  is a true Cancelled. */
    Status status() const;

  private:
    Context(double deadline, std::shared_ptr<std::atomic<bool>> cancel)
        : deadline_(deadline), cancel_(std::move(cancel))
    {
    }

    double deadline_ = std::numeric_limits<double>::infinity();
    std::shared_ptr<std::atomic<bool>> cancel_;
};

} // namespace tapacs

#endif // TAPACS_COMMON_CONTEXT_HH
