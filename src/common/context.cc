#include "common/context.hh"

#include <algorithm>
#include <chrono>

namespace tapacs
{

double
monotonicSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

Context
Context::withTimeout(double seconds)
{
    // seconds <= 0 pins the deadline at -inf so expired() is true on
    // every poll, independent of clock resolution — the property the
    // deterministic degraded-path tests rely on.
    return Context(seconds <= 0.0
                       ? -std::numeric_limits<double>::infinity()
                       : monotonicSeconds() + seconds);
}

Context
Context::withBudget(double seconds) const
{
    return Context(std::min(deadline_, monotonicSeconds() + seconds));
}

Status
Context::status() const
{
    if (expired())
        return Status::deadlineExceeded("deadline expired");
    return Status();
}

} // namespace tapacs
