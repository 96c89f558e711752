#include "common/context.hh"

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
    // deterministic abort tests rely on.
    return Context(seconds <= 0.0
                       ? -std::numeric_limits<double>::infinity()
                       : monotonicSeconds() + seconds);
}

Status
Context::status() const
{
    if (expired())
        return Status::deadlineExceeded("deadline expired");
    return Status();
}

} // namespace tapacs
