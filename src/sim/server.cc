#include "sim/server.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tapacs::sim
{

Seconds
Server::acquire(Seconds earliest, Seconds duration)
{
    tapacs_assert(duration >= 0.0);
    const Seconds start = std::max(earliest, busyUntil_);
    busyUntil_ = start + duration;
    busyTime_ += duration;
    return busyUntil_;
}

} // namespace tapacs::sim
