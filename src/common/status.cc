#include "common/status.hh"

#include <cstdarg>

namespace tapacs
{

const char *
toString(StatusCode code)
{
    switch (code) {
      case StatusCode::Ok: return "OK";
      case StatusCode::InvalidInput: return "INVALID_INPUT";
      case StatusCode::Infeasible: return "INFEASIBLE";
      case StatusCode::DeadlineExceeded: return "DEADLINE_EXCEEDED";
      case StatusCode::Cancelled: return "CANCELLED";
      case StatusCode::ResourceExhausted: return "RESOURCE_EXHAUSTED";
      case StatusCode::Internal: return "INTERNAL";
    }
    return "?";
}

std::string
Status::toString() const
{
    if (ok())
        return "OK";
    if (message_.empty())
        return tapacs::toString(code_);
    return std::string(tapacs::toString(code_)) + ": " + message_;
}

namespace
{

Status
makeStatus(StatusCode code, const char *fmt, va_list args)
{
    return Status(code, vstrprintf(fmt, args));
}

} // namespace

#define TAPACS_STATUS_FACTORY(fn, code)                                  \
    Status Status::fn(const char *fmt, ...)                              \
    {                                                                    \
        va_list args;                                                    \
        va_start(args, fmt);                                             \
        Status s = makeStatus(StatusCode::code, fmt, args);              \
        va_end(args);                                                    \
        return s;                                                        \
    }

TAPACS_STATUS_FACTORY(invalidInput, InvalidInput)
TAPACS_STATUS_FACTORY(infeasible, Infeasible)
TAPACS_STATUS_FACTORY(deadlineExceeded, DeadlineExceeded)
TAPACS_STATUS_FACTORY(resourceExhausted, ResourceExhausted)
TAPACS_STATUS_FACTORY(internal, Internal)

#undef TAPACS_STATUS_FACTORY

} // namespace tapacs
