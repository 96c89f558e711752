/**
 * @file
 * Typed error taxonomy for the compile service.
 *
 * Library code (compiler/, floorplan/, ilp/, cache/, network/, serve/)
 * reports recoverable failures as a Status instead of calling fatal():
 * a serving process must survive any single bad request. fatal()
 * remains the right call only in the tools/ mains, where the process
 * *is* the request.
 *
 * Codes mirror the canonical RPC taxonomy, restricted to what the
 * compile flow can actually produce:
 *
 *   InvalidInput      the request itself is malformed (bad graph,
 *                     bad options, manifest syntax).
 *   Infeasible        a well-formed request with no feasible answer
 *                     (the design does not fit the cluster).
 *   DeadlineExceeded  the request's deadline expired before a full-
 *                     quality answer was produced.
 *   Cancelled         reserved: nothing produces it any more, but
 *                     outcomes in journals and on the fleet wire
 *                     carry codes by number, so it keeps its slot.
 *   ResourceExhausted the service shed the request (queue full,
 *                     circuit breaker open, retry budget spent), or
 *                     a file exceeded its reader's size cap.
 *   Internal          an invariant failed; the one code that is the
 *                     service's fault, not the request's.
 */

#ifndef TAPACS_COMMON_STATUS_HH
#define TAPACS_COMMON_STATUS_HH

#include <optional>
#include <string>
#include <utility>

#include "common/logging.hh"

namespace tapacs
{

/** Failure class of an operation (Ok = success). */
enum class StatusCode
{
    Ok = 0,
    InvalidInput,
    Infeasible,
    DeadlineExceeded,
    Cancelled,
    ResourceExhausted,
    Internal,
};

/** Canonical upper-snake name ("DEADLINE_EXCEEDED"). */
const char *toString(StatusCode code);

/** A typed success/failure outcome with a human-readable message. */
class Status
{
  public:
    /** Default: success. */
    Status() = default;

    Status(StatusCode code, std::string message)
        : code_(code), message_(std::move(message))
    {
    }

    bool ok() const { return code_ == StatusCode::Ok; }
    StatusCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** "DEADLINE_EXCEEDED: inter-FPGA ILP budget spent" (or "OK"). */
    std::string toString() const;

    static Status success() { return Status(); }

    static Status invalidInput(const char *fmt, ...)
        __attribute__((format(printf, 1, 2)));
    static Status infeasible(const char *fmt, ...)
        __attribute__((format(printf, 1, 2)));
    static Status deadlineExceeded(const char *fmt, ...)
        __attribute__((format(printf, 1, 2)));
    static Status resourceExhausted(const char *fmt, ...)
        __attribute__((format(printf, 1, 2)));
    static Status internal(const char *fmt, ...)
        __attribute__((format(printf, 1, 2)));

  private:
    StatusCode code_ = StatusCode::Ok;
    std::string message_;
};

/**
 * Either a value or the Status explaining its absence.
 *
 * value() asserts success — check ok() (or status()) first on any
 * path that can fail.
 */
template <typename T>
class StatusOr
{
  public:
    StatusOr(Status status) : status_(std::move(status))
    {
        tapacs_assert(!status_.ok());
    }

    StatusOr(T value) : value_(std::move(value)) {}

    bool ok() const { return status_.ok(); }
    const Status &status() const { return status_; }

    const T &
    value() const
    {
        tapacs_assert(value_.has_value());
        return *value_;
    }

    T &
    value()
    {
        tapacs_assert(value_.has_value());
        return *value_;
    }

    T &&
    moveValue()
    {
        tapacs_assert(value_.has_value());
        return std::move(*value_);
    }

  private:
    Status status_;
    std::optional<T> value_;
};

} // namespace tapacs

#endif // TAPACS_COMMON_STATUS_HH
