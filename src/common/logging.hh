/**
 * @file
 * Status-message and error helpers in the gem5 tradition.
 *
 * fatal()  — the situation is the *user's* fault (bad configuration,
 *            invalid arguments); prints and exits with code 1.
 * panic()  — the situation should never happen regardless of user
 *            input (an internal bug); prints and aborts.
 * warn()   — something works, but not as well as it should.
 * inform() — normal operating status, no connotation of error.
 */

#ifndef TAPACS_COMMON_LOGGING_HH
#define TAPACS_COMMON_LOGGING_HH

#include <cstdarg>
#include <string>

namespace tapacs
{

/**
 * printf-style formatting into a std::string.
 *
 * @param fmt printf format string.
 * @return the formatted string.
 */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** va_list variant of strprintf(). */
std::string vstrprintf(const char *fmt, va_list args);

/**
 * Report an unrecoverable user-caused error and exit(1).
 * Never returns.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an internal invariant violation and abort().
 * Never returns.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report a condition that might work well enough but deserves note.
 * Always printed, to stderr.
 */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report normal operating status. Always printed, to stdout. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Assert an internal invariant; calls panic() with location info on
 * failure. Active in all build types (unlike <cassert>).
 */
#define tapacs_assert(cond)                                              \
    do {                                                                 \
        if (!(cond)) {                                                   \
            ::tapacs::panic("assertion '%s' failed at %s:%d", #cond,     \
                            __FILE__, __LINE__);                         \
        }                                                                \
    } while (0)

} // namespace tapacs

#endif // TAPACS_COMMON_LOGGING_HH
