/**
 * @file
 * Strict command-line flags shared by the tools. A numeric value must
 * parse whole (explore::parseInt / explore::parseDouble: no trailing
 * junk, no overflow, no NaN) and lie in [lo, hi]; a name must be one
 * the shared lookup (the one the serve manifest uses) knows. Anything
 * else exits 2 naming the tool and the flag, before any work starts.
 */

#ifndef TAPACS_TOOLS_CLI_FLAGS_HH
#define TAPACS_TOOLS_CLI_FLAGS_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "explore/spec.hh"

namespace tapacs::cli
{

/** @p text as a real in [lo, hi], or exit 2. */
inline double
realFlag(const char *tool, const std::string &flag,
         const std::string &text, double lo, double hi)
{
    double v = 0.0;
    if (!explore::parseDouble(text, lo, hi, &v)) {
        std::fprintf(stderr, "%s: %s '%s' is not a number in [%g, %g]\n",
                     tool, flag.c_str(), text.c_str(), lo, hi);
        std::exit(2);
    }
    return v;
}

/** @p text as an integer in [lo, hi], or exit 2. */
inline std::int64_t
intFlag(const char *tool, const std::string &flag, const std::string &text,
        std::int64_t lo, std::int64_t hi)
{
    std::int64_t v = 0;
    if (!explore::parseInt(text, lo, hi, &v)) {
        std::fprintf(stderr,
                     "%s: %s '%s' is not an integer in [%lld, %lld]\n",
                     tool, flag.c_str(), text.c_str(), (long long)lo,
                     (long long)hi);
        std::exit(2);
    }
    return v;
}

/** Exit 2 naming the tool, @p flag and @p text unless @p st is Ok. */
inline void
checkFlag(const char *tool, const std::string &flag, const std::string &text,
          const Status &st)
{
    if (!st.ok()) {
        std::fprintf(stderr, "%s: %s '%s': %s\n", tool, flag.c_str(),
                     text.c_str(), st.message().c_str());
        std::exit(2);
    }
}

/** @p text looked up by @p parse (a shared name parser such as
 *  serve::parseModeName), or exit 2. */
template <typename T>
T
nameFlag(const char *tool, const std::string &flag, const std::string &text,
         Status (*parse)(const std::string &, T *))
{
    T v{};
    checkFlag(tool, flag, text, parse(text, &v));
    return v;
}

} // namespace tapacs::cli

#endif // TAPACS_TOOLS_CLI_FLAGS_HH
