#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

namespace tapacs
{

namespace
{

/**
 * Serializes emission so concurrent worker threads (PR 1 made the
 * floorplanners multi-threaded) never interleave characters within a
 * line. Messages are formatted *before* taking the lock, so the
 * critical section is one fprintf.
 */
std::mutex &
sinkMutex()
{
    static std::mutex mu;
    return mu;
}

void
emit(std::FILE *stream, const char *prefix, const std::string &msg)
{
    std::lock_guard<std::mutex> lk(sinkMutex());
    std::fprintf(stream, "%s: %s\n", prefix, msg.c_str());
}

} // namespace

std::string
vstrprintf(const char *fmt, va_list args)
{
    va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (needed < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<size_t>(needed));
}

std::string
strprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string out = vstrprintf(fmt, args);
    va_end(args);
    return out;
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vstrprintf(fmt, args);
    va_end(args);
    emit(stderr, "fatal", msg);
    std::exit(1);
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vstrprintf(fmt, args);
    va_end(args);
    emit(stderr, "panic", msg);
    std::abort();
}

void
warn(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vstrprintf(fmt, args);
    va_end(args);
    emit(stderr, "warn", msg);
}

void
inform(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vstrprintf(fmt, args);
    va_end(args);
    emit(stdout, "info", msg);
}

} // namespace tapacs
