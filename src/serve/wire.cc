#include "serve/wire.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <poll.h>
#include <unistd.h>

#include "cache/entry_io.hh"
#include "common/context.hh"
#include "common/frame.hh"

namespace tapacs::serve
{

namespace
{

constexpr std::string_view kMagic = "TWF2";

/**
 * Read exactly @p size bytes, polling against the shared frame
 * deadline. Ok, DeadlineExceeded, or Internal (EOF / errno).
 */
Status
readExact(int fd, char *buf, std::size_t size, double deadline)
{
    for (std::size_t got = 0; got < size;) {
        if (deadline >= 0.0) {
            const double remaining = deadline - monotonicSeconds();
            if (remaining <= 0.0)
                return Status::deadlineExceeded(
                    "wire: no frame within the poll budget");
            struct pollfd pfd = {fd, POLLIN, 0};
            const int polled = poll(
                &pfd, 1,
                static_cast<int>(std::min(remaining * 1000.0 + 1.0, 3.6e6)));
            if (polled < 0 && errno != EINTR)
                return Status::internal("wire: poll failed: %s",
                                        std::strerror(errno));
            if (polled <= 0)
                continue; // EINTR or timeout: re-check the deadline
        }
        const ssize_t n = read(fd, buf + got, size - got);
        if (n == 0)
            return Status::internal("wire: peer closed the stream");
        if (n > 0)
            got += static_cast<std::size_t>(n);
        else if (errno != EINTR)
            return Status::internal("wire: read failed: %s",
                                    std::strerror(errno));
    }
    return Status();
}

} // namespace

std::string
encodeFrame(FrameType type, const std::string &payload)
{
    std::string body(1, static_cast<char>(type));
    body += payload;
    return tapacs::encodeFrame(kMagic, body);
}

Status
writeFrame(int fd, FrameType type, const std::string &payload)
{
    return writeAll(fd, encodeFrame(type, payload));
}

Status
readFrame(int fd, double timeoutSeconds, Frame *out, bool *corrupt)
{
    if (corrupt != nullptr)
        *corrupt = false;
    const auto corruptFrame = [&](const char *what) {
        if (corrupt != nullptr)
            *corrupt = true;
        return Status::internal("wire: %s", what);
    };
    const double deadline =
        timeoutSeconds < 0.0 ? -1.0
                             : monotonicSeconds() + timeoutSeconds;

    std::string bytes(kFrameHeaderBytes, '\0');
    Status st = readExact(fd, bytes.data(), bytes.size(), deadline);
    if (!st.ok())
        return st;
    std::uint32_t length = 0;
    if (parseFrameHeader(bytes, kMagic, kMaxFramePayloadBytes, &length) !=
        FrameCheck::Ok)
        return corruptFrame("bad frame header");
    bytes.resize(kFrameHeaderBytes + length);
    st = readExact(fd, bytes.data() + kFrameHeaderBytes, length, deadline);
    if (!st.ok())
        return st;
    const DecodedFrame frame =
        decodeFrame(bytes, kMagic, kMaxFramePayloadBytes);
    if (frame.check != FrameCheck::Ok)
        return corruptFrame("frame CRC mismatch");
    // The type byte is checked only once the CRC vouches for it.
    if (frame.payload.empty() ||
        frame.payload[0] < static_cast<char>(FrameType::Hello) ||
        frame.payload[0] > static_cast<char>(FrameType::Shutdown))
        return corruptFrame("bad frame type");
    out->type = static_cast<FrameType>(frame.payload[0]);
    out->payload.assign(frame.payload.substr(1));
    return Status();
}

std::string
encodeOutcome(const ServeOutcome &out)
{
    cache::EntryWriter w;
    w.tag("SO1");
    w.str(out.name);
    w.i64(static_cast<std::int64_t>(out.status.code()));
    w.str(out.status.message());
    w.i64(out.routable ? 1 : 0);
    w.i64(out.degraded ? 1 : 0);
    w.str(out.degradedReason);
    w.str(out.failureReason);
    w.i64(out.tasks);
    w.i64(out.attempts);
    w.f64(out.seconds);
    w.f64(out.fmax);
    w.f64(out.cutTrafficBytes);
    w.i64(out.simulated ? 1 : 0);
    w.f64(out.simMakespan);
    w.str(out.deltaSummary);
    w.i64(out.explored ? 1 : 0);
    w.i64(out.explorePoints);
    w.i64(out.exploreFrontier);
    w.f64(out.exploreHitRate);
    w.i64(static_cast<std::int64_t>(out.resultDigest));
    return w.take();
}

bool
decodeOutcome(const std::string &bytes, ServeOutcome *out)
{
    cache::EntryReader r(bytes);
    ServeOutcome o;
    std::int64_t code = 0;
    std::int64_t tasks = 0;
    std::int64_t attempts = 0;
    std::int64_t points = 0;
    std::int64_t frontier = 0;
    std::int64_t digest = 0;
    std::string message;
    if (!r.tag("SO1") || !r.str(&o.name) || !r.i64(&code) ||
        !r.str(&message) || !r.boolean(&o.routable) ||
        !r.boolean(&o.degraded) || !r.str(&o.degradedReason) ||
        !r.str(&o.failureReason) || !r.i64(&tasks) ||
        !r.i64(&attempts) || !r.f64(&o.seconds) || !r.f64(&o.fmax) ||
        !r.f64(&o.cutTrafficBytes) || !r.boolean(&o.simulated) ||
        !r.f64(&o.simMakespan) || !r.str(&o.deltaSummary) ||
        !r.boolean(&o.explored) || !r.i64(&points) ||
        !r.i64(&frontier) || !r.f64(&o.exploreHitRate) ||
        !r.i64(&digest))
        return false;
    if (code < static_cast<std::int64_t>(StatusCode::Ok) ||
        code > static_cast<std::int64_t>(StatusCode::Internal))
        return false;
    o.status = Status(static_cast<StatusCode>(code), std::move(message));
    o.tasks = static_cast<int>(tasks);
    o.attempts = static_cast<int>(attempts);
    o.explorePoints = static_cast<int>(points);
    o.exploreFrontier = static_cast<int>(frontier);
    o.resultDigest = static_cast<std::uint64_t>(digest);
    *out = std::move(o);
    return true;
}

} // namespace tapacs::serve
