/**
 * @file
 * The supervisor <-> worker wire protocol: length-prefixed, CRC64-
 * checked frames over a pair of pipes.
 *
 * Frame layout (all integers little-endian, fixed width):
 *
 *   offset  size  field
 *        0     4  magic "TAPF"
 *        4     4  type (FrameType)
 *        8     8  payload length (capped at 64 MiB)
 *       16     8  CRC64 of the payload
 *       24   len  payload bytes
 *
 * The magic re-anchors a desynchronized stream deterministically: a
 * reader that sees anything but "TAPF" where a frame should start
 * knows the peer is corrupt and kills the connection — there is no
 * guessing at frame boundaries. The CRC covers the payload, so a
 * torn write from a dying worker degrades to a typed corrupt-frame
 * error, never to a garbage ServeOutcome.
 *
 * Conversation: worker sends Hello("<pid>") once; supervisor sends
 * Request("<id> <manifest-line>"); worker emits Heartbeat frames on a
 * timer while compiling (liveness under long solves) and finally
 * Response("<id> " + encodeOutcome(...)). Shutdown (either way) or
 * EOF ends the session. One request is in flight per worker at a
 * time, so frames never interleave requests.
 *
 * encodeOutcome/decodeOutcome serialize a full ServeOutcome with the
 * cache entry codec (text, %a doubles — exact round-trip), which is
 * also the journal's end-record payload format: the wire and the
 * journal agree byte-for-byte on what an outcome is.
 */

#ifndef TAPACS_SERVE_WIRE_HH
#define TAPACS_SERVE_WIRE_HH

#include <cstdint>
#include <string>

#include "common/status.hh"
#include "serve/execute.hh"

namespace tapacs::serve
{

enum class FrameType : std::uint32_t
{
    Hello = 1,
    Request = 2,
    Response = 3,
    Heartbeat = 4,
    Shutdown = 5,
};

struct Frame
{
    FrameType type = FrameType::Hello;
    std::string payload;
};

/** Largest accepted payload; larger means a corrupt length field. */
constexpr std::uint64_t kMaxFramePayloadBytes = 64ull << 20;

/** Serialize one frame (header + payload) to bytes. */
std::string encodeFrame(FrameType type, const std::string &payload);

/**
 * Write one frame to @p fd, retrying short writes. Internal on any
 * write error (EPIPE from a dead peer included — callers must have
 * SIGPIPE ignored; the supervisor and worker mains both do).
 */
Status writeFrame(int fd, FrameType type, const std::string &payload);

/**
 * Read exactly one frame from @p fd.
 *
 * @param timeoutSeconds poll budget; < 0 blocks indefinitely. The
 *        budget spans the whole frame, so a peer that stops mid-frame
 *        still times out.
 * @param corrupt set true when the failure was a malformed frame
 *        (bad magic, oversized length, CRC mismatch) rather than a
 *        timeout or EOF; may be nullptr.
 *
 * Ok + *out, or DeadlineExceeded (timeout), or Internal (EOF /
 * read error / corrupt frame).
 */
Status readFrame(int fd, double timeoutSeconds, Frame *out,
                 bool *corrupt = nullptr);

/** Serialize every field of @p out (text codec, exact doubles). */
std::string encodeOutcome(const ServeOutcome &out);

/** Total inverse of encodeOutcome; false on any malformation. */
bool decodeOutcome(const std::string &bytes, ServeOutcome *out);

} // namespace tapacs::serve

#endif // TAPACS_SERVE_WIRE_HH
