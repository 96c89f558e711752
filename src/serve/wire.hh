/**
 * @file
 * The supervisor <-> worker wire protocol: CRC64-checked frames over
 * a pair of pipes. Each message is one `TWF2` frame (common/frame.hh
 * holds the format table) whose payload is one FrameType byte and
 * then the message bytes.
 *
 * A reader that sees anything but a valid header where a frame
 * should start knows the peer is corrupt and kills the connection —
 * there is no guessing at frame boundaries. The CRC covers the type
 * byte and the message, so a torn write from a dying worker degrades
 * to a typed corrupt-frame error, never to a garbage ServeOutcome.
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

enum class FrameType : std::uint8_t
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

/** Largest accepted frame payload (type byte included); larger
 *  means a corrupt length field. */
constexpr std::uint32_t kMaxFramePayloadBytes = 64u << 20;

/** Serialize one frame (header, type byte, payload) to bytes. */
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
 *        (bad header, CRC mismatch, unknown type) rather than a
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
