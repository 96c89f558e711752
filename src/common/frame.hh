/**
 * @file
 * The one framed-record codec for every byte the serving tier stores
 * or ships. A frame is, little-endian:
 *
 *   magic[4] | u32 payload length | u64 CRC-64/XZ(payload) | payload
 *
 *   magic  user           payload                             cap
 *   TJR2   serve/journal  "B <id> <manifest-line>" or       16 MiB
 *                         "E <id> <outcome-bytes>"
 *   TWF2   serve/wire     FrameType byte + message bytes    64 MiB
 *   TCE3   cache/store    entry bytes; a `.tce` file is  4 GiB - 1
 *                         exactly one frame
 *
 * Decoding is total: a strict prefix of a frame is Torn (a crash
 * mid-write), anything else that is not a frame is Corrupt — so no
 * single-bit flip decodes Ok — and a length over the caller's cap is
 * Corrupt from the header alone, before any payload is allocated.
 * Records in older layouts are Corrupt too; there is no
 * compatibility reader.
 *
 * The file I/O under the frames lives here too: the one whole-file
 * reader, the one EINTR-safe write loop and the one temp + rename
 * publisher.
 */

#ifndef TAPACS_COMMON_FRAME_HH
#define TAPACS_COMMON_FRAME_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.hh"

namespace tapacs
{

constexpr std::size_t kFrameHeaderBytes = 16;

enum class FrameCheck { Ok, Torn, Corrupt };

/** One frame of @p payload under the 4-byte @p magic. */
std::string encodeFrame(std::string_view magic, std::string_view payload);

/** Parse the header at the front of @p bytes, for stream readers
 *  that must learn the payload length before reading the payload:
 *  Ok sets @p length, Torn if too short, else Corrupt. */
FrameCheck parseFrameHeader(std::string_view bytes, std::string_view magic,
                            std::uint32_t maxPayload, std::uint32_t *length);

struct DecodedFrame
{
    FrameCheck check = FrameCheck::Corrupt;
    /** Header + payload bytes; 0 unless Ok. */
    std::size_t consumed = 0;
    /** The verified payload: a view into the decoded buffer. */
    std::string_view payload;
};

/** Decode the frame at the front of @p bytes. */
DecodedFrame decodeFrame(std::string_view bytes, std::string_view magic,
                         std::uint32_t maxPayload);

/**
 * Read all of @p path into @p out; @p out is untouched on failure.
 * InvalidInput "cannot open '<path>'", or ResourceExhausted "file
 * '<path>' is <n> bytes (limit <maxBytes>)", checked before reading.
 */
Status readFile(const std::string &path, std::string *out,
                std::uint64_t maxBytes = UINT64_MAX);

/** Write all of @p bytes to @p fd, retrying short writes and EINTR;
 *  Internal on any other error (EPIPE included: pipe writers ignore
 *  SIGPIPE). */
Status writeAll(int fd, std::string_view bytes);

/**
 * fsync the directory that holds @p path, so a directory entry just
 * created or renamed there survives power loss. Internal on failure.
 */
Status syncParentDirectory(const std::string &path);

/**
 * Replace @p path with @p bytes through the temp file @p tmp and a
 * rename, so readers see the old file or all of the new one; with
 * @p durable the temp is fsync'd first and the parent directory
 * after the rename (two fsyncs). On failure (ENOSPC included) the
 * temp is removed and @p path is left as it was.
 */
Status replaceFile(const std::string &path, const std::string &tmp,
                   std::string_view bytes, bool durable);

} // namespace tapacs

#endif // TAPACS_COMMON_FRAME_HH
