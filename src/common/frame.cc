#include "common/frame.hh"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include "common/crc64.hh"
#include "common/logging.hh"

namespace tapacs
{

// Header integers are copied byte for byte, which is little-endian
// only on a little-endian host.
static_assert(std::endian::native == std::endian::little);

std::string
encodeFrame(std::string_view magic, std::string_view payload)
{
    tapacs_assert(magic.size() == 4 && payload.size() <= 0xffffffffu);
    const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
    const std::uint64_t crc = crc64(payload.data(), payload.size());
    std::string out(magic);
    out.append(reinterpret_cast<const char *>(&length), sizeof(length));
    out.append(reinterpret_cast<const char *>(&crc), sizeof(crc));
    return out.append(payload);
}

FrameCheck
parseFrameHeader(std::string_view bytes, std::string_view magic,
                 std::uint32_t maxPayload, std::uint32_t *length)
{
    const std::size_t have = std::min(bytes.size(), magic.size());
    if (bytes.substr(0, have) != magic.substr(0, have))
        return FrameCheck::Corrupt;
    std::uint32_t claimed = 0;
    if (bytes.size() >= 8)
        std::memcpy(&claimed, bytes.data() + 4, sizeof(claimed));
    if (claimed > maxPayload)
        return FrameCheck::Corrupt;
    if (bytes.size() < kFrameHeaderBytes)
        return FrameCheck::Torn;
    *length = claimed;
    return FrameCheck::Ok;
}

DecodedFrame
decodeFrame(std::string_view bytes, std::string_view magic,
            std::uint32_t maxPayload)
{
    std::uint32_t length = 0;
    const FrameCheck check =
        parseFrameHeader(bytes, magic, maxPayload, &length);
    if (check != FrameCheck::Ok)
        return {check, 0, {}};
    if (bytes.size() - kFrameHeaderBytes < length)
        return {FrameCheck::Torn, 0, {}};
    std::uint64_t crc = 0;
    std::memcpy(&crc, bytes.data() + 8, sizeof(crc));
    const std::string_view payload = bytes.substr(kFrameHeaderBytes, length);
    if (crc64(payload.data(), payload.size()) != crc)
        return {FrameCheck::Corrupt, 0, {}};
    return {FrameCheck::Ok, kFrameHeaderBytes + length, payload};
}

Status
readFile(const std::string &path, std::string *out, std::uint64_t maxBytes)
{
    // file_size fails on anything but a regular file (a directory
    // included), so the size is checked before a byte is buffered.
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    std::ifstream in(path, std::ios::binary);
    if (ec || !in)
        return Status::invalidInput("cannot open '%s'", path.c_str());
    if (size > maxBytes)
        return Status::resourceExhausted(
            "file '%s' is %llu bytes (limit %llu)", path.c_str(),
            (unsigned long long)size, (unsigned long long)maxBytes);
    std::string bytes(size, '\0');
    if (!in.read(bytes.data(), static_cast<std::streamsize>(size)))
        return Status::invalidInput("cannot open '%s'", path.c_str());
    *out = std::move(bytes);
    return Status();
}

Status
writeAll(int fd, std::string_view bytes)
{
    for (std::size_t sent = 0; sent < bytes.size();) {
        const ssize_t n =
            write(fd, bytes.data() + sent, bytes.size() - sent);
        if (n >= 0)
            sent += static_cast<std::size_t>(n);
        else if (errno != EINTR)
            return Status::internal("write failed: %s",
                                    std::strerror(errno));
    }
    return Status();
}

Status
syncParentDirectory(const std::string &path)
{
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    const std::string dir = parent.empty() ? "." : parent.string();
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0)
        return Status::internal("cannot open directory '%s': %s",
                                dir.c_str(), std::strerror(errno));
    Status st;
    if (fsync(fd) != 0)
        st = Status::internal("fsync of directory '%s' failed: %s",
                              dir.c_str(), std::strerror(errno));
    ::close(fd);
    return st;
}

Status
replaceFile(const std::string &path, const std::string &tmp,
            std::string_view bytes, bool durable)
{
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0)
        return Status::internal("cannot open '%s': %s", tmp.c_str(),
                                std::strerror(errno));
    Status st = writeAll(fd, bytes);
    if (st.ok() && durable && fsync(fd) != 0)
        st = Status::internal("fsync failed: %s", std::strerror(errno));
    if (::close(fd) != 0 && st.ok())
        st = Status::internal("close failed: %s", std::strerror(errno));
    if (st.ok() && std::rename(tmp.c_str(), path.c_str()) != 0)
        st = Status::internal("cannot publish '%s': %s", path.c_str(),
                              std::strerror(errno));
    if (!st.ok()) {
        std::remove(tmp.c_str());
        return st;
    }
    // The rename is a directory update: without this fsync a power
    // loss can bring back the old file, fsync'd temp or not.
    return durable ? syncParentDirectory(path) : st;
}

} // namespace tapacs
