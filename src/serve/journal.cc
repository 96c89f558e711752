#include "serve/journal.hh"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "common/frame.hh"
#include "common/logging.hh"

namespace tapacs::serve
{

namespace
{

constexpr std::string_view kMagic = "TJR2";
constexpr std::uint32_t kMaxBodyBytes = 16u << 20;

std::string
recordBody(char kind, std::uint64_t id, const std::string &payload)
{
    return strprintf("%c %llu ", kind, (unsigned long long)id) + payload;
}

/** Total body parse: "B <id> <payload>" / "E <id> <payload>". */
bool
parseBody(std::string_view body, RequestJournal::Record *out)
{
    if (body.size() < 4 || (body[0] != 'B' && body[0] != 'E') ||
        body[1] != ' ')
        return false;
    std::uint64_t id = 0;
    const char *const last = body.data() + body.size();
    const auto [end, ec] = std::from_chars(body.data() + 2, last, id);
    if (ec != std::errc() || end == last || *end != ' ')
        return false;
    out->end = body[0] == 'E';
    out->id = id;
    out->payload.assign(end + 1, last);
    return true;
}

} // namespace

Status
RequestJournal::open()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ >= 0)
        return Status();
    fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                 0644);
    if (fd_ < 0)
        return Status::internal("journal: cannot open '%s': %s",
                                path_.c_str(), std::strerror(errno));
    return Status();
}

void
RequestJournal::close()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

Status
RequestJournal::append(char kind, std::uint64_t id,
                       const std::string &payload)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ < 0)
        return Status::internal("journal: append to a closed journal");
    const std::string body = recordBody(kind, id, payload);
    if (body.size() > kMaxBodyBytes)
        return Status::invalidInput(
            "journal: record body %zu bytes exceeds the %u cap",
            body.size(), kMaxBodyBytes);
    const Status st = writeAll(fd_, encodeFrame(kMagic, body));
    if (!st.ok())
        return st;
    // O_APPEND makes the write atomic w.r.t. other appenders; the
    // fsync makes it durable before we report Ok — a begin record
    // that "took" must survive the very crash it exists to cover.
    if (fsync(fd_) != 0)
        return Status::internal("journal: fsync failed: %s",
                                std::strerror(errno));
    return Status();
}

Status
RequestJournal::appendBegin(std::uint64_t id,
                            const std::string &manifestLine)
{
    return append('B', id, manifestLine);
}

Status
RequestJournal::appendEnd(std::uint64_t id,
                          const std::string &outcomeBytes)
{
    return append('E', id, outcomeBytes);
}

RequestJournal::ScanResult
RequestJournal::scan(const std::string &path)
{
    ScanResult out;
    std::string bytes;
    if (!readFile(path, &bytes).ok())
        return out; // no journal yet = nothing to replay
    const std::string_view view = bytes;
    std::size_t pos = 0;
    while (pos < view.size()) {
        const DecodedFrame frame =
            decodeFrame(view.substr(pos), kMagic, kMaxBodyBytes);
        if (frame.check == FrameCheck::Torn) {
            // A crash mid-append. Nothing after it can exist, so
            // stop (not a corrupt skip).
            out.tornTail = true;
            break;
        }
        Record record;
        if (frame.check == FrameCheck::Ok &&
            parseBody(frame.payload, &record)) {
            out.records.push_back(std::move(record));
            pos += frame.consumed;
            continue;
        }
        // Re-anchor on the next magic. A false anchor inside a
        // payload fails its length cap or CRC and re-anchors again;
        // pos strictly advances, so the scan terminates.
        ++out.corruptSkipped;
        pos = std::min(view.find(kMagic, pos + 1), view.size());
    }
    return out;
}

Status
RequestJournal::rewrite(const std::string &path,
                        const std::vector<Record> &records)
{
    std::string bytes;
    for (const Record &record : records)
        bytes += encodeFrame(kMagic, recordBody(record.end ? 'E' : 'B',
                                                record.id, record.payload));
    return replaceFile(path, path + ".tmp", bytes, true);
}

} // namespace tapacs::serve
